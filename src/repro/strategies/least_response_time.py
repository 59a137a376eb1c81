"""Least-response-time replica selection.

Another baseline the paper evaluated in simulation ("least-response time"):
clients track an EWMA of the response times observed from each replica and
send each request to the replica with the lowest smoothed response time.
Because the signal is purely historical it is prone to herding — exactly the
failure mode C3's concurrency compensation addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from ..core.ewma import EWMA
from ..core.feedback import ServerFeedback
from .base import StatefulSelector
from .paramspec import STRATEGIES

__all__ = ["LeastResponseTimeParams", "LeastResponseTimeSelector"]


@dataclass(frozen=True, slots=True)
class LeastResponseTimeParams:
    """LRT parameters."""

    #: EWMA smoothing weight for the per-replica response-time estimate.
    alpha: float = 0.9


@STRATEGIES.register(
    "LRT",
    aliases=("LEAST_RESPONSE_TIME",),
    params=LeastResponseTimeParams,
    description="Lowest EWMA-smoothed observed response time (herding-prone baseline)",
    context_args=("rng",),
)
class LeastResponseTimeSelector(StatefulSelector):
    """Pick the replica with the lowest smoothed observed response time."""

    name = "LRT"

    def __init__(self, alpha: float = 0.9, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.alpha = alpha
        self.rng = rng or np.random.default_rng()
        self._response_times: dict[Hashable, EWMA] = {}

    def _ewma(self, server_id: Hashable) -> EWMA:
        ewma = self._response_times.get(server_id)
        if ewma is None:
            ewma = EWMA(self.alpha)
            self._response_times[server_id] = ewma
        return ewma

    def smoothed_response_time(self, server_id: Hashable) -> float:
        """Current smoothed response time for a server (0 when unknown)."""
        return self._ewma(server_id).value

    def choose(self, replica_group: Sequence[Hashable], now: float) -> Hashable:
        # Servers never sampled score 0 and are therefore explored first.
        lowest = min(self._ewma(sid).value for sid in replica_group)
        candidates = [sid for sid in replica_group if self._ewma(sid).value == lowest]
        if len(candidates) == 1:
            return candidates[0]
        return candidates[int(self.rng.integers(len(candidates)))]

    def record_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> None:
        self._ewma(server_id).update(response_time)
