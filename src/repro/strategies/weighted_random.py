"""Weighted-random replica selection.

A family of baselines mentioned in §6 ("different variations of weighted
random strategies"): each replica is chosen with probability inversely
proportional to an estimate of its cost (queue-size feedback, outstanding
requests, or smoothed response time).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from ..core.ewma import EWMA
from ..core.feedback import ServerFeedback
from .base import StatefulSelector
from .paramspec import STRATEGIES

__all__ = ["WeightedRandomParams", "WeightedRandomSelector"]

_VALID_SIGNALS = ("outstanding", "queue", "response_time")


@dataclass(frozen=True, slots=True)
class WeightedRandomParams:
    """WRAND parameters."""

    #: Cost signal to weight by: ``outstanding`` / ``queue`` / ``response_time``.
    signal: str = "outstanding"
    #: EWMA smoothing weight for the feedback-based signals.
    alpha: float = 0.9


def _validate_wrand_params(params: Mapping[str, Any]) -> None:
    signal = params.get("signal", "outstanding")
    if signal not in _VALID_SIGNALS:
        raise ValueError(f"signal must be one of {_VALID_SIGNALS}, got {signal!r}")


@STRATEGIES.register(
    "WRAND",
    aliases=("WEIGHTED_RANDOM",),
    params=WeightedRandomParams,
    description="Random choice weighted inversely to an estimated per-replica cost",
    context_args=("rng",),
    validate=_validate_wrand_params,
)
class WeightedRandomSelector(StatefulSelector):
    """Choose replicas randomly with weights inverse to their estimated cost.

    Parameters
    ----------
    signal:
        Which cost estimate to weight by: ``"outstanding"`` (local in-flight
        count), ``"queue"`` (smoothed queue-size feedback), or
        ``"response_time"`` (smoothed observed response time).
    """

    name = "WRAND"

    def __init__(
        self,
        signal: str = "outstanding",
        alpha: float = 0.9,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if signal not in _VALID_SIGNALS:
            raise ValueError(f"signal must be one of {_VALID_SIGNALS}, got {signal!r}")
        self.signal = signal
        self.alpha = alpha
        self.rng = rng or np.random.default_rng()
        self._outstanding: dict[Hashable, int] = defaultdict(int)
        self._queue_feedback: dict[Hashable, EWMA] = {}
        self._response_times: dict[Hashable, EWMA] = {}

    def _ewma(self, table: dict, server_id: Hashable) -> EWMA:
        ewma = table.get(server_id)
        if ewma is None:
            ewma = EWMA(self.alpha)
            table[server_id] = ewma
        return ewma

    def cost(self, server_id: Hashable) -> float:
        """The cost estimate used for weighting (>= 0)."""
        if self.signal == "outstanding":
            return float(self._outstanding[server_id])
        if self.signal == "queue":
            return self._ewma(self._queue_feedback, server_id).value
        return self._ewma(self._response_times, server_id).value

    def choose(self, replica_group: Sequence[Hashable], now: float) -> Hashable:
        group = tuple(replica_group)
        weights = np.array([1.0 / (1.0 + self.cost(sid)) for sid in group], dtype=float)
        total = weights.sum()
        if total <= 0:
            return group[int(self.rng.integers(len(group)))]
        probabilities = weights / total
        return group[int(self.rng.choice(len(group), p=probabilities))]

    def record_send(self, server_id: Hashable, now: float) -> None:
        self._outstanding[server_id] += 1

    def on_duplicate_send(self, server_id: Hashable, now: float) -> None:
        self._outstanding[server_id] += 1

    def record_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> None:
        if self._outstanding[server_id] > 0:
            self._outstanding[server_id] -= 1
        if feedback is not None:
            self._ewma(self._queue_feedback, server_id).update(feedback.queue_size)
        self._ewma(self._response_times, server_id).update(response_time)

    def on_timeout(self, server_id: Hashable, now: float) -> None:
        if self._outstanding[server_id] > 0:
            self._outstanding[server_id] -= 1
