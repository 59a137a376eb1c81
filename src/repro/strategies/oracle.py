"""The oracle (ORA) baseline from §6.

The oracle selects replicas using *perfect, instantaneous* knowledge of each
server's queue size and service rate — information a real client cannot have
— and therefore bounds how well any feedback-driven scheme can do.  The
simulated client supplies a callback that exposes the true server state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from ..core.feedback import ServerFeedback
from .base import StatefulSelector
from .paramspec import STRATEGIES

__all__ = ["OracleParams", "OracleSelector", "ServerStateFn"]

#: Callback returning ``(pending_requests, current_service_time_ms)`` for a server.
ServerStateFn = Callable[[Hashable], tuple[float, float]]


@dataclass(frozen=True, slots=True)
class OracleParams:
    """The oracle has no tunable parameters — it reads ground truth."""


@STRATEGIES.register(
    "ORA",
    aliases=("ORACLE",),
    params=OracleParams,
    description="Omniscient baseline: smallest instantaneous queue x service time, from ground truth",
    context_args=("server_state_fn",),
    requires=("server_state_fn",),
)
class OracleSelector(StatefulSelector):
    """Choose the replica with the smallest instantaneous ``q / μ`` product."""

    name = "ORA"

    def __init__(self, server_state_fn: ServerStateFn) -> None:
        super().__init__()
        if server_state_fn is None:
            raise ValueError("OracleSelector requires a server_state_fn")
        self.server_state_fn = server_state_fn

    def _cost(self, server_id: Hashable) -> float:
        pending, service_time = self.server_state_fn(server_id)
        if service_time <= 0:
            raise ValueError(f"service_time for {server_id!r} must be positive")
        # (q + 1) * service time = expected time to drain the queue plus us.
        return (float(pending) + 1.0) * float(service_time)

    def choose(self, replica_group: Sequence[Hashable], now: float) -> Hashable:
        return min(replica_group, key=lambda sid: (self._cost(sid), str(sid)))

    def record_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> None:
        # The oracle keeps no state — it always reads the ground truth.
        return None
