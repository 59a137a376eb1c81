"""Rate-limited round-robin (RR) replica selection.

The §6 baseline that isolates the contribution of C3's rate limiter: clients
keep the same per-server CUBIC rate controllers and backpressure queues as
C3 but replace the replica *ranking* with a plain per-replica-group
round-robin ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Sequence

from ..core.backpressure import BackpressureQueues, BacklogEntry
from ..core.config import C3Config
from ..core.feedback import ServerFeedback
from ..core.rate_control import PerServerRateControl
from .base import ReplicaSelector, SelectorDecision
from .paramspec import STRATEGIES

__all__ = ["RoundRobinParams", "RoundRobinSelector"]


@dataclass(frozen=True, slots=True)
class RoundRobinParams:
    """RR parameters: the rate-control ablation switch plus its CUBIC knobs.

    ``None`` for a rate knob means "use the deployment's base C3 config"
    (the same controllers C3 runs with, per §6).
    """

    rate_limited: bool = True
    initial_rate: float | None = None
    rate_delta_ms: float | None = None
    beta: float | None = None
    smax: float | None = None


def _rr_config(params: Mapping[str, Any], base: C3Config | None) -> C3Config:
    config = base or C3Config()
    overrides = {
        key: value
        for key, value in params.items()
        if key != "rate_limited" and value is not None
    }
    return config.copy(**overrides) if overrides else config


def _validate_rr_params(params: Mapping[str, Any]) -> None:
    _rr_config(params, None)


def _build_round_robin(
    params: Mapping[str, Any], context: Mapping[str, Any]
) -> "RoundRobinSelector":
    return RoundRobinSelector(
        config=_rr_config(params, context.get("c3_config")),
        rate_limited=bool(params.get("rate_limited", True)),
    )


@STRATEGIES.register(
    "RR",
    aliases=("ROUND_ROBIN",),
    params=RoundRobinParams,
    description="Round-robin ordering with C3's per-server rate limiting and backpressure",
    factory=_build_round_robin,
    validate=_validate_rr_params,
)
class RoundRobinSelector(ReplicaSelector):
    """Round-robin ordering with per-server rate limiting and backpressure.

    Parameters
    ----------
    config:
        C3 configuration (only the rate-control fields are used).
    rate_limited:
        When False the strategy degrades to plain round-robin with no
        backpressure (useful as a separate baseline and for ablations).
    """

    name = "RR"

    def __init__(self, config: C3Config | None = None, rate_limited: bool = True) -> None:
        self.config = config or C3Config()
        self.rate_limited = rate_limited
        self.rate_control = PerServerRateControl(self.config)
        self.backlog = BackpressureQueues()
        self._cursor: dict[frozenset, int] = {}
        self.requests_submitted = 0
        self.requests_backpressured = 0
        self.responses_received = 0

    # ------------------------------------------------------------------ order
    def _ordered(self, replica_group: tuple) -> list[Hashable]:
        key = frozenset(replica_group)
        start = self._cursor.get(key, 0) % len(replica_group)
        self._cursor[key] = start + 1
        return [replica_group[(start + i) % len(replica_group)] for i in range(len(replica_group))]

    def _try_place(self, replica_group: tuple, now: float) -> Hashable | None:
        for server_id in self._ordered(replica_group):
            if not self.rate_limited or self.rate_control.try_acquire(server_id, now):
                return server_id
        return None

    # ------------------------------------------------------------------ sends
    def submit(self, request: object, replica_group: Sequence[Hashable], now: float) -> SelectorDecision:
        group = tuple(replica_group)
        if not group:
            raise ValueError("replica_group must not be empty")
        self.requests_submitted += 1
        server_id = self._try_place(group, now)
        if server_id is not None:
            return SelectorDecision(server_id=server_id, backpressured=False)
        self.backlog.enqueue(request, group, now)
        self.requests_backpressured += 1
        retry = self.rate_control.earliest_availability(group, now)
        return SelectorDecision(server_id=None, backpressured=True, retry_after_ms=retry)

    # -------------------------------------------------------------- responses
    def on_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> list[tuple[object, Hashable]]:
        self.responses_received += 1
        if self.rate_limited:
            self.rate_control.on_response(server_id, now)
            return self.drain_backlog(now)
        return []

    # ---------------------------------------------------------------- backlog
    def drain_backlog(self, now: float) -> list[tuple[object, Hashable]]:
        if not self.rate_limited:
            return []

        def can_place(entry: BacklogEntry, at: float) -> Hashable | None:
            return self._try_place(entry.replica_group, at)

        released = self.backlog.drain_ready(now, can_place)
        return [(entry.request, chosen) for entry, chosen in released]

    def pending_backlog(self) -> int:
        return self.backlog.pending()

    def next_retry_ms(self, now: float) -> float | None:
        queues = self.backlog.nonempty_queues()
        if not queues:
            return None
        return min(
            self.rate_control.earliest_availability(tuple(q.group_key), now) for q in queues
        )

    def stats(self) -> dict:
        return {
            "submitted": self.requests_submitted,
            "backpressured": self.requests_backpressured,
            "responses": self.responses_received,
            "pending_backlog": self.pending_backlog(),
        }
