"""Async load generator: the simulator's client loop over real TCP.

:class:`LiveLoadClient` drives the *identical* strategy/control registries
the simulator uses — the selector built from a canonical
:class:`~repro.strategies.StrategySpec`, the failure detector and
quantile-hedging policy from :class:`~repro.controls.ControlSpec`
strings — against live replica servers (:mod:`repro.live.server`):

- **Open-loop Poisson arrivals** exactly like the simulator's workload
  module: exponential inter-arrival gaps at a fixed rate, each arrival
  assigned a ring-placement replica group
  (:func:`~repro.simulator.workload.replica_groups`) uniformly at random.
- **Real feedback**: every response frame piggybacks the server's queue
  size and EWMA service time, which become the
  :class:`~repro.core.feedback.ServerFeedback` the selector's
  ``on_response`` sees — C3's scoring/EWMA/cubic rate control run
  unmodified.
- **Liveness + hedging**: responses double as detector heartbeats (the
  phi-accrual detector works off real silence); the hedging policy arms a
  per-request timer that fires a speculative duplicate to an unused
  replica, first response wins.

The wall clock is ``time.monotonic()`` in milliseconds **relative to
client construction**, so ``now`` values handed to selectors/detectors
start near zero and advance the way simulator time does.  (Absolute
monotonic values would also be *correct*, but the shared control-plane
components assume sim-style epochs — e.g. the CUBIC receive-rate tracker
rolls its 20 ms windows forward from t=0, which against an hours-large
first timestamp is hundreds of thousands of no-op window rolls.)
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..controls import ControlSpec
from ..core.feedback import ServerFeedback
from ..simulator.workload import replica_groups
from ..strategies import StrategySpec
from .protocol import ProtocolError, read_message, write_message

__all__ = ["LiveClientResult", "LiveLoadClient"]

#: Floor on backpressure retry sleeps, mirroring SimClient._MIN_RETRY_MS.
_MIN_RETRY_MS = 0.1
#: Retry cadence when every replica is suspect, mirroring _PARKED_RETRY_MS.
_PARKED_RETRY_MS = 5.0
#: How often the reaper scans for request timeouts (ms).
_REAPER_INTERVAL_MS = 50.0


@dataclass
class _Pending:
    """One in-flight wire request (primary or speculative duplicate)."""

    op_id: int
    server_id: int
    sent_ms: float
    deadline_ms: float


@dataclass
class _Operation:
    """One logical client operation (may fan out into hedged duplicates)."""

    op_id: int
    group: tuple[int, ...]
    kind: str
    created_ms: float
    done: bool = False
    used: set[int] = field(default_factory=set)
    hedges_fired: int = 0
    #: Server of the primary wire (``None`` until it is sent).
    primary_server: int | None = None
    #: Wires sent and neither answered nor expired yet.
    inflight: int = 0


@dataclass
class LiveClientResult:
    """Counters from one load-generation run."""

    issued: int = 0
    completed: int = 0
    timeouts: int = 0
    rejected: int = 0
    backpressure: int = 0
    parked: int = 0
    hedges_fired: int = 0
    hedges_won: int = 0
    sent_per_server: dict[int, int] = field(default_factory=dict)
    selector_stats: dict[str, Any] = field(default_factory=dict)


class LiveLoadClient:
    """Replay the simulator's client behavior against live servers."""

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        *,
        strategy: "str | StrategySpec" = "c3",
        failure_detector: "str | ControlSpec | None" = None,
        hedging: "str | ControlSpec | None" = None,
        replication_factor: int = 3,
        arrival_rate_per_s: float = 200.0,
        read_fraction: float = 1.0,
        request_timeout_ms: float = 2_000.0,
        seed: int = 0,
        on_complete: Callable[[float, float], None] | None = None,
    ) -> None:
        if not addresses:
            raise ValueError("need at least one server address")
        if arrival_rate_per_s <= 0:
            raise ValueError(f"arrival_rate_per_s must be positive, got {arrival_rate_per_s}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {read_fraction}")
        self.addresses = list(addresses)
        n = len(self.addresses)
        self.groups = replica_groups(n, replication_factor)
        self.rate_per_ms = arrival_rate_per_s / 1000.0
        self.read_fraction = float(read_fraction)
        self.request_timeout_ms = float(request_timeout_ms)
        #: ``on_complete(completed_at_ms, latency_ms)`` per finished op.
        self.on_complete = on_complete
        root = np.random.default_rng(seed)
        self._wl_rng, sel_rng, self._cli_rng = root.spawn(3)
        self.strategy_spec = StrategySpec.parse(strategy)
        self.selector = self.strategy_spec.build(rng=sel_rng)
        self.detector: Any = None
        if failure_detector is not None:
            spec = ControlSpec.parse(failure_detector, kind="detector")
            # Live servers expose no ground-truth liveness, so the binary
            # detector degrades to never-suspicious; phi is the real one.
            self.detector = spec.build(down_tracker=None, servers=None)
        self.hedging: Any = None
        if hedging is not None:
            self.hedging = ControlSpec.parse(hedging, kind="hedge").build()
        self.result = LiveClientResult(
            sent_per_server={sid: 0 for sid in range(n)},
        )
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._readers: list[asyncio.Task] = []
        self._ops: dict[int, _Operation] = {}
        self._pending: dict[int, _Pending] = {}
        self._next_id = 0
        self._stop = False
        self._parked: list[_Operation] = []
        self._retry_task: asyncio.Task | None = None
        self._parked_task: asyncio.Task | None = None
        self._epoch = time.monotonic()

    # --------------------------------------------------------------- clock
    def now_ms(self) -> float:
        """Milliseconds since this client was constructed (monotonic)."""
        return (time.monotonic() - self._epoch) * 1000.0

    _now_ms = now_ms

    # ---------------------------------------------------------- connection
    async def connect(self) -> None:
        for sid, (host, port) in enumerate(self.addresses):
            reader, writer = await asyncio.open_connection(host, port)
            self._writers[sid] = writer
            self._readers.append(
                asyncio.create_task(self._read_responses(sid, reader), name=f"read-{sid}")
            )

    async def close(self) -> None:
        self._stop = True
        tasks = list(self._readers)
        for extra in (self._retry_task, self._parked_task):
            if extra is not None:
                tasks.append(extra)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for writer in self._writers.values():
            if not writer.is_closing():
                writer.close()

    # ----------------------------------------------------------------- run
    async def run(self, duration_s: float, drain_grace_s: float | None = None) -> LiveClientResult:
        """Generate open-loop load for ``duration_s``, then drain in-flight."""
        reaper = asyncio.create_task(self._reap_timeouts(), name="reaper")
        deadline = self._now_ms() + duration_s * 1000.0
        wl = self._wl_rng
        inv_rate = 1.0 / self.rate_per_ms
        n_groups = len(self.groups)
        try:
            while not self._stop:
                gap_ms = float(wl.exponential(inv_rate))
                now = self._now_ms()
                if now + gap_ms >= deadline:
                    break
                await asyncio.sleep(gap_ms / 1000.0)
                group = self.groups[int(wl.integers(n_groups))]
                kind = "read" if wl.random() < self.read_fraction else "write"
                self._issue(group, kind)
            grace = self.request_timeout_ms / 1000.0 if drain_grace_s is None else drain_grace_s
            drain_until = self._now_ms() + grace * 1000.0
            while self._pending and self._now_ms() < drain_until:
                await asyncio.sleep(0.01)
        finally:
            self._stop = True
            reaper.cancel()
            await asyncio.gather(reaper, return_exceptions=True)
        self.result.selector_stats = dict(self.selector.stats())
        return self.result

    # --------------------------------------------------------------- issue
    def _issue(self, group: tuple[int, ...], kind: str) -> None:
        now = self._now_ms()
        op_id = self._next_id
        self._next_id += 1
        op = _Operation(op_id=op_id, group=group, kind=kind, created_ms=now)
        self._ops[op_id] = op
        self.result.issued += 1
        self._submit(op, now)

    def _submit(self, op: _Operation, now: float) -> None:
        candidates: Sequence[int] = op.group
        if self.detector is not None and self.detector.suspicious():
            live = tuple(s for s in candidates if self.detector.is_alive(s, now))
            if not live:
                self._park(op)
                return
            candidates = live
        decision = self.selector.submit(op.op_id, candidates, now)
        if decision.server_id is None:
            # The selector holds the request in its own backlog (C3's
            # submit enqueues on backpressure); only schedule the drain.
            self.result.backpressure += 1
            self._schedule_retry(decision.retry_after_ms)
            return
        self._send(op, int(decision.server_id), now, primary=True)

    def _park(self, op: _Operation) -> None:
        """Every replica is suspect: hold the op until a retry tick."""
        self.result.parked += 1
        self._parked.append(op)
        if self._parked_task is None or self._parked_task.done():
            self._parked_task = asyncio.ensure_future(self._retry_parked())

    async def _retry_parked(self) -> None:
        await asyncio.sleep(_PARKED_RETRY_MS / 1000.0)
        if self._stop:
            return
        parked, self._parked = self._parked, []
        now = self._now_ms()
        for op in parked:
            if not op.done:
                self._submit(op, now)

    def _schedule_retry(self, delay_ms: float) -> None:
        if self._retry_task is not None and not self._retry_task.done():
            return
        self._retry_task = asyncio.ensure_future(self._retry_backlog(max(delay_ms, _MIN_RETRY_MS)))

    async def _retry_backlog(self, delay_ms: float) -> None:
        await asyncio.sleep(delay_ms / 1000.0)
        if self._stop:
            return
        now = self._now_ms()
        released = self.selector.drain_backlog(now)
        for request, server_id in released:
            op = self._ops.get(int(request))  # type: ignore[arg-type]
            if op is not None and not op.done:
                self._send(op, int(server_id), now, primary=True)
        if self.selector.pending_backlog():
            retry = self.selector.next_retry_ms(now)
            self._retry_task = None
            self._schedule_retry(retry if retry is not None else 1.0)

    def _send(self, op: _Operation, server_id: int, now: float, *, primary: bool) -> None:
        writer = self._writers[server_id]
        if writer.is_closing():
            self.selector.on_timeout(server_id, now)
            return
        wire_id = self._next_id
        self._next_id += 1
        op.used.add(server_id)
        op.inflight += 1
        if primary:
            op.primary_server = server_id
        self._pending[wire_id] = _Pending(
            op_id=op.op_id,
            server_id=server_id,
            sent_ms=now,
            deadline_ms=now + self.request_timeout_ms,
        )
        self.result.sent_per_server[server_id] = self.result.sent_per_server.get(server_id, 0) + 1
        write_message(writer, {"t": "req", "id": wire_id, "kind": op.kind})
        # No await here: StreamWriter.write buffers; the event loop flushes.
        if primary and op.kind == "read":
            self._maybe_hedge(op)

    # -------------------------------------------------------------- hedging
    def _maybe_hedge(self, op: _Operation) -> None:
        policy = self.hedging
        if policy is None or op.hedges_fired >= policy.max_extra:
            return
        threshold = policy.threshold_ms()
        if threshold is None:
            return

        async def _fire() -> None:
            await asyncio.sleep(threshold / 1000.0)
            if self._stop or op.done:
                return
            now = self._now_ms()
            candidates = [s for s in op.group if s not in op.used]
            if self.detector is not None and self.detector.suspicious():
                candidates = [s for s in candidates if self.detector.is_alive(s, now)]
            if not candidates:
                return
            target = candidates[int(self._cli_rng.integers(len(candidates)))]
            op.hedges_fired += 1
            self.result.hedges_fired += 1
            self.selector.on_duplicate_send(target, now)
            self._send(op, target, now, primary=False)
            self._maybe_hedge(op)

        asyncio.ensure_future(_fire())

    # ------------------------------------------------------------ responses
    async def _read_responses(self, server_id: int, reader: asyncio.StreamReader) -> None:
        while True:
            try:
                message = await read_message(reader)
            except (ProtocolError, ConnectionError):
                return
            if message is None:
                return
            if message.get("t") == "res":
                self._on_response(message)

    def _on_response(self, message: dict) -> None:
        now = self._now_ms()
        wire_id = int(message["id"])
        pending = self._pending.pop(wire_id, None)
        if pending is None:
            return  # already timed out
        sid = pending.server_id
        op = self._ops.get(pending.op_id)
        if op is not None:
            op.inflight -= 1
        if self.detector is not None:
            self.detector.heartbeat(sid, now)
        if message.get("rejected"):
            # Never serviced: release the selector's outstanding slot but
            # record no feedback-driven EWMA fold or latency.
            self.result.rejected += 1
            self.selector.on_timeout(sid, now)
            return
        feedback = ServerFeedback(
            queue_size=int(message["queue_size"]),
            service_time=float(message["service_time_ms"]),
            server_id=sid,
        )
        response_time = now - pending.sent_ms
        released = self.selector.on_response(sid, feedback, response_time, now)
        if op is not None and not op.done:
            op.done = True
            self.result.completed += 1
            if op.hedges_fired and sid != op.primary_server:
                self.result.hedges_won += 1
            if self.hedging is not None and op.kind == "read":
                self.hedging.record(now - op.created_ms)
            if self.on_complete is not None:
                self.on_complete(now, now - op.created_ms)
            self._ops.pop(op.op_id, None)
        for request, server_id in released:
            released_op = self._ops.get(int(request))  # type: ignore[arg-type]
            if released_op is not None and not released_op.done:
                self._send(released_op, int(server_id), now, primary=True)

    # -------------------------------------------------------------- reaper
    async def _reap_timeouts(self) -> None:
        while not self._stop:
            await asyncio.sleep(_REAPER_INTERVAL_MS / 1000.0)
            self._reap(self._now_ms())

    def _reap(self, now: float) -> None:
        """Expire every wire past its deadline; an op times out with its last wire."""
        expired = [wid for wid, p in self._pending.items() if p.deadline_ms <= now]
        for wire_id in expired:
            pending = self._pending.pop(wire_id)
            self.selector.on_timeout(pending.server_id, now)
            op = self._ops.get(pending.op_id)
            if op is None or op.done:
                continue
            op.inflight -= 1
            if not op.inflight:
                op.done = True
                self.result.timeouts += 1
                self._ops.pop(op.op_id, None)
