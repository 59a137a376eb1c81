"""The benchmark workloads and the checks on their outputs.

Each workload runs from one seed and returns an :class:`Outcome`: the
end-to-end metrics of an untraced run, or the per-layer metrics of a traced
run, plus the output-check errors.  The simulator workloads run ``units``
distinct seeded units back to back (latency is pooled over them, so it is a
pure function of the seed), then repeat them until the time budget is spent;
throughput is the median unit rate, scaled to a reference host speed.  The
live workload runs a few open-loop trials against local server processes.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFEST = json.loads((Path(__file__).resolve().parent / "manifest.json").read_text(encoding="utf-8"))

#: Set-up (a fresh-interpreter import plus the build) is timed before every
#: third unit, up to this many times; ``setup_s`` is their median.
SETUP_SAMPLES = 8

#: The reference probe speed, in events per second.  Host times are scaled
#: to a host on which :func:`probe_rate` runs this fast; on a 2-vCPU
#: Sapphire Rapids KVM guest it measured 0.8-1.2 million.
PROBE_NOMINAL = 700_000.0

#: A traced simulator run fails when the layers' self times explain less
#: than this share of its wall time.
MIN_EXPLAINED_FRAC = 0.90


@dataclass
class Outcome:
    """What one run measured and whether its outputs were correct."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    notes: dict[str, float] = field(default_factory=dict)
    units: list[dict] = field(default_factory=list)


# --------------------------------------------------------------- measuring
def probe_rate(events: int = 6000) -> float:
    """Events per second of a fixed pure-Python event loop (a few ms).

    Other tenants slow this class of host by up to 1.9x, for seconds or for
    longer than a run, and a probe run next to a unit slows with it (a
    dict-based variant tracked 340 consecutive units with correlation
    0.81).  Host times are divided by the probe's slowdown; the probe
    touches no ``repro`` code, so a change to the program cannot move it.
    """
    loads = [0] * 50
    ewma = [1.0] * 50
    heap = [(0.0, 0, 0)]
    seq, x = 1, 12345
    started = time.perf_counter()
    for _ in range(events):
        t, _, node = heapq.heappop(heap)
        loads[node] += 1
        ewma[node] = 0.9 * ewma[node] + 0.1 * t
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (t + (x % 1000) / 100.0, seq, x % 50))
        seq += 1
        if len(heap) < 64:
            heapq.heappush(heap, (t + 1.0, seq, (x >> 8) % 50))
            seq += 1
    return events / (time.perf_counter() - started)


def import_seconds(module: str) -> float:
    """Wall time to import ``module`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def cpu_seconds(who: int) -> float:
    """User + system CPU of this process or (``RUSAGE_CHILDREN``) its reaped children."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def combine_digests(digests: list[str]) -> str:
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode())
    return h.hexdigest()


def check_recorded_digest(workload: str, seed: int, digest: str, recorded: dict | None = None) -> list[str]:
    """An error if ``recorded`` (default: the manifest) holds another digest for this seed."""
    expected = (MANIFEST["digests"] if recorded is None else recorded).get(workload, {}).get(str(seed))
    if expected is not None and expected != digest:
        return [f"result digest {digest[:16]} differs from the recorded {expected[:16]} for seed {seed}"]
    return []


# ------------------------------------------------------------------ checks
def check_sim(result, config) -> list[str]:
    """Every requested op issued and completed, uncapped, nothing left over."""
    errors = []
    requested = config.num_requests
    if result.issued_requests != requested or result.completed_requests != requested:
        errors.append(
            f"seed {config.seed}: issued {result.issued_requests}, completed "
            f"{result.completed_requests}, requested {requested}"
        )
    if result.duration_ms >= config.max_sim_time_ms:
        errors.append(f"seed {config.seed}: run hit the {config.max_sim_time_ms} ms time cap")
    for key in ("backlog_remaining", "parked_remaining"):
        if result.extra.get(key, 0):
            errors.append(f"seed {config.seed}: {result.extra[key]} ops {key.replace('_', ' ')}")
    return errors


def check_sweep(result, spec) -> list[str]:
    """A complete sweep whose every trial passes the per-run checks."""
    errors = [] if result.complete else [f"sweep incomplete: {len(result.trials)}/{result.total_trials}"]
    requested = spec.base.num_requests
    for trial in result.trials:
        if trial.issued_requests != requested or trial.completed_requests != requested:
            errors.append(
                f"trial {trial.strategy} seed {trial.seed}: issued {trial.issued_requests}, "
                f"completed {trial.completed_requests}, requested {requested}"
            )
        if trial.duration_ms >= spec.base.max_sim_time_ms:
            errors.append(f"trial {trial.strategy} seed {trial.seed}: hit the time cap")
    return errors


def failed_frac(issued: int, completed: int) -> float:
    """Share of issued ops that did not complete (a capped run counts)."""
    return (issued - completed) / issued if issued else 1.0


# --------------------------------------------------------------- sim units
@dataclass
class UnitRun:
    """One executed unit: a simulation or a whole sweep."""

    requests: int
    completed: int
    build_s: float
    wall_s: float
    serial_s: float  # the run time one process would need (sweeps: summed trial walls)
    digest: str
    errors: list[str]
    latency: object  # exact latencies, a histogram, or trial summaries
    host_speed: float = 1.0  # probe speed around the run over PROBE_NOMINAL


class SimWorkload:
    """A workload of seeded simulator units, repeated for the time budget."""

    name = ""
    import_module = "repro.simulator.simulation"

    def __init__(self, requests: int, units: int) -> None:
        self.requests = requests
        self.units = units

    def unit_seeds(self, seed: int) -> list[int]:
        return [seed * 100 + i for i in range(self.units)]

    def run_unit(self, unit_seed: int) -> UnitRun:
        raise NotImplementedError

    def untraced_unit(self, unit_seed: int) -> UnitRun:
        """The untraced counterpart a traced unit's digest is checked against."""
        return self.run_unit(unit_seed)

    def pooled_latency(self, runs: list[UnitRun]) -> dict[str, float]:
        """p50/p99/p99.9 (ms) over the distinct units."""
        raise NotImplementedError

    def pool_efficiency(self, runs: list[UnitRun]) -> float:
        return 0.0

    def measure(self, seed: int, seconds: float, out_dir: Path) -> Outcome:
        outcome = Outcome()
        seeds = self.unit_seeds(seed)
        runs: list[UnitRun] = []
        setups: list[float] = []
        started = time.perf_counter()
        # Every distinct unit runs once; repeats fill the rest of the budget
        # while the next one is expected to fit.
        while len(runs) < len(seeds) or (
            time.perf_counter() - started + statistics.median(r.build_s + r.wall_s for r in runs) <= seconds
        ):
            unit_seed = seeds[len(runs) % len(seeds)]
            sample_setup = len(runs) % 3 == 0 and len(setups) < SETUP_SAMPLES
            gc.collect()
            before = probe_rate()
            import_s = import_seconds(self.import_module) if sample_setup else None
            run = self.run_unit(unit_seed)
            run.host_speed = (before + probe_rate()) / 2 / PROBE_NOMINAL
            if import_s is not None:
                setups.append((import_s + run.build_s) * run.host_speed)
            outcome.errors += run.errors
            if len(runs) >= len(seeds) and runs[len(runs) - len(seeds)].digest != run.digest:
                outcome.errors.append(f"the repeat of unit seed {unit_seed} changed its digest")
            runs.append(run)
        outcome.units = [
            {"seed": seeds[i % len(seeds)], "rps": r.completed / r.wall_s, "host_speed": r.host_speed}
            for i, r in enumerate(runs)
        ]
        distinct = runs[: len(seeds)]
        outcome.digest = combine_digests([r.digest for r in distinct])
        outcome.errors += check_recorded_digest(self.name, seed, outcome.digest)
        outcome.attempted = sum(r.requests for r in runs)
        outcome.failed = sum(r.requests - r.completed for r in runs)
        latency = self.pooled_latency(distinct)
        # Each unit's rate is scaled by the probe's slowdown around it.  Over
        # ten seeds the scaled median spread 4-6% (IQR/median) on c3-object
        # and lor-batched-stream, where the raw median spread 10-27%.
        rates = [r.completed / r.wall_s for r in runs]
        outcome.metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_rps": (statistics.median(rate / r.host_speed for rate, r in zip(rates, runs)), "1/s"),
            "p99_ms": (latency["p99"], "ms"),
        }
        outcome.notes = {
            "units_run": len(runs),
            "throughput_rps_raw_median": statistics.median(rates),
            "throughput_rps_raw_fastest": max(rates),
            "host_speed_median": statistics.median(r.host_speed for r in runs),
            "failed_frac": failed_frac(outcome.attempted, outcome.attempted - outcome.failed),
            "p50_ms": latency["p50"],
            "p999_ms": latency["p999"],
        }
        return outcome

    def trace(self, seed: int, seconds: float, out_dir: Path) -> Outcome:
        """Every distinct unit untraced (their combined digest is checked
        against the recorded one), then as many of the same units as
        ``seconds`` allows, serially, under the tracer; each traced digest
        must equal its untraced digest."""
        outcome = Outcome()
        seeds = self.unit_seeds(seed)
        plain = [self.untraced_unit(unit_seed) for unit_seed in seeds]
        outcome.errors += check_recorded_digest(self.name, seed, combine_digests([r.digest for r in plain]))
        traced: list[UnitRun] = []
        observed: dict[str, int] = {}
        tracer = Tracer().install()
        uninstall_observer = observe_simulations(observed)
        started = time.perf_counter()
        try:
            while not traced or (len(traced) < len(seeds) and time.perf_counter() - started < seconds):
                traced.append(self.run_unit(seeds[len(traced)]))
                tracer.flush_spans(out_dir / f"spans-{len(traced) - 1}.npz")
        finally:
            uninstall_observer()
            tracer.uninstall()
        outcome.errors += [e for run in plain + traced for e in run.errors]
        for unit_seed, untraced, run in zip(seeds, plain, traced):
            if run.digest != untraced.digest:
                outcome.errors.append(f"unit seed {unit_seed}: traced digest differs from the untraced digest")
        outcome.digest = combine_digests([r.digest for r in traced])
        outcome.attempted = sum(r.requests for r in plain + traced)
        outcome.failed = outcome.attempted - sum(r.completed for r in plain + traced)
        outcome.metrics = layer_metrics(
            tracer,
            observed,
            sum(r.completed for r in traced),
            sum(r.build_s + r.wall_s for r in traced),
            sum(r.build_s + r.serial_s for r in plain[: len(traced)]),
        )
        outcome.metrics["runner.pool_efficiency"] = (self.pool_efficiency(plain), "ratio")
        explained = outcome.metrics["trace.explained_frac"][0]
        if explained < MIN_EXPLAINED_FRAC:
            outcome.errors.append(f"layer self times explain {explained:.3f} of the traced wall, under {MIN_EXPLAINED_FRAC}")
        return outcome


class C3Object(SimWorkload):
    """The paper's §6 configuration: C3 on the object kernel, exact metrics."""

    name = "c3-object"

    def config(self, unit_seed: int):
        from repro.simulator.simulation import SimulationConfig

        return SimulationConfig(num_requests=self.requests, strategy="C3", seed=unit_seed)

    def run_unit(self, unit_seed: int) -> UnitRun:
        return run_simulation_unit(self.config(unit_seed), lambda r: r.latencies_ms)

    def pooled_latency(self, runs: list[UnitRun]) -> dict[str, float]:
        pooled = np.concatenate([r.latency for r in runs])
        p50, p99, p999 = np.percentile(pooled, [50, 99, 99.9])
        return {"p50": float(p50), "p99": float(p99), "p999": float(p999)}


class LorBatchedStream(SimWorkload):
    """LOR on the batched kernel with block draws and streaming metrics."""

    name = "lor-batched-stream"

    def config(self, unit_seed: int):
        from repro.simulator.simulation import SimulationConfig

        return SimulationConfig(
            num_requests=self.requests, strategy="LOR", kernel="batched", rng="block",
            metrics_mode="streaming", seed=unit_seed,
        )

    def run_unit(self, unit_seed: int) -> UnitRun:
        return run_simulation_unit(self.config(unit_seed), lambda r: r.latency_histogram)

    def pooled_latency(self, runs: list[UnitRun]) -> dict[str, float]:
        from repro.analysis.histogram import merge_histograms

        pooled = merge_histograms(r.latency for r in runs)
        return {q: float(pooled.quantile(v)) for q, v in (("p50", 0.5), ("p99", 0.99), ("p999", 0.999))}


def run_simulation_unit(config, latency_of: Callable) -> UnitRun:
    """Build, run and check one simulation, timing each part."""
    from repro.simulator.simulation import ReplicaSelectionSimulation

    t0 = time.perf_counter()
    sim = ReplicaSelectionSimulation(config)
    t1 = time.perf_counter()
    result = sim.run()
    digest = result.digest()
    t2 = time.perf_counter()
    return UnitRun(
        requests=config.num_requests,
        completed=result.completed_requests,
        build_s=t1 - t0,
        wall_s=t2 - t1,
        serial_s=t2 - t1,
        digest=digest,
        errors=check_sim(result, config),
        latency=latency_of(result),
    )


class FaultSweep(SimWorkload):
    """An uncached sweep over strategies under gc-storm with phi detection and hedging.

    Each unit is one :class:`SweepRunner` sweep over C3, LOR and P2C.  The
    timed units run in this process (``max_workers=1``): a two-worker pool
    on a two-core host held too few units per run to be steady.  The traced
    run's untraced pass runs each sweep on a two-worker pool instead, so its
    digests check pooled against serial and it reports the pool's efficiency.
    """

    name = "fault-sweep"
    import_module = "repro.runner"
    strategies = ("C3", "LOR", "P2C")
    pool_workers = 2

    def spec(self, unit_seed: int):
        from repro.runner import SweepSpec
        from repro.simulator.simulation import SimulationConfig

        base = SimulationConfig(
            num_requests=self.requests, scenario="gc-storm", failure_detector="phi:threshold=8",
            hedging="hedge:quantile=0.95", read_fraction=0.8,
        )
        return SweepSpec(base=base, grid={"strategy": self.strategies}, seeds=(unit_seed,))

    def run_unit(self, unit_seed: int, workers: int = 1) -> UnitRun:
        """One uncached sweep on ``workers`` processes (1: in this process)."""
        from repro.runner import SweepRunner

        t0 = time.perf_counter()
        spec = self.spec(unit_seed)
        spec.trials()
        runner = SweepRunner(max_workers=workers, cache_dir=None)
        t1 = time.perf_counter()
        result = runner.run(spec)
        digest = result.digest()
        t2 = time.perf_counter()
        return UnitRun(
            requests=spec.num_trials * self.requests,
            completed=sum(t.completed_requests for t in result.trials),
            build_s=t1 - t0,
            wall_s=t2 - t1,
            serial_s=sum(t.wall_time_s for t in result.trials),
            digest=digest,
            errors=check_sweep(result, spec),
            latency=[t.summary for t in result.trials],
        )

    def untraced_unit(self, unit_seed: int) -> UnitRun:
        return self.run_unit(unit_seed, workers=self.pool_workers)

    def pooled_latency(self, runs: list[UnitRun]) -> dict[str, float]:
        # Exact-mode trials keep summaries only: the mean over every trial.
        summaries = [s for r in runs for s in r.latency]
        return {q: statistics.fmean(s[key] for s in summaries)
                for q, key in (("p50", "median"), ("p99", "p99"), ("p999", "p99.9"))}

    def pool_efficiency(self, runs: list[UnitRun]) -> float:
        """Busy share of the pool: trial time over wall time x workers."""
        return sum(r.serial_s for r in runs) / (sum(r.wall_s for r in runs) * self.pool_workers)


# -------------------------------------------------------------- live trials
class LiveLor:
    """Open-loop live trials of LOR against local replica server processes.

    LOR rather than C3: C3's live backlog strands operations in some trials
    (see manifest.json), which makes its figures unsteady.
    """

    name = "live-lor"
    import_module = "repro.live.harness"
    strategy = "LOR"
    rate = 200.0
    servers = 2
    trials = 3
    #: Per-trial wall time beyond ``duration_s``: spawning and stopping servers.
    trial_overhead_s = 1.2

    def config(self, seed: int, duration_s: float):
        from repro.live.harness import LiveTrialConfig

        return LiveTrialConfig(
            strategy=self.strategy, num_servers=self.servers, replication_factor=self.servers,
            scenario="baseline", arrival_rate_per_s=self.rate, duration_s=duration_s,
            warmup_s=1.0, cooldown_s=0.5, seed=seed,
        )

    def trial(self, seed: int, duration_s: float, out_dir: Path) -> dict:
        """Run one trial, re-validate its artifacts and account for every op."""
        from repro.live import harness
        from repro.live.compare import load_trial

        spawns: list[float] = []
        spawn_server = harness._spawn_server

        async def timed_spawn(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return await spawn_server(*args, **kwargs)
            finally:
                spawns.append(time.perf_counter() - t0)

        harness._spawn_server = timed_spawn
        own0 = cpu_seconds(resource.RUSAGE_SELF)
        kids0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            harness.run_trial(self.config(seed, duration_s), out_dir)
        finally:
            harness._spawn_server = spawn_server
        client_cpu_s = cpu_seconds(resource.RUSAGE_SELF) - own0
        server_cpu_s = cpu_seconds(resource.RUSAGE_CHILDREN) - kids0
        loaded = load_trial(out_dir)
        wall = time.perf_counter() - t0
        res = loaded.payload["results"]
        issued, completed = res["issued"], res["completed"]
        errors = []
        if loaded.histogram.count != res["trimmed_count"]:
            errors.append(f"seed {seed}: histogram holds {loaded.histogram.count} of {res['trimmed_count']} samples")
        if completed < 1:
            errors.append(f"seed {seed}: no operation completed")
        return {
            "issued": issued,
            "completed": completed,
            "timeouts": res["timeouts"],
            "unaccounted": issued - completed - res["timeouts"] - res["rejected"],
            "achieved_rps": res["throughput_rps"],
            "histogram": loaded.histogram,
            "client_cpu_s": client_cpu_s,
            "server_cpu_s": server_cpu_s,
            "spawns": spawns,
            "wall_s": wall,
            "digest": loaded.payload["digest"],
            "errors": errors,
        }

    def measure(self, seed: int, seconds: float, out_dir: Path) -> Outcome:
        from repro.analysis.histogram import merge_histograms

        trials, imports, spawns = [], [], []
        per_trial = seconds / self.trials
        for i in range(self.trials):
            # Set-up is a fresh-interpreter import plus one spawn per server,
            # each sampled six times per run.  It is not scaled by the probe:
            # subprocess start-up does not follow the probe's speed (scaling
            # widened its spread over five seeds from 0.12 to 0.16).
            imports += [import_seconds(self.import_module) for _ in range(2)]
            duration = max(3.0, per_trial - imports[-1] - imports[-2] - self.trial_overhead_s)
            t = self.trial(seed * self.trials + i, duration, out_dir / f"trial-{i}")
            spawns += t["spawns"]
            trials.append(t)
        issued = sum(t["issued"] for t in trials)
        completed = sum(t["completed"] for t in trials)
        outcome = Outcome(attempted=issued, failed=issued - completed)
        outcome.errors = [e for t in trials for e in t["errors"]]
        outcome.digest = combine_digests([t["digest"] for t in trials])
        pooled = merge_histograms(t["histogram"] for t in trials)
        achieved = statistics.median(t["achieved_rps"] for t in trials)
        outcome.metrics = {
            "setup_s": (statistics.median(imports) + self.servers * statistics.median(spawns), "s"),
            "throughput_rps": (achieved, "1/s"),
            "p99_ms": (float(pooled.quantile(0.99)), "ms"),
        }
        outcome.notes = {
            "failed_frac": failed_frac(issued, completed),
            "unaccounted": sum(t["unaccounted"] for t in trials),
            "timeouts": sum(t["timeouts"] for t in trials),
            "achieved_ratio": achieved / self.rate,
            "p50_ms": float(pooled.quantile(0.5)),
            "client_cpu_us_per_req": 1e6 * sum(t["client_cpu_s"] for t in trials) / max(completed, 1),
        }
        return outcome

    def trace(self, seed: int, seconds: float, out_dir: Path) -> Outcome:
        """One untraced and one traced trial of the same seed."""
        duration = max(3.0, seconds / 2 - self.trial_overhead_s)
        plain = self.trial(seed * self.trials, duration, out_dir / "untraced")
        tracer = Tracer().install()
        try:
            traced = self.trial(seed * self.trials, duration, out_dir / "traced")
        finally:
            tracer.uninstall()
        tracer.flush_spans(out_dir / "spans.npz")
        outcome = Outcome(errors=plain["errors"] + traced["errors"])
        outcome.attempted = plain["issued"] + traced["issued"]
        outcome.failed = outcome.attempted - plain["completed"] - traced["completed"]
        outcome.digest = traced["digest"]
        outcome.metrics = layer_metrics(tracer, {}, traced["completed"], traced["wall_s"], None)
        # The trial length fixes the wall time, so the tracing overhead is
        # the ratio of client CPU per completed op.
        outcome.metrics["trace.overhead_ratio"] = (
            (traced["client_cpu_s"] / traced["completed"]) / (plain["client_cpu_s"] / plain["completed"]),
            "ratio",
        )
        outcome.metrics.update({
            "live.spawn_s": (sum(traced["spawns"]), "s"),
            "live.client_cpu_s": (traced["client_cpu_s"], "s"),
            "live.server_cpu_us_per_req": (1e6 * traced["server_cpu_s"] / traced["completed"], "us"),
            "live.unaccounted": (float(traced["unaccounted"]), "count"),
            "live.timeouts": (float(traced["timeouts"]), "count"),
            "live.latency_samples": (float(traced["histogram"].count), "count"),
        })
        return outcome


# ---------------------------------------------------------- layer metrics
SELF_TIME_LAYERS = (
    "engine", "kernel", "workload", "histogram", "client", "controls", "server", "network",
    "metrics", "scenarios", "strategies", "core.scoring", "core.rate_control", "core.ewma",
    "core.scheduler",
)

#: Measured only by the live workload; every other traced run reports 0.
LIVE_METRICS = (
    ("live.spawn_s", "s"), ("live.client_cpu_s", "s"), ("live.server_cpu_us_per_req", "us"),
    ("live.unaccounted", "count"), ("live.timeouts", "count"), ("live.latency_samples", "count"),
)


def observe_simulations(observed: dict[str, int]) -> Callable[[], None]:
    """Sum client counters and loop events of every simulation that runs."""
    from repro.simulator.simulation import ReplicaSelectionSimulation

    run = ReplicaSelectionSimulation.run

    def observed_run(sim):
        result = run(sim)
        for client in sim.clients:
            stats = client.stats()
            for key in ("requests_parked", "hedges_fired", "hedges_won"):
                observed[key] = observed.get(key, 0) + stats[key]
        observed["events"] = observed.get("events", 0) + sim.loop.processed_events
        observed["duplicates"] = observed.get("duplicates", 0) + result.duplicate_requests
        observed["backpressure"] = observed.get("backpressure", 0) + result.backpressure_events
        return result

    ReplicaSelectionSimulation.run = observed_run

    def uninstall() -> None:
        ReplicaSelectionSimulation.run = run

    return uninstall


def layer_metrics(
    tracer: Tracer, observed: dict[str, int], completed: int, traced_wall: float, plain_wall: float | None
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; the workload overrides the ones only it measures."""
    self_s = tracer.layer_self()
    per_req = max(completed, 1)
    acquires = tracer.count("CubicRateController.try_acquire")
    refused = tracer.false_count("CubicRateController.try_acquire")
    fired = observed.get("hedges_fired", 0)
    metrics: dict[str, tuple[float, str]] = {f"{layer}.self_s": (self_s[layer], "s") for layer in SELF_TIME_LAYERS}
    metrics.update({
        "strategies.backpressure_per_req": (observed.get("backpressure", 0) / per_req, "1/req"),
        "core.rate_control.refused_ratio": (refused / acquires if acquires else 0.0, "ratio"),
        "core.ewma.updates_per_req": (tracer.count("EWMA.update") / per_req, "1/req"),
        "engine.events_per_req": (observed.get("events", 0) / per_req, "1/req"),
        "client.duplicates_per_req": (observed.get("duplicates", 0) / per_req, "1/req"),
        "client.hedge_won_ratio": (observed.get("hedges_won", 0) / fired if fired else 0.0, "ratio"),
        "client.parked": (float(observed.get("requests_parked", 0)), "count"),
        "metrics.result_s": (
            tracer.inclusive_time("MetricsCollector.result") + tracer.inclusive_time("SimulationResult.digest"),
            "s",
        ),
        "runner.pool_efficiency": (0.0, "ratio"),
        "runner.overhead_s": (self_s["runner"], "s"),
        "runner.payload_s": (self_s["runner.payload"], "s"),
        "runner.aggregate_s": (self_s["runner.aggregate"], "s"),
        "trace.explained_frac": (sum(self_s.values()) / traced_wall, "ratio"),
        "trace.overhead_ratio": (traced_wall / plain_wall if plain_wall else 0.0, "ratio"),
    })
    metrics.update({name: (0.0, unit) for name, unit in LIVE_METRICS})
    return metrics


WORKLOADS = {
    "c3-object": C3Object(requests=10_000, units=12),
    "lor-batched-stream": LorBatchedStream(requests=20_000, units=40),
    "fault-sweep": FaultSweep(requests=10_000, units=8),
    "live-lor": LiveLor(),
}
