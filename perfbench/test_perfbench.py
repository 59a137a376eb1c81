"""Fast checks of the benchmark itself, on tiny configurations."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench import workloads as wl
from perfbench.tracer import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TinyC3(wl.C3Object):
    name = "tiny-c3"  # no digests are recorded for it

    def config(self, unit_seed: int, **overrides):
        from repro.simulator.simulation import SimulationConfig

        return SimulationConfig(
            num_servers=9, num_clients=10, num_requests=self.requests, strategy="C3", seed=unit_seed,
            **overrides,
        )


class TinySweep(wl.FaultSweep):
    name = "tiny-sweep"  # no digests are recorded for it


class CappedC3(TinyC3):
    def config(self, unit_seed: int):
        return super().config(unit_seed, utilization=1.4, max_sim_time_ms=20.0)


def test_names_units_and_workloads_are_valid():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for workload in BENCHMARK["workloads"]:
        assert workload["name"] in wl.WORKLOADS and len(workload["why"]) <= 200
        assert workload["name"] in wl.MANIFEST["workloads"]
    grouped = [name for group in wl.MANIFEST["layer_groups"] for name in group["metrics"]]
    assert sorted(grouped) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for group in wl.MANIFEST["layer_groups"]:
        assert set(group["on"] + group["flat_on"]) <= set(names)
        assert set(group["moves"]) <= {m["name"] for m in BENCHMARK["end_to_end"]}


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    monkeypatch.setitem(wl.WORKLOADS, "c3-object", TinyC3(requests=400, units=2))
    assert bench_run.main(["--workload", "c3-object", "--seed", "3", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 800
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_capped_run_counts_failures_and_fails_the_command(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    capped = CappedC3(requests=2000, units=1)
    run = capped.run_unit(5)
    assert wl.failed_frac(run.requests, run.completed) > 0
    assert any("time cap" in e for e in run.errors)
    monkeypatch.setitem(wl.WORKLOADS, "c3-object", capped)
    assert bench_run.main(["--workload", "c3-object", "--seed", "5", "--seconds", "0.01"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_tampered_digest_fails_the_check(monkeypatch, tmp_path):
    tiny = TinyC3(requests=300, units=1)
    clean = tiny.measure(seed=4, seconds=0.01, out_dir=tmp_path)
    assert not clean.errors
    assert not wl.check_recorded_digest("tiny-c3", 4, clean.digest, {"tiny-c3": {"4": clean.digest}})
    tampered = {"tiny-c3": {"4": clean.digest[:-1] + ("0" if clean.digest[-1] != "0" else "1")}}
    assert wl.check_recorded_digest("tiny-c3", 4, clean.digest, tampered)
    monkeypatch.setitem(wl.MANIFEST, "digests", tampered)
    assert any("recorded" in e for e in tiny.measure(seed=4, seconds=0.01, out_dir=tmp_path).errors)


def test_layer_self_times_sum_to_the_traced_wall(tmp_path):
    outcome = TinyC3(requests=1500, units=1).trace(seed=2, seconds=1.0, out_dir=tmp_path)
    assert not outcome.errors
    explained = outcome.metrics["trace.explained_frac"][0]
    # Only the benchmark's own timing calls fall outside every span.
    assert 0.9 <= explained <= 1.0
    reported = {k: u for k, (_, u) in outcome.metrics.items()}
    assert all(reported.get(m["name"]) == m["unit"] for m in BENCHMARK["per_layer"])
    assert (tmp_path / "spans-0.npz").is_file()


def test_trace_fails_when_layers_explain_too_little(monkeypatch, tmp_path):
    monkeypatch.setattr(wl, "MIN_EXPLAINED_FRAC", 1.01)
    outcome = TinyC3(requests=300, units=1).trace(seed=2, seconds=0.01, out_dir=tmp_path)
    assert any("explain" in e for e in outcome.errors)


def test_tracer_self_time_is_span_minus_children_and_uninstalls():
    from repro.simulator import engine

    original = engine.EventLoop.run
    tracer = Tracer().install(["repro.simulator.engine", "repro.core.ewma"])
    assert engine.EventLoop.run is not original
    loop = engine.EventLoop()
    from repro.core.ewma import EWMA

    average = EWMA(0.5)
    for delay in range(5):
        loop.schedule(delay, average.update, float(delay))
    loop.run()
    tracer.uninstall()
    assert engine.EventLoop.run is original
    assert tracer.count("EWMA.update") == 5
    top_level = sum(
        e - s for s, e, parent in zip(tracer.span_start, tracer.span_end, tracer.span_parent) if parent < 0
    )
    assert sum(tracer.layer_self().values()) == pytest.approx(top_level, rel=1e-9, abs=1e-9)


def test_sweep_trace_matches_the_pooled_digest(tmp_path):
    sweep = TinySweep(requests=300, units=1)
    outcome = sweep.trace(seed=1, seconds=1.0, out_dir=tmp_path)
    assert not outcome.errors
    assert 0 < outcome.metrics["runner.pool_efficiency"][0] <= 1.0
    assert outcome.digest == wl.combine_digests([sweep.run_unit(100).digest])
