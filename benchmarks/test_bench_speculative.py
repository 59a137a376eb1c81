"""Benchmark regenerating the §5 speculative-retry comparison."""

from repro.experiments.common import ClusterScale

SCALE = ClusterScale(num_nodes=15, num_generators=60, duration_ms=2_000.0, seed=8)


def test_bench_speculative_retries(run_experiment_benchmark):
    result = run_experiment_benchmark("speculative", hedging="hedge:quantile=0.99", scale=SCALE)
    rows = {row[0]: row for row in result.rows}
    # Paper shape: speculation on top of DS does not rescue the tail (it
    # degraded latencies by up to 5x in the paper), while C3 needs no
    # reissues to beat both DS configurations at the 99th percentile.
    assert rows["C3"][3] < rows["DS"][3]
    assert rows["DS+spec"][3] >= rows["C3"][3]
    # Speculative retries actually fired in the DS+spec configuration.
    assert rows["DS+spec"][5] > 0
