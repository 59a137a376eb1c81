"""The repository benchmark: workloads, span tracer and output checks.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; ``manifest.json`` describes each workload
and maps every per-layer metric to the end-to-end metric it should move.
"""
