"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload c3-object --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload's units untraced, then the same units under the span tracer, and
prints every per-layer metric.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed.  Artifacts (spans, live
trial directories, the result) are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import WORKLOADS, peak_rss_mb

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose one of {', '.join(WORKLOADS)}")
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        outcome = workload.trace(args.seed, args.seconds, out_dir)
    else:
        outcome = workload.measure(args.seed, args.seconds, out_dir)
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    bad = [name for name, (value, _) in outcome.metrics.items() if not math.isfinite(value)]
    if bad:
        outcome.errors.append(f"non-finite metrics: {', '.join(bad)}")

    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{name:36s} {value:14.6g} {unit}")
    for name, value in sorted(outcome.notes.items()):
        print(f"  note {name:31s} {value:14.6g}")
    print(f"  digest {outcome.digest}")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not outcome.errors,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(outcome.metrics.items())},
    }
    (out_dir / "result.json").write_text(
        json.dumps(
            {**result, "digest": outcome.digest, "notes": outcome.notes, "errors": outcome.errors, "units": outcome.units},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
