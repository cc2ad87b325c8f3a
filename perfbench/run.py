"""pktm benchmark.

    python3 perfbench/run.py --workload migrate_mp --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the pktm under ``src/`` is the one
measured, in this process and in every worker it spawns.  Standard output
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment.  Scratch files
go to ``perfbench/work/``; ``--trace 1`` leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"


def use_checkout_source() -> None:
    """Import pktm from this checkout, here and in spawned workers."""
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pktm" / "__init__.py").is_file():
        print(f"perfbench: no pktm sources under {SRC}", file=sys.stderr)
        return 2
    use_checkout_source()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    env = harness.environment(SRC)
    if not Path(env["pktm_file"]).resolve().is_relative_to(SRC):
        print(f"perfbench: imported pktm from {env['pktm_file']}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](workloads.Scale.full())
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-s{args.seed}.json"
            tally, metrics = harness.measure_traced(
                workload, args.seed, args.seconds, work, trace_path)
        else:
            tally, metrics = harness.measure(
                workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in tally.reasons:
        print(f"perfbench: failed job: {reason}", file=sys.stderr)
    print(json.dumps({"env": {**env, "workload": args.workload,
                              "seed": args.seed}}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
