"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_closed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the hop-by-hop ledger and reports per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("hot_closed", "sweep_batch")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import procs, workloads

    scratch = procs.scratch_dir(f"{args.workload}-{args.seed}-")
    tempfile.tempdir = str(scratch)  # temporary files stay in the checkout
    try:
        if args.trace:
            from perfbench import ledger

            outcome = ledger.run(args.workload, args.seed, scratch)
        else:
            outcome = getattr(workloads, args.workload)(
                args.seed, args.seconds, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = procs.environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    for line in outcome.report:
        print(line)
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"error_rate: {rate:.6f} ({outcome.failed} of {outcome.attempted})")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
