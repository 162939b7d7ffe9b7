"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload sweep_batch --seeds 1 2 3 4 5

Runs the benchmark once per seed (``--trace 0``, ``run_seconds`` from
``BENCHMARK.json``), then prints, for each end-to-end metric, the median
and the distance between the first and third quartiles of the values
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [
                *config["command"],
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(config["run_seconds"]),
                "--trace", "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            print(completed.stdout, completed.stderr, sep="\n", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    steady = True
    for metric in config["end_to_end"]:
        series = values[metric["name"]]
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2
        target = metric["bound"] / 3
        steady &= spread < target or metric["name"] == "setup_s"
        print(f"{metric['name']}: median {q2:.5g} {metric['unit']}, "
              f"spread {spread:.4f} (a third of the bound: {target:.4f})")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
