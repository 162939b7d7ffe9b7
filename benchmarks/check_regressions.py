"""CI benchmark-regression gate: fresh ``--tiny`` runs vs committed floors.

The repository commits one JSON record per headline benchmark
(``BENCH_kernel.json``, ``BENCH_sweep.json``, ``BENCH_incremental.json``,
``BENCH_service.json``, ``BENCH_store.json``), each carrying a
``speedup_floor``.  This script
re-runs every benchmark in ``--tiny`` mode (CI-sized instances) and fails
if any gated speedup lands below the floor *committed* in the corresponding
record — i.e. the floor a past run promised, not whatever the fresh run
happens to produce.

Gated metrics per benchmark (dotted paths into the fresh record):

* ``bench_kernel``       — derivation speedup (set and cardinality) and
  out-set verification speedup of the compiled backend over the reference;
* ``bench_sweep``        — warm-store parallel sweep over serial cold;
* ``bench_incremental``  — edit-one-module re-solve over a cold solve;
* ``bench_service``      — warm-server throughput over sequential cold CLI
  solves (the benchmark itself additionally hard-asserts exact coalescing);
* ``bench_store``        — binary mmap pack loads over v1 JSON parsing.

CI-sized instances carry proportionally more fixed overhead than the
committed full-size runs, so each gated metric also declares a **tiny
floor** — the threshold a healthy tiny run clears with margin.  The
effective gate is ``min(committed speedup_floor, tiny floor)``: weakening
never happens silently (a lowered committed floor lowers the gate), but a
tiny run is never held to a full-size promise it structurally cannot meet.

The tiny runs overwrite the committed ``BENCH_*.json`` files in place (the
benchmarks always write their record); the committed bytes are snapshotted
first and restored afterwards unless ``--keep-records`` is passed, so a
local run leaves the working tree clean while CI can upload the fresh
records as artifacts with ``--keep-records``.

Usage::

    python benchmarks/check_regressions.py [--keep-records] [--only NAME ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"

#: benchmark name -> (script, committed record, {dotted metric: tiny floor}).
#: Tiny floors are calibrated well below healthy tiny-run measurements
#: (kernel ~5x, incremental ~3x, service ~1000x, sweep ~2x on 1 core) but
#: far above what a genuine regression — a broken cache tier, a lost
#: coalescing path, a transport stall on every response — would produce.
#: A floor spec starting with ``"@"`` is a dotted path dereferenced in the
#: *fresh* record: the benchmark computes a hardware-conditional floor at
#: run time (e.g. the execution-tier scaling win, unmeasurable on a 1-core
#: box) and the gate holds the run to the floor that box can actually meet.
GATES: dict[str, tuple[str, str, dict[str, float | str]]] = {
    "kernel": (
        "bench_kernel.py",
        "BENCH_kernel.json",
        {
            "derivation.set.speedup": 2.0,
            "derivation.cardinality.speedup": 2.0,
            "verification.speedup": 2.0,
            # PR 8 batched mask-sweep vs one scalar relation pass per mask;
            # healthy tiny runs measure ~4x, a lost batch path ~1x.
            "batched.speedup": 2.0,
        },
    ),
    "sweep": (
        "bench_sweep.py",
        "BENCH_sweep.json",
        {"speedup_parallel_warm": 1.3},
    ),
    "incremental": (
        "bench_incremental.py",
        "BENCH_incremental.json",
        {"speedup_incremental": 1.5},
    ),
    "service": (
        "bench_service.py",
        "BENCH_service.json",
        {
            # A ~40 ms stall per keep-alive response measures 16–37x tiny;
            # healthy tiny runs measure ~1000x.
            "speedup_warm_server": 100.0,
            # 4-worker process tier vs the GIL-bound thread tier; the
            # benchmark records 2.0 on >= 4 cores, a sanity floor below.
            "scaling.speedup_4_workers": "@scaling.floor",
            # PR 10 replica fleet: 4 single-process replicas vs 1, same
            # hardware-conditional floor recorded by the benchmark.
            "replicas.speedup_4_replicas": "@replicas.floor",
        },
    ),
    "store": (
        "bench_store.py",
        "BENCH_store.json",
        # PR 9 binary mmap pack loads vs v1 JSON parsing; tiny instances
        # (~2k rows) measure ~1.8x where the committed full-size run
        # promises >= 2x, and a lost binary path measures ~1.0x.
        {"pack_load.speedup": 1.3},
    ),
}


def _dig(record: dict, path: str) -> float:
    value = record
    for part in path.split("."):
        value = value[part]
    return float(value)


def check_benchmark(
    name: str, keep_records: bool
) -> list[tuple[str, float, float, bool]]:
    """Run one tiny benchmark; ``(metric, floor, fresh, ok)`` per gate."""
    script, record_name, metrics = GATES[name]
    record_path = REPO_ROOT / record_name
    committed_bytes = record_path.read_bytes()
    committed = json.loads(committed_bytes)
    committed_floor = float(committed["speedup_floor"])

    print(
        f"== {name}: running {script} --tiny "
        f"(committed floor {committed_floor:.1f}x) ==",
        flush=True,
    )
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), "--tiny"], cwd=str(REPO_ROOT)
    )
    try:
        if completed.returncode != 0:
            raise SystemExit(
                f"{script} --tiny exited {completed.returncode}; "
                "the benchmark's own assertions failed before any floor check"
            )
        fresh = json.loads(record_path.read_text())
        results = []
        for metric, spec in metrics.items():
            if isinstance(spec, str) and spec.startswith("@"):
                tiny_floor = _dig(fresh, spec[1:])
            else:
                tiny_floor = float(spec)
            floor = min(committed_floor, tiny_floor)
            value = _dig(fresh, metric)
            ok = value >= floor
            results.append((f"{name}:{metric}", floor, value, ok))
        return results
    finally:
        if not keep_records:
            record_path.write_bytes(committed_bytes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep-records",
        action="store_true",
        help="leave the fresh tiny records in place (CI artifact upload)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(GATES),
        default=sorted(GATES),
        help="subset of benchmarks to gate",
    )
    args = parser.parse_args(argv)

    results: list[tuple[str, float, float, bool]] = []
    for name in args.only:
        results.extend(check_benchmark(name, keep_records=args.keep_records))

    width = max(len(metric) for metric, *_ in results)
    print()
    for metric, floor, value, ok in results:
        verdict = "ok  " if ok else "FAIL"
        print(f"{verdict} {metric:<{width}}  {value:8.2f}x  (floor {floor:.1f}x)")
    regressions = [metric for metric, _, _, ok in results if not ok]
    if regressions:
        print(
            f"\nREGRESSION: {len(regressions)} gated metric(s) below the "
            f"committed floor: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(results)} gated metrics meet their committed floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
