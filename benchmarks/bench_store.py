"""Binary mmap-backed store packs vs all-JSON pack documents.

The derivation store keeps each pack's code array in a little-endian
binary sidecar file that readers memory-map (:mod:`repro.kernel.binpack`);
the store's first format (``v1`` below) wrote the same pack as one JSON
document, ``compiled.to_payload()`` dumped with sorted keys, with every
code in base-10 digits.  The store no longer reads or writes that format, so this
benchmark keeps it as a local file and loads it the way the old store
did.  It measures three wins on a derivation-heavy workflow (thousands of
packed rows) and records them in ``BENCH_store.json``:

* **pack-load latency** — repeated loads of the JSON document
  (``json.load``, touch, ``CompiledWorkflow.from_payload``: parse every
  code on every load) vs repeated ``DerivationStore.load_pack`` (``v2``:
  parse a small document, map the sidecar, decode nothing).  The store
  path must beat the JSON path by at least :data:`SPEEDUP_FLOOR`; this is
  the gated metric.
* **per-worker resident memory** — 4 spawned workers concurrently load
  the same pack; each reports its USS-style private memory
  (``Private_Clean + Private_Dirty`` from ``/proc/self/smaps_rollup``).
  JSON workers each hold a parsed Python int list; store workers share
  one set of page-cached read-only pages.  Recorded as unmeasured where
  ``smaps_rollup`` is unavailable.
* **on-disk bytes** — the JSON document vs the store's pack files
  (``disk_stats()['bytes']``): base-10 JSON digits vs 8-byte binary
  records.

Run standalone (used by the CI regression gate) with::

    python benchmarks/bench_store.py --tiny
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from repro.core import Workflow
from repro.engine import DerivationCache, DerivationStore
from repro.kernel import CompiledWorkflow
from repro.workloads import (
    random_total_module,
    workflow_fingerprint,
    workflow_from_dict,
    workflow_to_dict,
)

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_store.json"

#: Acceptance floor: mmap store pack loads must beat JSON-parse loads.
SPEEDUP_FLOOR = 2.0

WORKERS = 4


def _bench_workflow(tiny: bool) -> Workflow:
    """Disjoint total modules whose provenance relation has many rows."""
    shapes = [(6, 5), (5, 6)] if tiny else [(7, 6), (6, 7)]
    modules = [
        random_total_module(9 * 100 + index, n_in, n_out, f"m{index}", f"s{index}_")
        for index, (n_in, n_out) in enumerate(shapes)
    ]
    return Workflow(modules, name="store-bench")


def _write_packs(json_path: Path, store_dir: Path, workflow: Workflow) -> int:
    """Persist the workflow's pack both ways; returns the packed row count."""
    compiled = DerivationCache().compiled_workflow(workflow)
    json_path.write_text(json.dumps(compiled.to_payload(), sort_keys=True))
    DerivationStore(store_dir).save_pack(workflow_fingerprint(workflow), compiled)
    return len(compiled.packed)


def _pack_loader(
    kind: str, path: Path, workflow: Workflow
) -> Callable[[], CompiledWorkflow | None]:
    """A zero-argument pack load of one ``kind``: ``"v1"`` or ``"v2"``.

    ``"v1"`` reads the JSON document at ``path`` the way the store read
    it; ``"v2"`` is ``load_pack`` on the store at ``path``, with the
    handle and fingerprint built here, once, outside any timed loop.
    """
    if kind == "v1":

        def load() -> CompiledWorkflow:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            os.utime(path, None)
            return CompiledWorkflow.from_payload(workflow, payload)

        return load
    store = DerivationStore(path)
    fingerprint = workflow_fingerprint(workflow)
    return lambda: store.load_pack(fingerprint, workflow)


def _time_pack_loads(load: Callable[[], object], iterations: int) -> float:
    """Mean seconds per pack load against a warm OS page cache."""
    assert load() is not None  # warm-up
    start = time.perf_counter()
    for _ in range(iterations):
        pack = load()
        assert pack is not None
    return (time.perf_counter() - start) / iterations


def _uss_bytes() -> int | None:
    """This process's private memory (USS-style), or ``None`` off Linux.

    ``Private_Clean + Private_Dirty``, not ``VmRSS``: mmap'd file pages
    shared across workers inflate RSS identically for every mapper, which
    is exactly the accounting the mapped sidecars are supposed to beat.
    """
    try:
        text = Path("/proc/self/smaps_rollup").read_text()
    except OSError:
        return None
    total = 0
    seen = False
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            total += int(line.split()[1]) * 1024
            seen = True
    return total if seen else None


#: Packs each memory worker holds resident, like a worker serving a sweep
#: over many hot workflows; amplifies the per-pack representation cost
#: over the interpreter's baseline footprint.
HELD_PACKS = 8


def _memory_worker(kind: str, path: str, payload: dict, conn) -> None:
    """Hold :data:`HELD_PACKS` loaded packs, report absolute private memory.

    Spawned fresh (no copy-on-write noise) and measured only after *every*
    worker has mapped (parent barrier), so the sidecar's file-backed pages
    are accounted as shared — the state a real 4-worker sweep holds them
    in.  Absolute USS, not a before/after delta: allocator page reuse makes
    small deltas meaningless, while identical bootstrap work on both sides
    cancels out of the v1 − v2 comparison.
    """
    import gc

    load = _pack_loader(kind, Path(path), workflow_from_dict(payload))
    held = []
    checksum = 0
    for _ in range(HELD_PACKS):
        pack = load()
        assert pack is not None
        array = pack.packed.array
        if array is not None:
            checksum ^= int(array.sum())  # faults every page, no row objects
        else:
            checksum ^= sum(pack.packed.codes)
        held.append(pack)
    gc.collect()
    conn.send(("mapped", checksum & 0xFFFF))
    conn.recv()  # barrier: all workers hold their mappings now
    conn.send(("uss", _uss_bytes()))
    conn.recv()  # hold the packs until every sibling has measured
    assert len(held) == HELD_PACKS


def _worker_memory_uss(
    kind: str, path: Path, workflow: Workflow
) -> list[int] | None:
    """Absolute per-worker private memory at ``WORKERS`` concurrent holders."""
    if _uss_bytes() is None:  # pragma: no cover - no smaps_rollup
        return None
    ctx = multiprocessing.get_context("spawn")
    payload = workflow_to_dict(workflow)
    procs = []
    for _ in range(WORKERS):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_memory_worker, args=(kind, str(path), payload, child_conn)
        )
        proc.start()
        child_conn.close()
        procs.append((proc, parent_conn))
    values: list[int] = []
    try:
        for _, conn in procs:  # phase 1: everyone holds its packs
            kind, _ = conn.recv()
            assert kind == "mapped"
        for _, conn in procs:
            conn.send("measure")
        for _, conn in procs:  # phase 2: everyone has measured
            kind, uss = conn.recv()
            assert kind == "uss"
            if uss is None:  # pragma: no cover - smaps vanished mid-run
                return None
            values.append(uss)
        for _, conn in procs:
            conn.send("done")
    finally:
        for proc, conn in procs:
            conn.close()
            proc.join(timeout=60)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join()
    return values


def run_benchmark(tiny: bool = False) -> dict:
    workflow = _bench_workflow(tiny)
    iterations = 10 if tiny else 30
    root = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    v1_path, v2_dir = root / "pack-v1.json", root / "store"
    try:
        rows = _write_packs(v1_path, v2_dir, workflow)
        v1_bytes = v1_path.stat().st_size
        v2_bytes = DerivationStore(v2_dir).disk_stats()["bytes"]

        v1_seconds = _time_pack_loads(_pack_loader("v1", v1_path, workflow), iterations)
        v2_seconds = _time_pack_loads(_pack_loader("v2", v2_dir, workflow), iterations)

        v1_uss = _worker_memory_uss("v1", v1_path, workflow)
        v2_uss = _worker_memory_uss("v2", v2_dir, workflow)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    measured = v1_uss is not None and v2_uss is not None
    if measured:
        v1_avg = sum(v1_uss) / len(v1_uss)
        v2_avg = sum(v2_uss) / len(v2_uss)
        memory = {
            "workers": WORKERS,
            "held_packs": HELD_PACKS,
            "measured": True,
            "v1_avg_uss_bytes": round(v1_avg),
            "v2_avg_uss_bytes": round(v2_avg),
            "reduction_bytes": round(v1_avg - v2_avg),
        }
    else:  # pragma: no cover - platform without smaps_rollup
        memory = {"workers": WORKERS, "held_packs": HELD_PACKS, "measured": False}

    record = {
        "benchmark": "bench_store",
        "tiny": tiny,
        "speedup_floor": SPEEDUP_FLOOR,
        "rows": rows,
        "pack_load": {
            "iterations": iterations,
            "v1_json_seconds": v1_seconds,
            "v2_mmap_seconds": v2_seconds,
            "speedup": v1_seconds / v2_seconds,
        },
        "worker_memory": memory,
        "disk": {
            "v1_bytes": v1_bytes,
            "v2_bytes": v2_bytes,
            "ratio": v1_bytes / v2_bytes,
        },
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_record(record)
    return record


def write_record(record: dict, path: Path = RECORD_PATH) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points (the benchmark harness)
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation without pytest
    pytest = None

if pytest is not None:

    @pytest.mark.experiment("store")
    def test_bench_binary_store_pack_loads(report_sink):
        """Mmap store pack loads beat JSON-parse loads >= 2x; workers sharing
        a store's mapped pack hold less private memory than JSON readers."""
        from repro.analysis import format_table

        record = run_benchmark(tiny=False)
        memory = record["worker_memory"]
        mem_row = (
            [
                f"{memory['v1_avg_uss_bytes'] / 1024:.0f} KiB",
                f"{memory['v2_avg_uss_bytes'] / 1024:.0f} KiB",
            ]
            if memory["measured"]
            else ["(unmeasured)", "(unmeasured)"]
        )
        report_sink.append(
            (
                "Store packs: binary mmap sidecars vs all-JSON documents "
                f"(record: {RECORD_PATH.name})",
                format_table(
                    ["metric", "v1 (JSON)", "v2 (binary mmap)"],
                    [
                        [
                            "pack load",
                            f"{record['pack_load']['v1_json_seconds'] * 1e3:.2f} ms",
                            f"{record['pack_load']['v2_mmap_seconds'] * 1e3:.2f} ms "
                            f"({record['pack_load']['speedup']:.1f}x)",
                        ],
                        [
                            f"per-worker USS ({WORKERS} workers x "
                            f"{HELD_PACKS} packs)",
                            *mem_row,
                        ],
                        [
                            "store bytes",
                            f"{record['disk']['v1_bytes']}",
                            f"{record['disk']['v2_bytes']} "
                            f"({record['disk']['ratio']:.1f}x smaller)",
                        ],
                    ],
                ),
            )
        )
        assert record["pack_load"]["speedup"] >= SPEEDUP_FLOOR, (
            f"mmap pack-load speedup {record['pack_load']['speedup']:.2f}x is "
            f"below the {SPEEDUP_FLOOR}x floor"
        )
        assert record["disk"]["v2_bytes"] < record["disk"]["v1_bytes"]
        if memory["measured"]:
            assert memory["reduction_bytes"] > 0, (
                "store workers hold no less private memory than JSON workers"
            )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in argv
    record = run_benchmark(tiny=tiny)
    pack = record["pack_load"]
    print(
        f"pack load ({record['rows']} rows): v1 {pack['v1_json_seconds'] * 1e3:.2f} ms"
        f" vs v2 {pack['v2_mmap_seconds'] * 1e3:.2f} ms ({pack['speedup']:.1f}x)"
    )
    memory = record["worker_memory"]
    if memory["measured"]:
        print(
            f"per-worker USS ({WORKERS} workers x {HELD_PACKS} packs): "
            f"v1 {memory['v1_avg_uss_bytes'] / 1024:.0f} KiB vs "
            f"v2 {memory['v2_avg_uss_bytes'] / 1024:.0f} KiB "
            f"(saves {memory['reduction_bytes'] / 1024:.0f} KiB/worker)"
        )
    else:
        print("per-worker memory: unmeasured on this platform")
    print(
        f"disk: v1 {record['disk']['v1_bytes']} B vs v2 "
        f"{record['disk']['v2_bytes']} B ({record['disk']['ratio']:.1f}x smaller)"
    )
    print(f"record written to {RECORD_PATH}")
    if not tiny and pack["speedup"] < SPEEDUP_FLOOR:
        print(f"FAIL: mmap pack-load speedup below {SPEEDUP_FLOOR}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
