"""Quickstart: the Figure-1 workflow from the paper, end to end.

Run with::

    python examples/quickstart.py

The script builds the running example of the paper (three boolean modules
over attributes a1..a7), materializes its provenance relation, checks
Γ-privacy of the top module for the view of Figure 1d, then hands the
workflow to the engine's :class:`~repro.engine.Planner`, which derives
requirement lists once and solves the Secure-View problem with the exact
solver and two approximation algorithms through one uniform ``solve()``
entry point.

All privacy checks and derivations below run on the default
``backend="kernel"`` — the bit-compiled privacy kernel of
:mod:`repro.kernel`, which packs relations into integer bitmask tables.
Pass ``backend="reference"`` to the check functions of :mod:`repro.core`
to run the original brute-force enumerators instead; both backends are
property-tested to agree, the kernel is just much faster.  ``Planner``
always runs on the kernel.  On numpy-sized relations the kernel
additionally batches its safe-subset sweeps — many candidate masks are
levelled per pass over the packed rows — which is fully transparent here:
nothing in this script changes, the Planner's derivations simply run
faster.
"""

from __future__ import annotations

from repro.analysis import Report
from repro.core import (
    ProvenanceView,
    count_standalone_worlds,
    is_gamma_private_workflow,
    standalone_privacy_level,
)
from repro.engine import Planner
from repro.workloads import figure1_view_attributes, figure1_workflow


def main() -> None:
    report = Report("provenance-views quickstart (Figure 1 of the paper)")

    # 1. Build the workflow and look at its provenance relation.
    workflow = figure1_workflow()
    relation = workflow.provenance_relation()
    report.add_text(
        "Workflow executions (the provenance relation R of Figure 1b):\n"
        + relation.to_text()
    )

    # 2. Standalone privacy of m1 under the Figure-1d view.
    m1 = workflow.module("m1")
    visible = figure1_view_attributes()
    report.add_table(
        "Standalone privacy of m1 (Examples 2-3)",
        ["visible attributes", "privacy level", "worlds"],
        [
            [
                "{a1, a3, a5}",
                standalone_privacy_level(m1, visible),
                count_standalone_worlds(m1, visible),
            ],
            [
                "{a3, a4, a5} (inputs hidden)",
                standalone_privacy_level(m1, {"a3", "a4", "a5"}),
                count_standalone_worlds(m1, {"a3", "a4", "a5"}),
            ],
        ],
    )

    # 3. Hand the workflow to the engine: one Planner, three solvers.
    #    Requirement derivation happens once and is shared by every solve.
    gamma = 2
    planner = Planner(workflow, gamma, kind="set")
    report.add_text(
        "Solvers applicable to this instance (auto picks "
        f"{planner.resolve('auto').name!r}): "
        + ", ".join(spec.name for spec in planner.solvers())
    )
    rows = []
    for solver in ("exact", "set_lp", "greedy"):
        result = planner.solve(solver=solver)
        rows.append(
            [
                solver,
                ", ".join(sorted(result.hidden_attributes)),
                f"{result.cost:.1f}",
                result.guarantee,
            ]
        )
    stats = planner.cache.stats()
    report.add_table(
        f"Secure-View solutions for Γ = {gamma} "
        f"(requirement derivations: {stats.derivation_misses})",
        ["solver", "hidden attributes", "cost", "guarantee"],
        rows,
    )

    # 4. Persist the derivations.  A store-backed Planner writes every
    #    derived artifact to a content-addressed on-disk store, keyed by
    #    module content.  Module packs are *binary*: JSON metadata
    #    pointing at little-endian `.npy` code sidecars that warm loads
    #    memory-map back zero-copy, so co-located processes share one
    #    page-cache copy of every hot pack.  Documents carry a `format`
    #    stamp; one in any other format is simply recomputed, and
    #    `repro store stats DIR` reports per-kind and per-tier sizes.
    import shutil
    import tempfile
    from pathlib import Path

    from repro.engine import DerivationStore

    store_dir = Path(tempfile.mkdtemp(prefix="repro-quickstart-store-"))
    try:
        Planner(workflow, gamma, kind="set", store=DerivationStore(store_dir)).solve(
            solver="exact"
        )
        warm = Planner(workflow, gamma, kind="set", store=DerivationStore(store_dir))
        # The certificate reads each private module's stored pack, so the
        # zero-copy loads show in the counters.
        warm.solve(solver="exact")
        warm_stats = warm.cache.stats()
        disk = DerivationStore(store_dir).disk_stats()
        report.add_text(
            "Store-backed warm solve (second process would behave the same): "
            f"{warm_stats.store_hits} store hit(s), "
            f"{warm_stats.derivation_misses} derivation(s), "
            f"{warm_stats.mmap_packs} pack(s) mmap'd zero-copy "
            f"({warm_stats.mmap_bytes} bytes shared)\n"
            f"On disk: store format v{disk['format_version']}, "
            f"{disk['workflow_entries']} workflow + {disk['module_entries']} "
            f"module entries, {disk['bytes']} bytes"
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    # 5. The same solve over the wire: start the long-lived solve service
    #    in-process, submit through the thin client, and read the serving
    #    counters.  (`repro serve --port 8080` runs the identical server as
    #    a standalone process; `repro submit FILE --url ...` is this
    #    client.)  Identical concurrent requests would coalesce into one
    #    computation — examples/service_demo.py shows that live.
    from repro.service import ServiceClient, ServiceServer, SolveService

    server = ServiceServer(SolveService(workers=2), port=0).start()
    try:
        client = ServiceClient(server.url)
        served = client.solve(workflow=workflow, gamma=gamma, kind="set",
                              solver="exact")
        metrics = client.metrics()
        report.add_text(
            f"Service solve over HTTP ({server.url}): cost {served['cost']:.1f}, "
            f"solver {served['resolved_solver']!r}\n"
            f"/metrics after one request: {metrics['requests']['solve']} solve "
            f"request(s), {metrics['coalesced']} coalesced, cache delta "
            f"{metrics['cache']['derivation_misses']} derivation(s)"
        )

        # A whole grid, asynchronously: POST /jobs/sweep answers with a
        # job handle immediately; the cells run in the background while
        # the client polls progress.  (`repro submit FILE --async
        # [--watch]` is the CLI spelling.)
        handle = client.sweep_async(
            workflows=[workflow], gammas=[gamma], kinds=["set"],
            solvers=["exact", "set_lp", "greedy"],
        )
        job = client.wait_job(handle["job"], timeout=60)
        report.add_text(
            f"Async sweep job {handle['job']}: handle returned before any of "
            f"the {handle['cells']} cells ran; final state {job['state']!r} "
            f"with {job['completed']} completed record(s) in "
            f"{job['seconds']:.3f}s"
        )
    finally:
        server.stop(drain_timeout=10)

    # The thread pool above timeslices one core behind the GIL.  To use
    # real cores for K *distinct* concurrent requests, dispatch leader
    # computations onto the persistent process execution tier instead:
    #
    #     repro serve --exec processes --exec-workers 4 --store DIR
    #
    # (in code: ``SolveService(exec_mode="processes", exec_workers=4)``).
    # Coalescing, caches and drain behave identically; `/metrics` gains
    # an ``exec`` block (dispatched, busy, worker_restarts, merged worker
    # cache deltas) — examples/service_demo.py runs one live.
    #
    # And to scale *out* on one machine, put a replica fleet on the store:
    #
    #     repro fleet --replicas 4 --store DIR --port 8080
    #
    # supervises four full `repro serve` processes behind a health-aware
    # /v1 front (round-robin routing, budgeted respawns, `repro fleet
    # restart` for zero-downtime rolling restarts); identical requests
    # across replicas still derive once, through the shared store's
    # result tier — service_demo.py walks a two-replica fleet live.

    # 6. Verify the optimal view really is Γ-private, both through the
    #    certificate every answer carries (Theorems 4 and 8: each private
    #    module's standalone level, read from its pack) and by the
    #    brute-force possible-worlds check of Definitions 5/6.
    optimal = planner.solve(solver="exact")
    verified = is_gamma_private_workflow(
        workflow, optimal.solution.visible_attributes, gamma
    )
    view = ProvenanceView(workflow, optimal.solution.visible_attributes)
    report.add_text(
        f"Engine certificate for the optimal view: ok={optimal.certificate.ok}, "
        f"per-module levels {dict(optimal.certificate.module_levels)}\n"
        f"Brute-force verification that the optimal view is {gamma}-private: {verified}\n\n"
        "The provenance view shown to users (hidden attributes projected away):\n"
        + view.relation().to_text()
    )

    print(report.render())


if __name__ == "__main__":
    main()
