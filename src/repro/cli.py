"""Command-line interface: ``python -m repro.cli <command> ...``.

The CLI exposes the everyday operations a workflow owner would run:

* ``info``      — summarize a workflow or problem file (modules, attributes,
  data-sharing degree, requirement lists),
* ``solve``     — solve a Secure-View problem file with a registered solver
  (optionally with local-search post-processing and a Γ-privacy
  certificate) and print / save the solution,
* ``verify``    — brute-force check that a solution file really provides
  Γ-privacy (small instances only),
* ``attack``    — run the reconstruction attack against one module under a
  solution's view,
* ``generate``  — write a random or scientific-workflow-shaped problem file,
* ``compare``   — run several solvers on a problem file (through one shared
  :class:`~repro.engine.Planner`) and print the comparison table,
* ``sweep``     — run a (workflow × Γ × kind × solver × seed) grid from a
  JSON grid file, optionally in parallel (``--jobs``) and against a
  persistent derivation store (``--store``), emitting a JSON report,
* ``store``     — maintain a persistent derivation store directory
  (``store stats DIR``, ``store gc DIR --max-bytes N``),
* ``serve``     — run the long-lived solve service (threaded HTTP/JSON
  server speaking the versioned ``/v1`` API with one hot derivation
  cache, request coalescing, async jobs, background maintenance — store
  GC budget, job expiry, restart warm-up — and ``/v1/metrics``;
  SIGTERM/SIGINT drain in-flight work and exit 0),
* ``fleet``     — spawn and supervise N ``repro serve`` replicas sharing
  one store behind a health-aware ``/v1`` proxy front (budgeted respawn
  of dead replicas; ``repro fleet restart`` or SIGHUP rolling-restarts
  one replica at a time without failing requests),
* ``submit``    — send a problem or workflow file to a running service and
  print the solve record (``--async`` submits a job and returns its
  handle; ``--watch`` polls it to completion),
* ``engine``    — inspect the solver engine (``engine list-solvers``).

``solve``, ``compare`` and ``sweep`` all accept ``--store DIR``: a warm
store serves requirement derivations and packed module relations
(module-granular) and whole solve results across runs and processes.

Solving goes through :mod:`repro.engine`; ``--solver`` accepts any name in
the registry (``repro engine list-solvers``).  All files are the JSON
documents produced by :mod:`repro.workloads.serialization`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from .analysis import compare_solvers, format_records
from .core import is_gamma_private_workflow
from .core.attack import reconstruction_attack
from .engine import Planner, default_registry, run_sweep, spec_from_grid
from .exceptions import ProvenanceError
from .workloads import ScientificWorkflowConfig, random_problem, scientific_problem
from .workloads.serialization import (
    dump_problem,
    load_problem,
    solution_from_dict,
    solution_to_dict,
)

__all__ = ["build_parser", "main"]

#: Default directory for the persistent derivation store (gitignored).
DEFAULT_STORE_DIR = ".repro-store"


def _package_version() -> str:
    """Installed package version, falling back to the in-tree one."""
    try:
        from importlib.metadata import version

        return version("provenance-views")
    except Exception:  # not installed, or metadata backend quirks
        from . import __version__

        return __version__


def _cmd_info(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    workflow = problem.workflow
    print(f"workflow          : {workflow.name}")
    print(
        f"modules           : {len(workflow)} "
        f"({len(workflow.private_modules)} private, "
        f"{len(workflow.public_modules)} public)"
    )
    print(f"attributes        : {len(workflow.attribute_names)}")
    print(f"data sharing γ    : {workflow.data_sharing_degree()}")
    print(f"privacy target Γ  : {problem.gamma}")
    print(f"constraint kind   : {problem.constraint_kind}")
    print(f"l_max             : {problem.lmax}")
    for name, requirement in problem.requirements.items():
        print(f"  requirement[{name}]: {len(requirement)} option(s)")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    planner = Planner.from_problem(problem, store=args.store or None)
    result = planner.solve(
        solver=args.solver,
        seed=args.seed,
        local_search=bool(args.local_search),
        verify=args.verify,
    )
    payload = solution_to_dict(result.solution)
    payload["solver"] = result.solver
    payload["cache_stats"] = result.cache_stats.as_dict()
    if args.store:
        # Surface the warm-store win directly: how many artifacts this
        # solve was served from disk instead of deriving.
        payload["store"] = args.store
        payload["store_hits"] = result.cache_stats.store_hits
    if result.guarantee:
        payload["guarantee"] = result.guarantee
    if result.certificate is not None:
        payload["certificate"] = result.certificate.as_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if result.certificate is not None and not result.certificate.ok:
        return 1
    return 0


def _cmd_engine_list_solvers(args: argparse.Namespace) -> int:
    registry = default_registry()
    if args.problem:
        problem = load_problem(args.problem)
        specs = registry.applicable(problem)
        auto = registry.select(problem)
        caption = (
            f"solvers applicable to {args.problem} "
            f"(auto would pick {auto.name!r})"
        )
        records = [
            {**spec.as_record(), "guarantee": spec.guarantee_for(problem)}
            for spec in specs
        ]
    else:
        specs = registry.specs()
        caption = "registered Secure-View solvers (auto-selection order)"
        records = [spec.as_record() for spec in specs]
    print(
        format_records(
            records,
            columns=[
                "name",
                "constraints",
                "scope",
                "randomized",
                "exact",
                "baseline",
                "guarantee",
            ],
            caption=caption,
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    with open(args.solution, "r", encoding="utf-8") as handle:
        solution = solution_from_dict(problem.workflow, json.load(handle))
    feasible = problem.is_feasible(
        solution.hidden_attributes, solution.privatized_modules
    )
    print(f"requirement-feasible: {feasible}")
    if args.brute_force:
        private = is_gamma_private_workflow(
            problem.workflow,
            solution.visible_attributes,
            problem.gamma,
            hidden_public_modules=solution.privatized_modules,
        )
        print(f"brute-force Γ-private: {private}")
        return 0 if (feasible and private) else 1
    return 0 if feasible else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    with open(args.solution, "r", encoding="utf-8") as handle:
        solution = solution_from_dict(problem.workflow, json.load(handle))
    report = reconstruction_attack(
        problem.workflow,
        args.module,
        solution.visible_attributes,
        hidden_public_modules=solution.privatized_modules,
        gamma_target=problem.gamma,
    )
    print(
        format_records(
            report.as_records(),
            caption=(
                f"reconstruction attack on {args.module!r}: achieved Γ = "
                f"{report.achieved_gamma}, target Γ = {problem.gamma}"
            ),
        )
    )
    return 1 if report.breaches_target else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.shape == "scientific":
        problem = scientific_problem(
            ScientificWorkflowConfig(
                n_modules=args.modules,
                seed=args.seed,
                public_fraction=args.public_fraction,
            ),
            kind=args.kind,
            gamma=args.gamma,
        )
    else:
        problem = random_problem(
            n_modules=args.modules,
            kind=args.kind,
            seed=args.seed,
            gamma=args.gamma,
            topology=args.shape,
            private_fraction=1.0 - args.public_fraction,
        )
    dump_problem(problem, args.output)
    print(
        f"wrote {args.output}: {len(problem.workflow)} modules, "
        f"{len(problem.workflow.attribute_names)} attributes, kind={args.kind}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    records = compare_solvers(
        problem,
        args.methods,
        seeds=tuple(range(args.seeds)),
        include_exact=not args.no_exact,
        n_jobs=args.jobs,
        store=args.store or None,
    )
    print(
        format_records(
            records,
            columns=["method", "cost", "ratio", "seconds"],
            caption=f"solver comparison on {args.problem}",
        )
    )
    return 0


def _open_store(directory: str):
    import os

    if not os.path.isdir(directory):
        print(f"error: {directory} is not a store directory", file=sys.stderr)
        return None
    from .engine import DerivationStore

    return DerivationStore(directory)


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _open_store(args.dir)
    if store is None:
        return 1
    print(json.dumps(store.disk_stats(), indent=2, sort_keys=True))
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _open_store(args.dir)
    if store is None:
        return 1
    try:
        summary = store.gc(args.max_bytes)
    except ValueError as exc:  # e.g. a negative --max-bytes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary["root"] = args.dir
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    try:
        with open(args.grid, "r", encoding="utf-8") as handle:
            grid = json.load(handle)
        spec = spec_from_grid(
            grid, base_dir=os.path.dirname(os.path.abspath(args.grid))
        )
    except ValueError as exc:  # malformed JSON or an empty/invalid grid
        print(f"error: invalid grid file {args.grid}: {exc}", file=sys.stderr)
        return 1
    report = run_sweep(
        spec,
        n_jobs=args.jobs,
        store=args.store or None,
        reuse_results=not args.fresh_results,
    )
    payload = report.as_dict()
    payload["grid"] = os.path.basename(args.grid)
    if args.store:
        payload["store"] = args.store
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    if report.errors and not args.allow_errors:
        failed = [record["index"] for record in report.records if "error" in record]
        print(
            f"error: {report.errors} of {len(report.records)} sweep cell(s) "
            f"failed (indices {failed}); pass --allow-errors to tolerate "
            "partial failures",
            file=sys.stderr,
        )
        return 1
    if report.records and report.errors == len(report.records):
        # --allow-errors tolerates *partial* failure; a sweep with zero
        # usable records is still a failed sweep.
        print(
            f"error: all {report.errors} sweep cell(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _service_flags_ok(args: argparse.Namespace) -> bool:
    """Check the serve/fleet cross-flag rules argparse cannot express.

    A broken rule is reported on stderr; the caller exits 2, like any
    other usage error.
    """
    problem = None
    if not args.store and getattr(args, "store_max_bytes", None) is not None:
        problem = "--store-max-bytes requires --store"
    elif not args.store and args.warmup:
        problem = "--warmup requires --store (nothing to warm from)"
    elif args.exec_workers is not None and args.exec_mode != "processes":
        problem = "--exec-workers requires --exec processes"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
    return problem is None


def _drain_on_signals(command: str, stop: Callable[[], object]) -> None:
    """SIGTERM/SIGINT run ``stop`` (a graceful drain) on a helper thread.

    The serve loop blocks the main thread, and an HTTP server must not be
    shut down from its own serve thread.  A second signal skips the
    drain: the operator asked twice.
    """
    import os
    import signal
    import threading

    stopping = threading.Event()

    def _graceful(signum, frame) -> None:
        if stopping.is_set():
            print(
                f"repro {command}: second signal, exiting without draining",
                file=sys.stderr,
                flush=True,
            )
            os._exit(130)
        stopping.set()
        threading.Thread(target=stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceServer, SolveService

    if not _service_flags_ok(args):
        return 2
    service = SolveService(
        store=args.store or None,
        workers=args.workers,
        default_timeout=args.timeout if args.timeout > 0 else None,
        result_cache_size=args.result_cache_size,
        job_ttl=args.job_ttl,
        max_jobs=args.max_jobs,
        store_max_bytes=args.store_max_bytes,
        warmup=args.warmup,
        maintenance_interval=args.maintenance_interval or None,
        exec_mode=args.exec_mode,
        exec_workers=args.exec_workers,
        replica_id=args.replica_id or None,
    )
    try:
        server = ServiceServer(
            service, host=args.host, port=args.port, quiet=args.quiet
        )
    except OSError as exc:  # port in use, privileged bind, bad host ...
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    _drain_on_signals("serve", server.stop)
    exec_note = (
        f"exec=processes:{service.exec_tier.workers}"
        if service.exec_tier is not None
        else "exec=threads"
    )
    replica_note = f", replica={args.replica_id}" if args.replica_id else ""
    print(
        f"repro serve: listening on {server.url} "
        f"(workers={args.workers}, {exec_note}, "
        f"store={args.store or 'none'}{replica_note})",
        flush=True,
    )
    server.serve_forever()  # returns once a signal (or /shutdown) drains us
    metrics = service.metrics()
    print(
        "repro serve: drained and stopped after "
        f"{metrics['requests']['solve']} solve / "
        f"{metrics['requests']['sweep']} sweep / "
        f"{metrics['requests']['jobs']} job request(s), "
        f"{metrics['coalesced']} coalesced",
        flush=True,
    )
    return 0


def _replica_argv(args: argparse.Namespace) -> list[str]:
    """The ``repro serve`` arguments a fleet gives every replica.

    Each shared serve/fleet flag is forwarded as given, except the front's
    own ``--host``/``--port`` and ``--store``, which the supervisor passes
    itself.  The argv rides along verbatim on every spawn and respawn, so
    a rolling restart brings a replica back identically.
    """
    argv: list[str] = []
    for flag, dest in (
        ("--workers", "workers"),
        ("--exec", "exec_mode"),
        ("--exec-workers", "exec_workers"),
        ("--timeout", "timeout"),
        ("--result-cache-size", "result_cache_size"),
        ("--warmup", "warmup"),
        ("--maintenance-interval", "maintenance_interval"),
    ):
        value = getattr(args, dest)
        if value is not None:  # unset --exec-workers means "= --workers"
            argv += [flag, str(value)]
    argv.append("--quiet" if args.quiet else "--no-quiet")
    return argv


def _cmd_fleet(args: argparse.Namespace) -> int:
    if getattr(args, "fleet_command", None) == "restart":
        return _cmd_fleet_restart(args)
    import signal
    import threading

    from .service import FleetSupervisor

    if not _service_flags_ok(args):
        return 2
    supervisor = FleetSupervisor(
        replicas=args.replicas,
        store=args.store or None,
        host=args.host,
        port=args.port,
        serve_argv=_replica_argv(args),
        restart_budget=args.restart_budget,
        quiet=args.quiet,
    )
    try:
        supervisor.start()
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def _rolling(signum, frame) -> None:
        # SIGHUP: the operator's "roll the fleet" — replica at a time,
        # never failing a request.
        threading.Thread(target=supervisor.rolling_restart, daemon=True).start()

    _drain_on_signals("fleet", supervisor.stop)
    signal.signal(signal.SIGHUP, _rolling)
    print(
        f"repro fleet: listening on {supervisor.url} "
        f"(replicas={args.replicas}, workers={args.workers}/replica, "
        f"store={args.store or 'none'})",
        flush=True,
    )
    while supervisor._thread is not None and supervisor._thread.is_alive():
        supervisor._thread.join(timeout=0.5)
    status = supervisor.status()
    respawns = sum(entry["restarts"] for entry in status["replicas"])
    print(
        f"repro fleet: drained and stopped "
        f"({status['rolling_restarts']} rolling restart(s), "
        f"{respawns} respawn(s))",
        flush=True,
    )
    return 0


def _cmd_fleet_restart(args: argparse.Namespace) -> int:
    """``repro fleet restart``: ask a running fleet front to roll."""
    from .service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url, timeout=args.timeout or 300.0)
    try:
        answer = client.request("POST", "/fleet/restart", {})
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(answer, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceClientError

    with open(args.file, "r", encoding="utf-8") as handle:
        payload = json.load(handle)

    # Typed solve arguments for ServiceClient.solve — the client owns the
    # wire body now (hand-built request dicts are the deprecated path).
    solve_kwargs: dict = {
        "solver": args.solver,
        "seed": args.seed,
        "verify": args.verify,
    }
    if args.timeout:
        solve_kwargs["timeout"] = args.timeout
    if "modules" in payload:  # a bare workflow file: Γ/kind come from flags
        solve_kwargs["workflow"] = payload
        solve_kwargs["gamma"] = args.gamma if args.gamma is not None else 2
        solve_kwargs["kind"] = args.kind
    elif args.gamma is not None:
        # A problem file re-targeted at an explicit Γ: submit its workflow
        # and let the service derive requirements at (--gamma, --kind).
        solve_kwargs["workflow"] = payload.get("workflow", payload)
        solve_kwargs["gamma"] = args.gamma
        solve_kwargs["kind"] = args.kind
    else:
        solve_kwargs["problem"] = payload

    # The socket deadline must outlast the server-side wait deadline, or
    # the client's own timeout races (and usually beats) the server's 504.
    # Without an explicit --timeout the server's deadline is unknown (its
    # --timeout default is 300 but operators can raise it), so allow a
    # generous hour rather than baking in someone else's default.
    client_timeout = (args.timeout + 30.0) if args.timeout else 3600.0
    client = ServiceClient(args.url, timeout=client_timeout)
    if args.async_job or args.watch:
        return _submit_async(args, client, solve_kwargs)
    try:
        record = client.solve(**solve_kwargs)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2, sort_keys=True, default=str))
    return 0


def _submit_async(args: argparse.Namespace, client, solve_kwargs: dict) -> int:
    """``repro submit --async [--watch]``: job handle now, records later."""
    from .service import ServiceClientError

    # The same typed route as the blocking path: sweep_async builds the
    # one-cell grid body.  A one-element seed axis even when the seed is
    # null — the grid default would otherwise silently pin seed 0.
    grid_kwargs: dict = {
        "solvers": [solve_kwargs["solver"]],
        "seeds": [solve_kwargs["seed"]],
        "verify": solve_kwargs["verify"],
    }
    if "timeout" in solve_kwargs:
        grid_kwargs["timeout"] = solve_kwargs["timeout"]
    if "workflow" in solve_kwargs:
        grid_kwargs["workflows"] = [solve_kwargs["workflow"]]
        grid_kwargs["gammas"] = [solve_kwargs["gamma"]]
        grid_kwargs["kinds"] = [solve_kwargs["kind"]]
    else:
        grid_kwargs["problems"] = [solve_kwargs["problem"]]
    try:
        handle = client.sweep_async(**grid_kwargs)
        if not args.watch:
            print(json.dumps(handle, indent=2, sort_keys=True, default=str))
            return 0

        last_seen = {"progress": -1}

        def _progress(status: dict) -> None:
            landed = status.get("completed", 0) + status.get("failed", 0)
            if landed != last_seen["progress"]:
                last_seen["progress"] = landed
                print(
                    f"repro submit: job {handle['job']} {status.get('state')} "
                    f"{landed}/{status.get('cells')} cell(s)",
                    file=sys.stderr,
                    flush=True,
                )

        final = client.wait_job(
            handle["job"],
            timeout=args.timeout or None,
            on_progress=_progress,
        )
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final, indent=2, sort_keys=True, default=str))
    if final.get("state") != "done" or final.get("failed", 0):
        return 1
    return 0


def _arg_positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (usage error — exit 2 — otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _arg_nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _arg_positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _arg_nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``repro serve`` and ``repro fleet`` share, defined once.

    A fleet forwards them to its replicas (see :func:`_replica_argv`), so
    both commands take the same values with the same defaults.
    """
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="listening port (0 picks a free one)"
    )
    parser.add_argument(
        "--store",
        default="",
        help=(
            "persistent derivation store directory; every fleet replica "
            f"attaches the same one (e.g. {DEFAULT_STORE_DIR})"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_arg_positive_int,
        default=4,
        help="solve worker threads (per replica in a fleet)",
    )
    parser.add_argument(
        "--exec",
        dest="exec_mode",
        choices=("threads", "processes"),
        default="threads",
        help=(
            "execution tier for leader computations: 'threads' (in-process, "
            "GIL-bound) or 'processes' (persistent worker processes; K "
            "distinct concurrent solves use K cores; default: threads)"
        ),
    )
    parser.add_argument(
        "--exec-workers",
        type=_arg_positive_int,
        default=None,
        help=(
            "worker processes for --exec processes (default: --workers); "
            "each keeps a hot cache and its own store attachment"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="default per-request deadline in seconds (0 = unbounded)",
    )
    parser.add_argument(
        "--result-cache-size",
        type=_arg_nonnegative_int,
        default=256,
        help=(
            "bound on the in-memory completed-result cache (default 256; "
            "0 disables it so repeats read the store's result tier — what "
            "a fleet measuring cross-replica reuse wants)"
        ),
    )
    parser.add_argument(
        "--warmup",
        type=_arg_nonnegative_int,
        default=0,
        help=(
            "re-compile the N most-requested workflow fingerprints from the "
            "store at start-up (requires --store; default 0)"
        ),
    )
    parser.add_argument(
        "--maintenance-interval",
        type=_arg_nonnegative_float,
        default=30.0,
        help=(
            "seconds between background maintenance passes, jittered ±10%% "
            "(0 disables the maintenance thread; default 30)"
        ),
    )
    parser.add_argument(
        "--quiet",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="suppress per-request access logging (and a fleet's replica output)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure provenance views for module privacy (PODS 2011 reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {_package_version()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="summarize a problem file")
    info.add_argument("problem")
    info.set_defaults(func=_cmd_info)

    solver_names = ["auto", *default_registry().names()]
    solve = sub.add_parser("solve", help="solve a Secure-View problem file")
    solve.add_argument("problem")
    solve.add_argument(
        "--solver",
        default="auto",
        choices=solver_names,
        help="registry solver name (see `repro engine list-solvers`)",
    )
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--local-search", action="store_true")
    solve.add_argument(
        "--verify",
        action="store_true",
        help=(
            "attach a Γ-privacy certificate (Theorems 4 and 8; possible-worlds "
            "enumeration only for a module they cannot certify)"
        ),
    )
    solve.add_argument(
        "--store",
        default="",
        help=(
            "persistent derivation store directory; a warm store skips "
            f"derivation and reports store_hits (e.g. {DEFAULT_STORE_DIR})"
        ),
    )
    solve.add_argument("--output", default="")
    solve.set_defaults(func=_cmd_solve)

    engine = sub.add_parser("engine", help="inspect the solver engine")
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)
    list_solvers = engine_sub.add_parser(
        "list-solvers", help="list registered solvers and their metadata"
    )
    list_solvers.add_argument(
        "--problem",
        default="",
        help="restrict to solvers applicable to this problem file",
    )
    list_solvers.set_defaults(func=_cmd_engine_list_solvers)

    verify = sub.add_parser("verify", help="check a solution file against a problem")
    verify.add_argument("problem")
    verify.add_argument("solution")
    verify.add_argument("--brute-force", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    attack = sub.add_parser("attack", help="reconstruction attack against one module")
    attack.add_argument("problem")
    attack.add_argument("solution")
    attack.add_argument("module")
    attack.set_defaults(func=_cmd_attack)

    generate = sub.add_parser("generate", help="generate a synthetic problem file")
    generate.add_argument("output")
    generate.add_argument("--modules", type=int, default=12)
    generate.add_argument(
        "--kind", default="cardinality", choices=["cardinality", "set"]
    )
    generate.add_argument(
        "--shape",
        default="random",
        choices=["random", "chain", "layered", "scientific"],
    )
    generate.add_argument("--gamma", type=int, default=2)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--public-fraction", type=float, default=0.0)
    generate.set_defaults(func=_cmd_generate)

    compare = sub.add_parser("compare", help="compare solvers on a problem file")
    compare.add_argument("problem")
    compare.add_argument("--methods", nargs="+", default=["auto", "greedy"])
    compare.add_argument("--seeds", type=int, default=1)
    compare.add_argument("--no-exact", action="store_true")
    compare.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the comparison"
    )
    compare.add_argument(
        "--store",
        default="",
        help=f"persistent derivation store directory (e.g. {DEFAULT_STORE_DIR})",
    )
    compare.set_defaults(func=_cmd_compare)

    store = sub.add_parser(
        "store",
        help="inspect or prune a persistent derivation store directory",
        description=(
            "Maintenance for long-lived .repro-store/ directories: 'stats' "
            "summarizes bytes/files per artifact kind and per tier (workflow "
            "vs shared module tier); 'gc' prunes least-recently-used "
            "artifacts down to a byte budget, never touching in-flight temp "
            "files.  Artifacts are re-derivable caches, so gc never loses "
            "information, and a document in any other on-disk format is "
            "simply recomputed."
        ),
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="summarize what a store directory holds"
    )
    store_stats.add_argument("dir")
    store_stats.set_defaults(func=_cmd_store_stats)
    store_gc = store_sub.add_parser(
        "gc", help="prune a store to a byte budget (LRU by mtime)"
    )
    store_gc.add_argument("dir")
    store_gc.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        help="target size; oldest-touched artifacts are deleted first",
    )
    store_gc.set_defaults(func=_cmd_store_gc)

    sweep = sub.add_parser(
        "sweep",
        help="run a solve grid from a JSON grid file, optionally in parallel",
        description=(
            "The grid file lists 'workflows' (workflow or problem files swept "
            "across the 'gammas'/'kinds' axes) and/or 'problems' (problem files "
            "used with their baked Γ/kind), plus 'solvers' and 'seeds'.  With "
            "--store, derivations and solve results persist across runs: a "
            "repeated sweep against a warm store performs zero requirement "
            "derivations (the report's stats prove it)."
        ),
    )
    sweep.add_argument("grid", help="JSON grid file (workflows/gammas/solvers/seeds)")
    sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes (0 = auto)"
    )
    sweep.add_argument(
        "--store",
        default="",
        help=f"persistent derivation store directory (e.g. {DEFAULT_STORE_DIR})",
    )
    sweep.add_argument(
        "--fresh-results",
        action="store_true",
        help="re-run solvers even when the store holds the cell's result",
    )
    sweep.add_argument(
        "--allow-errors",
        action="store_true",
        help="exit 0 even when some cells produced error records",
    )
    sweep.add_argument("--output", default="", help="also write the JSON report here")
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived solve service (HTTP/JSON)",
        description=(
            "A threaded HTTP server holding one hot derivation cache (and "
            "optionally a persistent store) across requests.  Identical "
            "concurrent requests coalesce into one computation; GET "
            "/metrics exposes the counters.  SIGTERM/SIGINT (and POST "
            "/shutdown) drain in-flight work and exit 0."
        ),
    )
    _add_service_flags(serve)
    serve.add_argument(
        "--job-ttl",
        type=_arg_positive_float,
        default=600.0,
        help="seconds a *finished* async job stays queryable (default 600)",
    )
    serve.add_argument(
        "--max-jobs",
        type=_arg_positive_int,
        default=256,
        help="bound on tracked async jobs; full of active jobs answers 429",
    )
    serve.add_argument(
        "--store-max-bytes",
        type=_arg_nonnegative_int,
        default=None,
        help=(
            "byte budget the maintenance pass GCs the store down to "
            "(requires --store; default: no GC)"
        ),
    )
    serve.add_argument(
        "--replica-id",
        default="",
        help=(
            "identity of this replica in a fleet (repro fleet passes r0, "
            "r1, ...); reported in /v1/healthz, /v1/metrics, /v1/version"
        ),
    )
    serve.set_defaults(func=_cmd_serve)

    fleet = sub.add_parser(
        "fleet",
        help="run N serve replicas on one store behind a /v1 proxy front",
        description=(
            "Spawns and supervises N `repro serve` processes sharing one "
            "derivation store, and proxies /v1 traffic across whichever "
            "replicas answer healthz 200.  A dead replica is respawned up "
            "to --restart-budget times; `repro fleet restart` (or SIGHUP, "
            "or POST /v1/fleet/restart) rolling-restarts one replica at a "
            "time — drain, respawn, readmit — without failing a request.  "
            "SIGTERM/SIGINT drain every replica and exit 0."
        ),
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command")
    fleet_restart = fleet_sub.add_parser(
        "restart", help="rolling-restart a running fleet (POST /v1/fleet/restart)"
    )
    fleet_restart.add_argument(
        "--url", default="http://127.0.0.1:8080", help="fleet front endpoint"
    )
    fleet_restart.add_argument(
        "--timeout", type=float, default=300.0, help="request deadline in seconds"
    )
    _add_service_flags(fleet)
    fleet.add_argument(
        "--replicas",
        type=_arg_positive_int,
        default=2,
        help="serve replica processes to spawn (default 2)",
    )
    fleet.add_argument(
        "--restart-budget",
        type=_arg_nonnegative_int,
        default=3,
        help="unexpected-death respawns allowed per replica (default 3)",
    )
    fleet.set_defaults(func=_cmd_fleet)

    submit = sub.add_parser(
        "submit",
        help="submit a problem or workflow file to a running solve service",
        description=(
            "Sends one solve request to `repro serve`.  Problem files are "
            "submitted with their baked Γ/kind/requirements; workflow files "
            "(or problem files with an explicit --gamma) derive requirement "
            "lists server-side, where they are cached and coalesced across "
            "clients."
        ),
    )
    submit.add_argument("file", help="problem or workflow JSON file")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8080", help="service endpoint"
    )
    submit.add_argument("--solver", default="auto")
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument(
        "--gamma",
        type=int,
        default=None,
        help="derive at this Γ server-side (required meaning for workflow files)",
    )
    submit.add_argument("--kind", default="set", choices=["set", "cardinality"])
    submit.add_argument("--verify", action="store_true")
    submit.add_argument(
        "--timeout", type=float, default=0.0, help="request deadline in seconds"
    )
    submit.add_argument(
        "--async",
        dest="async_job",
        action="store_true",
        help=(
            "submit as an asynchronous job (POST /jobs/sweep) and print the "
            "job handle instead of waiting for the record"
        ),
    )
    submit.add_argument(
        "--watch",
        action="store_true",
        help=(
            "with --async (implied): poll the job, stream progress to "
            "stderr, print the final status; exit 1 on failed cells"
        ),
    )
    submit.set_defaults(func=_cmd_submit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --help/--version (code 0) and on unknown or
        # malformed subcommands (code 2, after printing usage to stderr);
        # surface that as a return code so embedding callers never see the
        # exception.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ProvenanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
