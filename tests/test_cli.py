"""Tests for the command-line interface (python -m repro.cli)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core import SecureViewProblem
from repro.workloads import dump_problem, figure1_workflow


@pytest.fixture
def problem_file(tmp_path) -> str:
    workflow = figure1_workflow()
    problem = SecureViewProblem.from_standalone_analysis(workflow, 2, kind="set")
    path = tmp_path / "figure1.json"
    dump_problem(problem, str(path))
    return str(path)


class TestTopLevel:
    def test_version_flag_prints_version_and_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert any(ch.isdigit() for ch in out)

    def test_unknown_subcommand_exits_nonzero_with_usage(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice" in err

    def test_no_subcommand_exits_nonzero_with_usage(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err


class TestInfoAndSolve:
    def test_info_prints_summary(self, problem_file, capsys):
        assert main(["info", problem_file]) == 0
        out = capsys.readouterr().out
        assert "modules" in out and "Γ" in out
        assert "m1" in out

    def test_solve_writes_solution(self, problem_file, tmp_path, capsys):
        out_path = tmp_path / "solution.json"
        code = main(
            ["solve", problem_file, "--solver", "exact", "--output", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["cost"] > 0
        assert payload["hidden_attributes"]

    def test_solve_with_local_search(self, problem_file, capsys):
        assert main(["solve", problem_file, "--solver", "greedy"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert (
            main(["solve", problem_file, "--solver", "greedy", "--local-search"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["hidden_attributes"]
        # Local search post-processes the named solver's answer; it is not
        # a solver of its own.
        assert payload["solver"] == "greedy"
        assert payload["cost"] <= plain["cost"] + 1e-9

    def test_solve_cost_does_not_depend_on_the_hash_seed(self, tmp_path, capsys):
        # Set order follows PYTHONHASHSEED; a plain float sum over the
        # hidden set printed 25.986999999999995 under seed 1 and
        # 25.987000000000002 under seed 2 on this instance.
        path = tmp_path / "smoke.json"
        argv = ["generate", str(path), "--modules", "5", "--kind", "set"]
        assert main(argv + ["--seed", "0"]) == 0
        capsys.readouterr()
        src_root = str(Path(repro.__file__).resolve().parents[1])
        costs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src_root, env.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "solve", str(path)]
                + ["--solver", "greedy"],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            costs.append(json.loads(completed.stdout)["cost"])
        assert costs[0] == costs[1]

    def test_solve_payload_surfaces_cache_stats(self, problem_file, capsys):
        assert main(["solve", problem_file, "--solver", "exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["cache_stats"]
        for key in (
            "derivation_hits",
            "derivation_misses",
            "store_hits",
            "store_misses",
        ):
            assert isinstance(stats[key], int) and stats[key] >= 0


class TestVerifyAndAttack:
    def _solve(self, problem_file, tmp_path) -> str:
        out_path = tmp_path / "solution.json"
        main(["solve", problem_file, "--solver", "exact", "--output", str(out_path)])
        return str(out_path)

    def test_verify_accepts_good_solution(self, problem_file, tmp_path):
        solution_file = self._solve(problem_file, tmp_path)
        assert main(["verify", problem_file, solution_file, "--brute-force"]) == 0

    def test_verify_rejects_bad_solution(self, problem_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"hidden_attributes": [], "privatized_modules": []}))
        assert main(["verify", problem_file, str(bad)]) == 1

    def test_attack_respects_gamma(self, problem_file, tmp_path, capsys):
        solution_file = self._solve(problem_file, tmp_path)
        assert main(["attack", problem_file, solution_file, "m1"]) == 0
        out = capsys.readouterr().out
        assert "achieved Γ" in out

    def test_attack_flags_breach(self, problem_file, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(
            json.dumps({"hidden_attributes": [], "privatized_modules": []})
        )
        assert main(["attack", problem_file, str(empty), "m1"]) == 1


class TestGenerateAndCompare:
    def test_generate_random_problem(self, tmp_path, capsys):
        out_path = tmp_path / "generated.json"
        argv = ["generate", str(out_path), "--modules", "6"]
        argv += ["--kind", "cardinality", "--seed", "3"]
        assert main(argv) == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["workflow"]["modules"]) == 6

    def test_generate_scientific_problem(self, tmp_path):
        out_path = tmp_path / "sci.json"
        assert main(
            ["generate", str(out_path), "--modules", "10", "--shape", "scientific"]
        ) == 0
        assert out_path.exists()

    def test_compare_prints_table(self, problem_file, capsys):
        assert main(["compare", problem_file, "--methods", "greedy", "set_lp"]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "cost" in out


class TestEngine:
    def test_list_solvers_prints_registry(self, capsys):
        assert main(["engine", "list-solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("exact", "set_lp", "lp_rounding", "greedy", "general_lp"):
            assert name in out
        assert "constraints" in out and "scope" in out

    def test_list_solvers_for_problem_names_auto_choice(self, problem_file, capsys):
        assert main(["engine", "list-solvers", "--problem", problem_file]) == 0
        out = capsys.readouterr().out
        assert "auto would pick 'set_lp'" in out
        assert "lp_rounding" not in out  # wrong constraint kind

    def test_solve_with_solver_flag_and_verify(self, problem_file, capsys):
        assert main(["solve", problem_file, "--solver", "exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"] == "exact"
        assert payload["guarantee"] == "optimal"
        assert payload["certificate"]["ok"] is True

    def test_solve_with_undetermined_modules_exits_zero(self, tmp_path, capsys):
        """``generate --modules 5 --seed 7`` bakes lists that leave modules
        the theorems cannot certify and world enumeration cannot finish:
        their levels and the verdict read null, and the solve succeeds."""
        path = str(tmp_path / "p.json")
        main(["generate", path, "--modules", "5", "--kind", "set", "--seed", "7"])
        capsys.readouterr()
        assert main(["solve", path, "--solver", "auto"]) == 0
        certificate = json.loads(capsys.readouterr().out)["certificate"]
        assert certificate["ok"] is None
        levels = certificate["module_levels"]
        assert None in levels.values()
        assert all(level in (None, 2) for level in levels.values())

    def test_solve_with_seed_is_reproducible(self, tmp_path, capsys):
        problem_path = tmp_path / "card.json"
        main(["generate", str(problem_path), "--modules", "6", "--kind", "cardinality"])
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(
                ["solve", str(problem_path), "--solver", "lp_rounding", "--seed", "7"]
            ) == 0
            outputs.append(json.loads(capsys.readouterr().out)["hidden_attributes"])
        assert outputs[0] == outputs[1]


class TestSweep:
    @pytest.fixture
    def grid_file(self, tmp_path, capsys) -> str:
        for seed in (1, 2):
            main(
                [
                    "generate", str(tmp_path / f"w{seed}.json"),
                    "--modules", "5", "--kind", "set", "--seed", str(seed),
                ]
            )
        capsys.readouterr()
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "workflows": ["w1.json", "w2.json"],
                    "gammas": [2],
                    "kinds": ["set"],
                    "solvers": ["set_lp", "greedy"],
                    "seeds": [0],
                }
            )
        )
        return str(grid)

    def test_sweep_emits_json_report(self, grid_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["sweep", grid_file, "--jobs", "2", "--output", str(out_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out_path.read_text())
        assert printed == written
        assert printed["cells"] == 4 and printed["errors"] == 0
        assert len(printed["records"]) == 4
        assert all("cache" in record for record in printed["records"])

    def test_repeated_sweep_against_warm_store_derives_nothing(
        self, grid_file, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert main(["sweep", grid_file, "--jobs", "2", "--store", store]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["stats"]["derivation_misses"] > 0

        assert main(["sweep", grid_file, "--jobs", "2", "--store", store]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"]["derivation_misses"] == 0
        assert warm["stats"]["result_store_hits"] == warm["cells"]
        scrub = ("seconds", "cache", "from_store")
        assert [
            {k: v for k, v in record.items() if k not in scrub}
            for record in warm["records"]
        ] == [
            {k: v for k, v in record.items() if k not in scrub}
            for record in cold["records"]
        ]

    @pytest.mark.parametrize("flag", [True, False])
    def test_a_grid_naming_verify_gets_the_records_of_one_omitting_it(
        self, grid_file, tmp_path, capsys, flag
    ):
        """``verify`` is no grid key: every record carries ``verified``, and
        a grid naming it is answered from the same stored results."""
        store = str(tmp_path / "store")
        assert main(["sweep", grid_file, "--store", store]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert all(record["verified"] is True for record in plain["records"])
        named = tmp_path / "named.json"
        grid = json.loads(Path(grid_file).read_text())
        named.write_text(json.dumps({**grid, "verify": flag}))
        assert main(["sweep", str(named), "--store", store]) == 0
        again = json.loads(capsys.readouterr().out)
        assert again["stats"]["result_store_hits"] == again["cells"] == 4
        assert again["stats"]["chunks"] == 0
        scrub = ("seconds", "cache", "from_store")
        assert [
            {k: v for k, v in record.items() if k not in scrub}
            for record in again["records"]
        ] == [
            {k: v for k, v in record.items() if k not in scrub}
            for record in plain["records"]
        ]

    def test_solve_with_store_reports_store_hits(self, problem_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["solve", problem_file, "--solver", "exact",
                     "--store", store]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["store"] == store and cold["store_hits"] == 0

        assert main(["solve", problem_file, "--solver", "exact",
                     "--store", store]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["store_hits"] > 0
        assert warm["hidden_attributes"] == cold["hidden_attributes"]
        assert warm["cost"] == cold["cost"]

    def test_compare_accepts_store(self, problem_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["compare", problem_file, "--methods", "greedy", "--no-exact",
                "--store", store]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[0] == first.splitlines()[0]

    def test_sweep_with_error_cells_exits_nonzero_listing_indices(
        self, grid_file, tmp_path, capsys
    ):
        import json as json_module

        grid = json_module.loads(open(grid_file).read())
        grid["solvers"] = ["set_lp", "no-such-solver"]
        bad_grid = tmp_path / "bad-grid.json"
        bad_grid.write_text(json_module.dumps(grid))
        assert main(["sweep", str(bad_grid)]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["errors"] == 2
        failing = [r["index"] for r in report["records"] if "error" in r]
        assert "sweep cell(s) failed" in captured.err
        for index in failing:
            assert str(index) in captured.err

    def test_sweep_allow_errors_tolerates_partial_failures(
        self, grid_file, tmp_path, capsys
    ):
        import json as json_module

        grid = json_module.loads(open(grid_file).read())
        grid["solvers"] = ["set_lp", "no-such-solver"]
        bad_grid = tmp_path / "bad-grid.json"
        bad_grid.write_text(json_module.dumps(grid))
        assert main(["sweep", str(bad_grid), "--allow-errors"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == 2
        assert report["cells"] == 4

    def test_sweep_allow_errors_still_fails_when_every_cell_failed(
        self, grid_file, tmp_path, capsys
    ):
        import json as json_module

        grid = json_module.loads(open(grid_file).read())
        grid["solvers"] = ["no-such-solver"]
        dead_grid = tmp_path / "dead-grid.json"
        dead_grid.write_text(json_module.dumps(grid))
        assert main(["sweep", str(dead_grid), "--allow-errors"]) == 1
        assert "all 2 sweep cell(s) failed" in capsys.readouterr().err

    def test_sweep_missing_grid_errors_cleanly(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_malformed_grid_errors_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", str(bad)]) == 1
        assert "error: invalid grid file" in capsys.readouterr().err

    def test_sweep_empty_grid_errors_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main(["sweep", str(empty)]) == 1
        assert "error: invalid grid file" in capsys.readouterr().err

    def test_sweep_null_axis_takes_its_default(self, grid_file, tmp_path, capsys):
        grid = json.loads(open(grid_file).read())
        grid["seeds"] = None
        null_grid = tmp_path / "null-grid.json"
        null_grid.write_text(json.dumps(grid))
        assert main(["sweep", str(null_grid)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cells"] == 4 and report["errors"] == 0
        assert {record["seed"] for record in report["records"]} == {0}

    def test_sweep_empty_solver_axis_is_an_invalid_grid(
        self, grid_file, tmp_path, capsys
    ):
        grid = json.loads(open(grid_file).read())
        grid["solvers"] = []
        empty_axis = tmp_path / "no-solvers.json"
        empty_axis.write_text(json.dumps(grid))
        assert main(["sweep", str(empty_axis)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: invalid grid file" in captured.err
        assert "'solvers' must not be empty" in captured.err


class TestServeAndSubmit:
    @pytest.fixture
    def server(self):
        from repro.service import ServiceServer, SolveService

        service = SolveService(workers=2, default_timeout=30)
        instance = ServiceServer(service, port=0).start()
        try:
            yield instance
        finally:
            instance.stop(drain_timeout=30)

    def test_submit_problem_file(self, problem_file, server, capsys):
        assert main(["submit", problem_file, "--url", server.url,
                     "--solver", "exact"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cost"] == 3.0
        assert record["resolved_solver"] == "exact"

    def test_submit_with_gamma_derives_server_side(self, problem_file, server, capsys):
        assert main(["submit", problem_file, "--url", server.url,
                     "--gamma", "2", "--kind", "set"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["gamma"] == 2
        assert record["verified"] is True

    def test_submit_twice_hits_the_result_cache(self, problem_file, server, capsys):
        args = ["submit", problem_file, "--url", server.url, "--gamma", "2"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cost"] == first["cost"]
        assert server.service.metrics()["result_hits"]["memory"] >= 1

    def test_submit_unreachable_service_errors_cleanly(self, problem_file, capsys):
        assert main(["submit", problem_file, "--url", "http://127.0.0.1:9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_invalid_request_errors_cleanly(self, tmp_path, server, capsys):
        workflow_only = tmp_path / "broken.json"
        workflow_only.write_text(json.dumps({"modules": [{"name": "broken"}]}))
        assert main(["submit", str(workflow_only), "--url", server.url]) == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_async_prints_the_job_handle(self, problem_file, server, capsys):
        assert main(["submit", problem_file, "--url", server.url,
                     "--solver", "exact", "--async"]) == 0
        handle = json.loads(capsys.readouterr().out)
        assert handle["cells"] == 1
        # The job is real and queryable on the server afterwards.
        from repro.service import ServiceClient

        final = ServiceClient(server.url, timeout=30).wait_job(
            handle["job"], timeout=30, poll=0.02
        )
        assert final["state"] == "done" and final["completed"] == 1

    def test_submit_watch_polls_to_completion(self, problem_file, server, capsys):
        assert main(["submit", problem_file, "--url", server.url,
                     "--solver", "exact", "--watch"]) == 0
        output = capsys.readouterr()
        final = json.loads(output.out)
        assert final["state"] == "done"
        assert final["records"][0]["cost"] == 3.0
        assert "repro submit: job" in output.err  # the progress stream

    def test_submit_watch_failed_cell_exits_nonzero(
        self, problem_file, server, capsys
    ):
        assert main(["submit", problem_file, "--url", server.url,
                     "--solver", "no-such-solver", "--watch"]) == 1
        final = json.loads(capsys.readouterr().out)
        assert final["failed"] == 1


class TestServeFlagValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--result-cache-size", "-1"],
            ["--result-cache-size", "many"],
            ["--job-ttl", "0"],
            ["--max-jobs", "0"],
            ["--store-max-bytes", "-1"],
            ["--maintenance-interval", "soon"],
            ["--maintenance-interval", "-1"],
            ["--exec", "fibers"],
            ["--exec-workers", "0"],
        ],
    )
    def test_nonsensical_values_are_usage_errors(self, flags, capsys):
        assert main(["serve", *flags]) == 2
        assert "error" in capsys.readouterr().err

    def test_exec_workers_requires_process_mode(self, capsys):
        assert main(["serve", "--exec-workers", "2"]) == 2
        assert "requires --exec processes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--store-max-bytes", "1000"], ["--store-max-bytes", "0"]]
    )
    def test_store_maintenance_flags_require_a_store(self, flags, capsys):
        assert main(["serve", *flags]) == 2
        assert "requires --store" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--exec", "threads", "--exec-workers", "2"], ["--exec-workers", "2"]],
    )
    def test_fleet_applies_the_same_cross_flag_checks(self, flags, capsys):
        assert main(["fleet", *flags]) == 2  # refused before any replica spawns
        assert "requires --" in capsys.readouterr().err


class TestFleetReplicaArgv:
    def test_replicas_receive_every_shared_flag_as_given(self):
        import argparse

        from repro.cli import _replica_argv, build_parser

        parser = build_parser()
        commands = next(
            action.choices
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )

        def flag_dests(command: str) -> set[str]:
            actions = commands[command]._actions
            return {a.dest for a in actions if a.option_strings} - {"help"}

        shared = flag_dests("serve") & flag_dests("fleet")
        assert len(shared) == 10
        given = (
            "--workers 3 --exec processes --exec-workers 2 --timeout 12.5 "
            "--result-cache-size 0 --maintenance-interval 0 "
            "--store s --no-quiet"
        ).split()
        for flags in ([], given):
            fleet = parser.parse_args(["fleet", *flags])
            # The supervisor adds --store itself; the front keeps host/port.
            argv = ["serve", "--store", fleet.store, *_replica_argv(fleet)]
            replica = parser.parse_args(argv)
            for dest in shared - {"host", "port"}:
                assert getattr(replica, dest) == getattr(fleet, dest), dest


class TestStoreMaintenance:
    @pytest.fixture
    def warm_store(self, problem_file, tmp_path, capsys) -> str:
        store = str(tmp_path / "store")
        assert main(["solve", problem_file, "--solver", "exact",
                     "--store", store]) == 0
        capsys.readouterr()
        return store

    def test_store_stats_reports_contents(self, warm_store, capsys):
        assert main(["store", "stats", warm_store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["files"] > 0 and stats["bytes"] > 0
        # The solve stored module packs, and no workflow entry.
        assert stats["module_entries"] >= 1
        assert stats["by_kind"]["pack"] >= 1
        assert stats["workflow_entries"] == 0

    def test_store_gc_prunes_to_budget_lru(self, warm_store, tmp_path, capsys):
        import os
        import time

        # Touch one artifact so LRU keeps it over the others.
        newest = None
        for root, _dirs, files in os.walk(warm_store):
            for name in files:
                path = os.path.join(root, name)
                os.utime(path, (time.time() + 60, time.time() + 60))
                newest = path
                break
            if newest:
                break
        budget = os.path.getsize(newest)
        assert main(["store", "gc", warm_store, "--max-bytes", str(budget)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["deleted_files"] > 0
        assert summary["kept_bytes"] <= budget
        assert os.path.exists(newest)

    def test_store_gc_never_deletes_temp_files(self, warm_store, capsys):
        import os

        temp = os.path.join(warm_store, "ab", "entry", "pack.json.tmp-123")
        os.makedirs(os.path.dirname(temp), exist_ok=True)
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write("{}")
        assert main(["store", "gc", warm_store, "--max-bytes", "0"]) == 0
        capsys.readouterr()
        assert os.path.exists(temp)
        assert main(["store", "stats", warm_store]) == 0
        assert json.loads(capsys.readouterr().out)["files"] == 0

    def test_store_gc_rejects_negative_budget_cleanly(self, warm_store, capsys):
        assert main(["store", "gc", warm_store, "--max-bytes", "-1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_store_commands_reject_missing_directory(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["store", "stats", missing]) == 1
        assert "not a store directory" in capsys.readouterr().err
        assert main(["store", "gc", missing, "--max-bytes", "0"]) == 1
        assert "not a store directory" in capsys.readouterr().err
