"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from suite_helpers import (
    legacy_memo_frame,
    priced_w1_designs,
    run_fresh_python,
    sample_design_pairs,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.workload == "W3"
        assert args.episodes == 200

    def test_workload_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--workload", "W9"])

    def test_experiment_targets(self):
        args = build_parser().parse_args(["experiments", "table2"])
        assert args.target == "table2"

    def test_unknown_experiment_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "table9"])


class TestCommands:
    def test_search_command(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        code = main(["search", "--episodes", "4", "--seed", "5",
                     "--progress", "0", "--out", str(out)])
        captured = capsys.readouterr().out
        assert "NASAIC[W3]" in captured
        assert out.exists()
        assert code in (0, 1)

    def test_nas_command(self, capsys):
        code = main(["nas", "--episodes", "5", "--workload", "W3"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "genotype" in captured
        assert "weighted" in captured

    def test_mc_command(self, capsys):
        code = main(["mc", "--runs", "10", "--workload", "W3",
                     "--seed", "3"])
        captured = capsys.readouterr().out
        assert "MC[W3]" in captured
        assert code in (0, 1)

    def test_evolve_command(self, capsys):
        code = main(["evolve", "--population", "6", "--generations", "2",
                     "--workload", "W3"])
        captured = capsys.readouterr().out
        assert "EA[W3]" in captured
        assert code in (0, 1)

    def test_experiments_table2(self, capsys):
        code = main(["experiments", "table2", "--episodes", "15",
                     "--mc-runs", "30", "--seed", "3"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Table II" in captured

    def test_experiments_infeasible_search_exits_1_on_one_line(
            self, capsys, monkeypatch):
        """A table whose NASAIC row finds no feasible solution reports
        the named error on one stderr line and exits 1, no traceback.
        Specs no design can meet force the case in a 2-episode run."""
        import repro.workloads as workloads
        from repro.workloads.workload import DesignSpecs

        real_w1 = workloads.w1
        monkeypatch.setattr(workloads, "w1", lambda: real_w1().with_specs(
            DesignSpecs(latency_cycles=1, energy_nj=1e-9, area_um2=1.0)))
        code = main(["experiments", "table1", "--episodes", "2",
                     "--mc-runs", "2", "--seed", "6"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("repro experiments: NASAIC found no feasible "
                       "solution on W1; increase episodes\n")

    def test_campaign_command(self, capsys, tmp_path):
        out = tmp_path / "campaign.json"
        code = main(["campaign", "--workloads", "W1",
                     "--strategies", "nasaic,mc", "--budgets", "2,4",
                     "--seed", "5", "--out", str(out)])
        captured = capsys.readouterr().out
        assert "Campaign: 4 scenarios" in captured
        assert "W1/mc/b4/s5" in captured
        assert out.exists()
        assert code in (0, 1)
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-campaign"
        assert len(payload["scenarios"]) == 4

    def test_campaign_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit, match="annealing"):
            main(["campaign", "--strategies", "annealing"])

    def test_campaign_rejects_unknown_workload(self):
        with pytest.raises(SystemExit, match="W9"):
            main(["campaign", "--workloads", "W9"])

    def test_search_checkpoint_resume_matches_straight_run(
            self, capsys, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        straight = tmp_path / "straight.json"
        resumed = tmp_path / "resumed.json"
        base = ["search", "--workload", "W1", "--episodes", "4",
                "--seed", "5", "--progress", "0"]
        main(base + ["--out", str(straight)])
        # A run that checkpoints every episode, then a fresh process
        # resuming from the latest mid-run checkpoint.
        main(base + ["--checkpoint", str(ckpt),
                     "--checkpoint-every", "2"])
        assert ckpt.exists()
        code = main(base + ["--resume", str(ckpt), "--out", str(resumed)])
        capsys.readouterr()
        assert code in (0, 1)
        a = json.loads(straight.read_text())
        b = json.loads(resumed.read_text())
        a["eval_seconds"] = b["eval_seconds"] = 0.0
        assert a == b


class TestNonNegativeArgs:
    @pytest.mark.parametrize("argv", [
        ["search", "--cache-size", "-1"],
        ["search", "--service-retries", "-2"],
        ["evolve", "--cache-size", "-1"],
        ["campaign", "--cache-size", "-1"],
        ["serve", "--socket", "/tmp/p.sock", "--cache-size", "-1"],
        ["campaign", "--workers", "-3"],
    ])
    def test_negative_counts_rejected_by_parser(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["nas", "--workload", "W1", "--episodes", "0"],
        ["mc", "--runs", "0"],
        ["search", "--episodes", "0"],
        ["search", "--hw-steps", "-1"],
        ["search", "--checkpoint-every", "-1"],
        ["evolve", "--population", "0"],
        ["evolve", "--generations", "0"],
        ["experiments", "table1", "--episodes", "0"],
        ["experiments", "table1", "--mc-runs", "0"],
        ["campaign", "--budgets", "0"],
        ["campaign", "--budgets", "4,0"],
    ])
    def test_bad_counts_exit_2_with_one_error_line(self, argv, capsys):
        """A count the run's config would refuse dies in the parser:
        exit 2 and one error line, not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
        assert f"argument {argv[-2]}" in errors[0]

    @pytest.mark.parametrize("argv", [
        ["search", "--workers", "2"],
        ["evolve", "--workers", "2"],
        ["campaign", "--eval-workers", "2"],
        ["serve", "--socket", "/tmp/p.sock", "--workers", "2"],
    ])
    def test_per_batch_pool_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_zero_cache_size_still_allowed(self):
        args = build_parser().parse_args(["search", "--cache-size", "0"])
        assert args.cache_size == 0

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_inflight_must_be_positive(self, value, capsys):
        """A submit must be allowed at least one miss: 0 dies in the
        parser instead of running as some other bound."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--socket", "/tmp/p.sock",
                                       "--max-inflight", value])
        assert "must be a positive integer" in capsys.readouterr().err


class TestStoreFlag:
    def test_search_store_warm_start(self, capsys, tmp_path):
        store = tmp_path / "evals.store"
        argv = ["search", "--episodes", "3", "--seed", "5",
                "--progress", "0", "--store", str(store)]
        main(argv)
        assert store.exists()
        capsys.readouterr()
        main(argv)
        # The repeat run answers everything from the persistent store.
        assert "from store" in capsys.readouterr().out

    def test_campaign_store_flag(self, capsys, tmp_path):
        store = tmp_path / "campaign.store"
        out = tmp_path / "campaign.json"
        argv = ["campaign", "--workloads", "W3", "--strategies", "mc",
                "--budgets", "30", "--store", str(store),
                "--out", str(out)]
        main(argv)
        assert store.exists()
        payload = json.loads(out.read_text())
        assert payload["cache"]["store_hits"] == 0
        main(argv)
        payload = json.loads(out.read_text())
        assert payload["cache"]["store_hits"] > 0
        assert payload["cache"]["misses"] == 0


class TestStoreCommand:
    @staticmethod
    def seeded(tmp_path):
        """One evaluation plus three cost-memo records an older version
        appended, re-indexed by a writer open."""
        from repro.core import EvalStore

        path = tmp_path / "maint.store"
        with EvalStore(path) as store:
            store.put("s", "d1", *priced_w1_designs()[0])
        with open(path, "ab") as handle:
            for i in range(3):
                handle.write(legacy_memo_frame(i))
        EvalStore(path).close()
        return path

    def test_stats_reports_gauges(self, capsys, tmp_path):
        path = self.seeded(tmp_path)
        assert main(["store", "stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "3 redundant records" in out
        assert "offset index" in out

    def test_compact_drops_redundant_and_preserves_answers(
            self, capsys, tmp_path):
        from repro.core import EvalStore

        path = self.seeded(tmp_path)
        size_before = path.stat().st_size
        assert main(["store", "compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 old memo records dropped" in out
        assert path.stat().st_size < size_before
        with EvalStore(path, read_only=True) as store:
            key, evaluation = priced_w1_designs()[0]
            assert store.get("s", "d1", key) == evaluation
            assert len(store) == 1 and store.redundant_records == 0

    def test_compact_threshold_skips(self, capsys, tmp_path):
        path = self.seeded(tmp_path)
        before = path.read_bytes()
        assert main(["store", "compact", str(path),
                     "--min-redundant", "10"]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert path.read_bytes() == before

    def test_compact_recover_quarantines_torn_tail(self, capsys,
                                                   tmp_path):
        path = self.seeded(tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        assert main(["store", "compact", str(path), "--recover"]) == 0
        out = capsys.readouterr().out
        assert "recovered before compacting" in out
        assert path.with_name(path.name + ".corrupt").exists()

    def test_missing_store_fails(self, capsys, tmp_path):
        assert main(["store", "stats", str(tmp_path / "nope.bin")]) == 1
        assert "no evaluation store" in capsys.readouterr().out


class TestServiceFlags:
    def test_service_tuning_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.fallback is None
        assert args.service_timeout == 600.0
        assert args.service_retries == 4

    def test_serve_hardening_defaults(self):
        args = build_parser().parse_args(["serve", "--socket",
                                          "/tmp/p.sock"])
        assert args.status is False
        assert args.read_timeout is None
        assert args.write_timeout == 60.0
        assert args.max_inflight == 256

    def test_fallback_requires_service(self):
        with pytest.raises(SystemExit, match="requires --service"):
            main(["search", "--episodes", "2", "--fallback", "local"])

    def test_serve_status_without_daemon_fails(self, capsys, tmp_path):
        code = main(["serve", "--status",
                     "--socket", str(tmp_path / "nobody.sock")])
        assert code == 1
        assert "no pricing daemon reachable" in capsys.readouterr().out

    def test_serve_status_reports_live_daemon(self, capsys):
        """The status report names queued appends and per-context
        shared hits; nothing is in flight across submits, so it
        reports no in-flight or coalesced work."""
        from repro.core.client import RemoteEvalService
        from repro.core.server import serve_in_thread
        from repro.cost.model import CostModelParams
        from repro.workloads import w1

        workload = w1()
        designs = sample_design_pairs(workload, n=1, seed=21)
        with serve_in_thread() as server:
            for _ in range(2):
                with RemoteEvalService(server.socket_path, workload,
                                       CostModelParams(), 10.0) as client:
                    client.evaluate_many(designs)
            code = main(["serve", "--status",
                         "--socket", str(server.socket_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 hosted contexts, 0 queued appends" in out
        assert "2 requests, 1 hits (50.0%, 1 shared, 0 from store)" in out
        assert "in flight" not in out
        assert "coalesced" not in out.split("counters:")[0]

    def test_degraded_run_records_fault_flags_in_json(
            self, capsys, tmp_path):
        """--fallback local against a dead daemon completes and the run
        JSON pricing block says so (degradation at construction must
        not be erased by the driver's delta accounting)."""
        out = tmp_path / "run.json"
        with pytest.warns(RuntimeWarning, match="degrading to local"):
            code = main(["mc", "--runs", "4", "--workload", "W3",
                         "--seed", "3",
                         "--service", str(tmp_path / "nobody.sock"),
                         "--service-retries", "1",
                         "--fallback", "local", "--out", str(out)])
        assert code in (0, 1)
        pricing = json.loads(out.read_text())["pricing"]
        assert pricing["degraded"] is True
        capsys.readouterr()


class TestFuzzCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.cases is None and args.minutes is None
        assert args.seed == 0
        assert args.repro_dir == "fuzz-repros"

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--cases", "0"],
        ["fuzz", "--cases", "-3"],
        ["fuzz", "--minutes", "0"],
        ["fuzz", "--minutes", "-1"],
    ])
    def test_non_positive_budgets_rejected_by_parser(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "positive" in capsys.readouterr().err

    def test_green_run_writes_report(self, capsys, tmp_path):
        report = tmp_path / "fuzz.json"
        code = main(["fuzz", "--cases", "2", "--seed", "0", "--quiet",
                     "--report", str(report),
                     "--repro-dir", str(tmp_path / "repros")])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz: 2 scenarios" in out and "OK" in out
        payload = json.loads(report.read_text())
        assert payload["ok"] and payload["cases"] == 2
        assert not (tmp_path / "repros").exists() \
            or not list((tmp_path / "repros").iterdir())

    def test_pair_subset_and_unknown_pair(self, capsys, tmp_path):
        code = main(["fuzz", "--cases", "1", "--quiet",
                     "--pairs", "cost-table,hap-modes",
                     "--repro-dir", str(tmp_path)])
        assert code == 0
        assert "cost-table=1" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="unknown oracle pair"):
            main(["fuzz", "--cases", "1", "--pairs", "bogus"])

    def test_failure_exit_code_and_repro(self, capsys, tmp_path,
                                         monkeypatch):
        """An injected perturbation drives exit code 1 and a persisted
        repro under --repro-dir."""
        import dataclasses

        from repro.cost.model import CostModel

        original = CostModel.layer_cost

        def perturbed(self, layer, sub):
            cost = original(self, layer, sub)
            return dataclasses.replace(
                cost, energy_nj=cost.energy_nj * (1.0 + 1e-7))

        monkeypatch.setattr(CostModel, "layer_cost", perturbed)
        repro_dir = tmp_path / "repros"
        code = main(["fuzz", "--cases", "1", "--quiet",
                     "--pairs", "cost-table",
                     "--repro-dir", str(repro_dir)])
        assert code == 1
        assert "FAILURE" in capsys.readouterr().out
        assert list(repro_dir.glob("repro-cost-table-*.json"))


class TestGeneratedCampaign:
    def test_generated_scenarios_join_the_grid(self, capsys, tmp_path):
        out = tmp_path / "campaign.json"
        code = main(["campaign", "--workloads", "W3", "--strategies",
                     "mc", "--budgets", "4", "--generated", "2",
                     "--generated-classes", "tiny", "--out", str(out)])
        assert code in (0, 1)
        payload = json.loads(out.read_text())
        names = [s["workload"] for s in payload["scenarios"]]
        assert names[0] == "W3"
        assert sum(name.startswith("G") for name in names) == 2
        assert all("-tiny" in name for name in names[1:])

    def test_generated_only_grid(self, capsys, tmp_path):
        out = tmp_path / "campaign.json"
        code = main(["campaign", "--workloads", "", "--strategies", "mc",
                     "--budgets", "3", "--generated", "1",
                     "--generated-classes", "small", "--out", str(out)])
        assert code in (0, 1)
        payload = json.loads(out.read_text())
        assert len(payload["scenarios"]) == 1
        assert payload["scenarios"][0]["workload"].endswith("-small")

    def test_unknown_generated_class_rejected(self):
        with pytest.raises(SystemExit, match="size class"):
            main(["campaign", "--generated", "1",
                  "--generated-classes", "mega"])


class TestWithoutScipy:
    def test_cli_commands_need_no_scipy(self):
        """The package installs without scipy: mc and search never
        import it."""
        result = run_fresh_python("""
            import sys
            sys.modules["scipy"] = None  # any scipy import now raises

            from repro.cli import main

            # 8 runs: seed 0's first 4 designs are all infeasible (exit 1).
            assert main(["mc", "--workload", "W1", "--runs", "8",
                         "--seed", "0"]) == 0
            assert main(["search", "--workload", "W1", "--episodes", "2",
                         "--hw-steps", "2", "--progress", "0"]) == 0
        """)
        assert result.returncode == 0, result.stderr
