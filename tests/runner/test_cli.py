"""Tests for the ``python -m repro.runner`` command-line interface."""

import json

import pytest

from repro.runner.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.suite == "test"
        assert args.pipelines == ["Baseline", "Comp.", "Ours"]
        assert args.jobs == 1

    def test_rejects_unknown_pipeline(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--pipelines", "Nope"])

    def test_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--suite", "nope"])

    @pytest.mark.parametrize("argv", [["--mem-limit", "-3"],
                                      ["--mem-limit", "0"],
                                      ["--retries", "-1"]])
    def test_rejects_out_of_range_limits(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[0] in capsys.readouterr().err


class TestMain:
    def run_cli(self, tmp_path, capsys, extra=()):
        store = tmp_path / "sweep.jsonl"
        code = main([
            "--suite", "training", "--size", "2", "--pipelines", "Baseline",
            "--time-limit", "15", "--store", str(store), *extra,
        ])
        assert code == 0
        return store, capsys.readouterr().out

    def test_sweep_writes_store_and_reports(self, tmp_path, capsys):
        store, out = self.run_cli(tmp_path, capsys)
        assert store.exists()
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert len(records) == 2
        assert {record["pipeline"] for record in records} == {"Baseline"}
        assert "runtime comparison" in out
        assert "0 cache hits" in out

    def test_existing_directory_store_holds_results_jsonl(self, tmp_path,
                                                          capsys):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        code = main(["--suite", "training", "--size", "2",
                     "--pipelines", "Baseline", "--time-limit", "15",
                     "--store", str(store_dir)])
        assert code == 0
        path = store_dir / "results.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        assert f"Result store: {path}" in capsys.readouterr().out

    def test_second_invocation_is_fully_cached(self, tmp_path, capsys):
        self.run_cli(tmp_path, capsys)
        store, out = self.run_cli(tmp_path, capsys)
        assert "2 cache hits, 0 executed (100% cached)" in out
        # Aggregates come straight from the store, so they reproduce exactly.
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert len(records) == 2


    def test_missing_binary_exits_2_naming_the_override(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_KISSAT", str(tmp_path / "kissat"))
        code = main(["--suite", "training", "--size", "1",
                     "--backend", "kissat",
                     "--store", str(tmp_path / "sweep.jsonl")])
        assert code == 2
        out = capsys.readouterr().out
        assert "error: solver backend 'kissat' is not available" in out
        assert "REPRO_SOLVER_KISSAT" in out
        assert not (tmp_path / "sweep.jsonl").exists()


class TestPortfolioFlags:
    def test_fold_portfolio_flags_defaults(self):
        from repro.sat.backends import fold_portfolio_flags

        assert fold_portfolio_flags("internal", None, None) \
            == ("internal", {})
        assert fold_portfolio_flags("kissat", None, None) == ("kissat", {})

    def test_fold_portfolio_flags_switches_backend(self):
        from repro.sat.backends import fold_portfolio_flags

        assert fold_portfolio_flags("internal", 4, None) \
            == ("portfolio", {"num_workers": 4})
        assert fold_portfolio_flags("internal", 2, 3) \
            == ("portfolio", {"num_workers": 2, "cube_depth": 3})
        assert fold_portfolio_flags("portfolio", None, 2) \
            == ("portfolio", {"cube_depth": 2})

    def test_fold_portfolio_flags_rejects_bad_combinations(self):
        from repro.errors import BackendError
        from repro.sat.backends import fold_portfolio_flags

        with pytest.raises(BackendError, match="internal solver"):
            fold_portfolio_flags("kissat", 2, None)
        with pytest.raises(BackendError, match="cube-depth"):
            fold_portfolio_flags("internal", 2, 0)
        with pytest.raises(BackendError, match="cube-depth"):
            fold_portfolio_flags("internal", None, 13)
        with pytest.raises(BackendError, match="worker"):
            fold_portfolio_flags("internal", 0, None)

    def test_runner_cli_rejects_oversized_cube_depth(self, capsys):
        code = main(["--suite", "training", "--size", "1",
                     "--pipelines", "Baseline", "--cube-depth", "13"])
        assert code == 2
        assert "cube-depth" in capsys.readouterr().out

    def test_sweep_runs_with_portfolio_backend(self, tmp_path, capsys):
        store = tmp_path / "portfolio.jsonl"
        code = main([
            "--suite", "training", "--size", "1",
            "--pipelines", "Baseline", "--portfolio", "2",
            "--time-limit", "30", "--store", str(store),
        ])
        assert code == 0
        assert store.exists()
        out = capsys.readouterr().out
        assert "1 tasks" in out or "1 instances" in out
