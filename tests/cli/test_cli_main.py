"""Tests for the unified ``repro`` CLI (repro.cli)."""

import json
import stat
import sys
import textwrap

import pytest

from repro.aig.aiger import write_aiger_binary, write_aiger_file
from repro.benchgen import adder_equivalence_miter, random_cnf
from repro.cli import build_parser, main
from repro.cli.main import load_input, parse_recipe, resolve_pipeline, CliError
from repro.cnf import parse_dimacs, read_dimacs_file, write_dimacs_file
from repro.runner.cli import main as runner_main


@pytest.fixture
def sat_cnf_file(tmp_path):
    """A tiny satisfiable formula on disk."""
    cnf = parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n2 3 0\n")
    return str(write_dimacs_file(cnf, tmp_path / "sat.cnf"))


@pytest.fixture
def unsat_cnf_file(tmp_path):
    cnf = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    return str(write_dimacs_file(cnf, tmp_path / "unsat.cnf"))


@pytest.fixture
def miter_aag_file(tmp_path):
    """A small satisfiable LEC miter as ASCII AIGER."""
    aig = adder_equivalence_miter(6, mutated=True, seed=3)
    path = tmp_path / "miter.aag"
    write_aiger_file(aig, path)
    return str(path)


@pytest.fixture
def miter_aig_file(tmp_path):
    """The same circuit in binary AIGER."""
    aig = adder_equivalence_miter(6, mutated=True, seed=3)
    path = tmp_path / "miter.aig"
    path.write_bytes(write_aiger_binary(aig))
    return str(path)


class TestHelpSmoke:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["solve", "--help"],
        ["preprocess", "--help"],
        ["info", "--help"],
    ])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_parser_lists_all_subcommands(self):
        helptext = build_parser().format_help()
        for subcommand in ("solve", "preprocess", "bench", "info"):
            assert subcommand in helptext


class TestSolve:
    def test_solve_sat_cnf(self, sat_cnf_file, capsys):
        code = main(["solve", sat_cnf_file])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        # The v lines form a complete, satisfying, 0-terminated assignment.
        literals = []
        for line in out.splitlines():
            if line.startswith("v"):
                literals.extend(int(tok) for tok in line[1:].split())
        assert literals[-1] == 0
        model = {abs(l): l > 0 for l in literals[:-1]}
        assert read_dimacs_file(sat_cnf_file).evaluate(model)

    def test_solve_unsat_cnf(self, unsat_cnf_file, capsys):
        code = main(["solve", unsat_cnf_file])
        assert code == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_solve_aag_through_ours_pipeline(self, miter_aag_file, capsys):
        code = main(["solve", miter_aag_file, "--pipeline", "ours",
                     "--time-limit", "60"])
        out = capsys.readouterr().out
        assert code == 10
        assert "pipeline Ours" in out
        assert "s SATISFIABLE" in out

    def test_solve_binary_aig(self, miter_aig_file, capsys):
        code = main(["solve", miter_aig_file, "--pipeline", "baseline", "-q"])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        assert "c " not in out  # quiet suppresses comments

    def test_solve_with_recipe_and_lut_size(self, miter_aag_file, capsys):
        code = main(["solve", miter_aag_file, "--pipeline", "comp",
                     "--recipe", "balance,rewrite", "--lut-size", "5"])
        assert code == 10

    def test_json_report(self, sat_cnf_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["solve", sat_cnf_file, "--json", str(report)])
        assert code == 10
        payload = json.loads(report.read_text())
        assert payload["status"] == "SAT"
        assert payload["kind"] == "cnf"
        assert payload["backend"] == "internal"
        assert payload["num_vars"] == 3
        assert payload["stats"]["decisions"] >= 0
        assert payload["model"] is not None

    def test_no_model_flag(self, sat_cnf_file, capsys):
        code = main(["solve", sat_cnf_file, "--no-model"])
        out = capsys.readouterr().out
        assert code == 10
        assert not any(line.startswith("v") for line in out.splitlines())

    def test_recipe_rejected_for_cnf_input(self, sat_cnf_file, capsys):
        code = main(["solve", sat_cnf_file, "--recipe", "balance"])
        assert code == 1
        assert "already CNF" in capsys.readouterr().err

    def test_missing_file_errors_cleanly(self, capsys):
        code = main(["solve", "/nonexistent/formula.cnf"])
        assert code == 1
        assert "no such file" in capsys.readouterr().err

    def test_missing_backend_errors_cleanly(self, sat_cnf_file, capsys):
        code = main(["solve", sat_cnf_file, "--backend", "kissat",
                     "--solver-binary", "/nonexistent/kissat"])
        assert code == 1
        assert "kissat" in capsys.readouterr().err

    def test_missing_backend_fails_before_preprocessing(self, miter_aag_file,
                                                        capsys):
        # The probe must fire before the pipeline runs: no pipeline/encoding
        # comment lines may have been printed when the error surfaces.
        code = main(["solve", miter_aag_file, "--pipeline", "ours",
                     "--backend", "kissat",
                     "--solver-binary", "/nonexistent/kissat"])
        captured = capsys.readouterr()
        assert code == 1
        assert "kissat" in captured.err
        assert "pipeline Ours" not in captured.out

    def test_empty_clause_cnf_is_unsat(self, tmp_path, capsys):
        path = tmp_path / "falsum.cnf"
        path.write_text("p cnf 1 1\n0\n")
        code = main(["solve", str(path)])
        assert code == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_fake_backend_binary_through_cli(self, unsat_cnf_file, tmp_path,
                                             capsys):
        script = tmp_path / "fake.py"
        script.write_text(f"#!{sys.executable}\n" + textwrap.dedent("""\
            import sys
            print("s UNSATISFIABLE")
            sys.exit(20)
            """))
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        code = main(["solve", unsat_cnf_file, "--backend", "kissat",
                     "--solver-binary", str(script)])
        assert code == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out


class TestPreprocess:
    def test_preprocess_writes_cnf(self, miter_aag_file, tmp_path, capsys):
        out_path = tmp_path / "out.cnf"
        code = main(["preprocess", miter_aag_file, "--pipeline", "ours",
                     "-o", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out_path.exists()
        assert str(out_path) in out
        cnf = read_dimacs_file(out_path)
        assert cnf.num_clauses > 0
        # Provenance comments survive in the artifact.
        assert "repro preprocess" in out_path.read_text()

    def test_preprocess_rejects_cnf_input(self, sat_cnf_file, capsys):
        code = main(["preprocess", sat_cnf_file])
        assert code == 1
        assert "already CNF" in capsys.readouterr().err

    def test_preprocess_json(self, miter_aag_file, tmp_path, capsys):
        out_path = tmp_path / "enc.cnf"
        report = tmp_path / "enc.json"
        code = main(["preprocess", miter_aag_file, "-o", str(out_path),
                     "--json", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["output"] == str(out_path)
        assert payload["num_vars"] > 0


class TestInfo:
    def test_info_bare(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "pipelines:" in out
        assert "internal" in out

    def test_info_cnf(self, sat_cnf_file, capsys):
        assert main(["info", sat_cnf_file]) == 0
        out = capsys.readouterr().out
        assert "DIMACS CNF" in out
        assert "variables: 3" in out

    def test_info_aig(self, miter_aig_file, capsys):
        assert main(["info", miter_aig_file]) == 0
        out = capsys.readouterr().out
        assert "AIGER circuit" in out
        assert "AND gates" in out


class TestBenchForwarding:
    def test_bench_runs_a_tiny_sweep(self, tmp_path, capsys):
        store = tmp_path / "sweep.jsonl"
        code = main(["bench", "--suite", "training", "--size", "1",
                     "--pipelines", "Baseline", "--time-limit", "10",
                     "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert store.exists()
        assert "Baseline" in out


class TestHelpers:
    def test_resolve_pipeline_aliases(self):
        assert resolve_pipeline("ours") == "Ours"
        assert resolve_pipeline("Baseline") == "Baseline"
        assert resolve_pipeline("comp") == "Comp."
        assert resolve_pipeline("COMP.") == "Comp."
        with pytest.raises(CliError, match="unknown pipeline"):
            resolve_pipeline("magic")

    def test_parse_recipe(self):
        assert parse_recipe("balance,rewrite") == ["balance", "rewrite"]
        assert parse_recipe("balance rewrite, resub") == [
            "balance", "rewrite", "resub"]
        with pytest.raises(CliError, match="unknown synthesis operation"):
            parse_recipe("balance,frobnicate")

    def test_load_input_sniffs_extensionless_files(self, tmp_path):
        cnf_path = tmp_path / "mystery"
        cnf_path.write_text("p cnf 1 1\n1 0\n")
        kind, cnf = load_input(cnf_path)
        assert kind == "cnf" and cnf.num_vars == 1

        aig = adder_equivalence_miter(4, seed=1)
        aag_path = tmp_path / "mystery2"
        write_aiger_file(aig, aag_path)
        kind, loaded = load_input(aag_path)
        assert kind == "aig" and loaded.num_pis == aig.num_pis

    def test_load_input_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x00\x01\x02 not a circuit")
        with pytest.raises(CliError, match="cannot determine the format"):
            load_input(path)

    def test_random_cnf_round_trips_through_cli_format(self, tmp_path):
        cnf = random_cnf(num_vars=10, num_clauses=30, seed=4)
        path = write_dimacs_file(cnf, tmp_path / "r.cnf")
        kind, loaded = load_input(path)
        assert kind == "cnf"
        assert loaded.clauses == cnf.clauses


class TestSolvePortfolio:
    def test_solve_portfolio_race(self, sat_cnf_file, capsys):
        code = main(["solve", sat_cnf_file, "--portfolio", "2"])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        assert "c portfolio: 2 workers, racing portfolio" in out
        assert "c winner:" in out

    def test_solve_cube_mode_with_json_report(self, sat_cnf_file, capsys,
                                              tmp_path):
        report = tmp_path / "report.json"
        code = main(["solve", sat_cnf_file, "--portfolio", "2",
                     "--cube-depth", "2", "--no-model",
                     "--json", str(report)])
        out = capsys.readouterr().out
        assert code == 10
        assert "cube-and-conquer depth 2" in out
        assert "c cube split: 4 cubes" in out
        payload = json.loads(report.read_text())
        assert payload["backend"] == "portfolio"
        assert payload["portfolio"]["mode"] == "cube"
        assert payload["portfolio"]["num_cubes"] == 4
        assert len(payload["portfolio"]["workers"]) == 2

    def test_solve_unsat_through_portfolio(self, unsat_cnf_file, capsys):
        code = main(["solve", unsat_cnf_file, "--cube-depth", "1"])
        assert code == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_portfolio_rejects_external_backend(self, sat_cnf_file, capsys):
        code = main(["solve", sat_cnf_file, "--portfolio", "2",
                     "--backend", "kissat"])
        assert code == 1
        assert "internal solver" in capsys.readouterr().err

    def test_portfolio_rejects_bad_counts(self, sat_cnf_file, capsys):
        assert main(["solve", sat_cnf_file, "--portfolio", "0"]) == 1
        capsys.readouterr()
        assert main(["solve", sat_cnf_file, "--cube-depth", "0"]) == 1

    def test_portfolio_rejects_solver_binary(self, sat_cnf_file, capsys):
        code = main(["solve", sat_cnf_file, "--portfolio", "2",
                     "--solver-binary", "/opt/kissat"])
        assert code == 1
        assert "solver-binary" in capsys.readouterr().err


class TestSolveNumbers:
    @pytest.mark.parametrize("flag, value", [
        ("--time-limit", "0"), ("--time-limit", "-5"),
        ("--mem-limit", "0"), ("--mem-limit", "-3"),
        ("--retries", "-1"), ("--max-conflicts", "-1"),
        ("--max-decisions", "-1"), ("--max-conflicts", "many"),
    ])
    def test_bad_number_is_a_usage_error(self, sat_cnf_file, flag, value,
                                         capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", sat_cnf_file, flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("command", ["runner", "serve"])
    def test_hard_timeout_must_be_positive(self, command, value, capsys):
        # A negative budget made every runner task fail in setitimer, and 0
        # silently disarmed the timer.
        with pytest.raises(SystemExit) as excinfo:
            if command == "runner":
                runner_main(["--hard-timeout", value])
            else:
                main(["serve", "--hard-timeout", value])
        assert excinfo.value.code == 2
        assert "argument --hard-timeout" in capsys.readouterr().err

    def test_boundary_values_are_accepted(self, sat_cnf_file):
        args = build_parser().parse_args([
            "solve", sat_cnf_file, "--retries", "0", "--max-conflicts", "0",
            "--max-decisions", "0", "--time-limit", "0.5",
            "--mem-limit", "0.5"])
        assert (args.retries, args.max_conflicts, args.max_decisions) \
            == (0, 0, 0)
        assert (args.time_limit, args.mem_limit) == (0.5, 0.5)


class TestSolveOutput:
    @pytest.fixture
    def php7_file(self, tmp_path):
        from repro.benchgen.random_logic import pigeonhole_cnf

        return str(write_dimacs_file(pigeonhole_cnf(7), tmp_path / "php7.cnf"))

    def test_verbose_prints_progress_lines(self, php7_file, capsys):
        main(["solve", php7_file, "-v", "--max-conflicts", "2100"])
        out = capsys.readouterr().out
        assert any(line.startswith("c ") and " conflicts " in line
                   and "conf/s" in line for line in out.splitlines())

    def test_quiet_silences_progress_lines(self, php7_file, capsys):
        main(["solve", php7_file, "-v", "-q", "--max-conflicts", "2100"])
        assert capsys.readouterr().out.splitlines() == ["s UNKNOWN"]

    def test_json_solve_time_is_the_solver_stat(self, sat_cnf_file,
                                                tmp_path):
        report = tmp_path / "report.json"
        assert main(["solve", sat_cnf_file, "--json", str(report)]) == 10
        payload = json.loads(report.read_text())
        assert payload["solve_time"] == payload["stats"]["solve_time"]
