"""Tests for the ``repro sweep`` verb and the ``--sweep`` solve/preprocess flag."""

import json

import pytest

from repro.aig.aiger import load_aiger, write_aiger_file
from repro.aig.simulate import po_truth_tables
from repro.benchgen.lec import multiplier_commutativity_miter
from repro.cli import main
from repro.cli.main import parse_recipe
from repro.cnf import write_dimacs_file
from repro.benchgen import random_cnf


@pytest.fixture
def miter_file(tmp_path):
    aig = multiplier_commutativity_miter(3)
    path = tmp_path / "miter.aag"
    write_aiger_file(aig, path)
    return str(path)


@pytest.fixture
def wide_miter_file(tmp_path):
    """8 inputs: above the exhaustive threshold at 128 patterns."""
    path = tmp_path / "wide.aag"
    write_aiger_file(multiplier_commutativity_miter(4), path)
    return str(path)


@pytest.fixture
def cnf_file(tmp_path):
    return str(write_dimacs_file(random_cnf(num_vars=10, num_clauses=30,
                                            seed=1), tmp_path / "f.cnf"))


class TestSweepVerb:
    def test_sweep_writes_equivalent_ascii_aiger(self, miter_file, tmp_path,
                                                 capsys):
        output = tmp_path / "swept.aag"
        assert main(["sweep", miter_file, "-o", str(output)]) == 0
        captured = capsys.readouterr().out
        assert "swept:" in captured and str(output) in captured
        swept = load_aiger(output)
        original = load_aiger(miter_file)
        assert po_truth_tables(swept) == po_truth_tables(original)
        assert swept.num_ands < original.num_ands

    def test_sweep_writes_binary_for_aig_suffix(self, miter_file, tmp_path):
        output = tmp_path / "swept.aig"
        assert main(["sweep", miter_file, "-o", str(output)]) == 0
        assert output.read_bytes().startswith(b"aig ")
        assert load_aiger(output).num_pis == 6

    def test_sweep_default_output_name(self, miter_file, tmp_path,
                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", miter_file]) == 0
        assert (tmp_path / "miter.fraig.aag").exists()

    def test_sweep_json_report(self, miter_file, tmp_path):
        report = tmp_path / "report.json"
        assert main(["sweep", miter_file, "-o", str(tmp_path / "s.aag"),
                     "--json", str(report), "-q"]) == 0
        payload = json.loads(report.read_text())
        assert payload["stats"]["merges"] > 0
        assert payload["stats"]["nodes_after"] == 0

    def test_sweep_flags_are_forwarded(self, wide_miter_file, tmp_path):
        report = tmp_path / "report.json"
        assert main(["sweep", wide_miter_file, "-o", str(tmp_path / "s.aag"),
                     "--conflict-budget", "1", "--patterns", "128",
                     "--json", str(report), "-q"]) == 0
        payload = json.loads(report.read_text())
        assert payload["stats"]["undecided"] > 0
        assert payload["stats"]["sim_patterns"] == 128

    def test_sweep_rejects_cnf_input(self, cnf_file, capsys):
        assert main(["sweep", cnf_file]) == 1
        assert "circuit" in capsys.readouterr().err


class TestSweepFlag:
    def test_solve_baseline_with_sweep(self, miter_file):
        # The equivalence miter is UNSAT; sweeping must preserve that.
        assert main(["solve", miter_file, "--pipeline", "baseline",
                     "--sweep", "--no-model", "-q"]) == 20

    def test_solve_ours_with_sweep_and_alias_recipe(self, miter_file):
        assert main(["solve", miter_file, "--pipeline", "ours",
                     "--recipe", "b,rw,f", "--sweep",
                     "--no-model", "-q"]) == 20

    def test_preprocess_with_sweep_shrinks_cnf(self, miter_file, tmp_path):
        plain = tmp_path / "plain.json"
        swept = tmp_path / "swept.json"
        assert main(["preprocess", miter_file, "--pipeline", "baseline",
                     "-o", str(tmp_path / "p.cnf"), "--json", str(plain),
                     "-q"]) == 0
        assert main(["preprocess", miter_file, "--pipeline", "baseline",
                     "--sweep", "-o", str(tmp_path / "s.cnf"),
                     "--json", str(swept), "-q"]) == 0
        assert (json.loads(swept.read_text())["num_vars"]
                < json.loads(plain.read_text())["num_vars"])

    def test_sweep_flag_rejected_for_cnf_input(self, cnf_file, capsys):
        assert main(["solve", cnf_file, "--sweep"]) == 1
        assert "--sweep" in capsys.readouterr().err


class TestRecipeAliases:
    def test_parse_recipe_expands_aliases(self):
        assert parse_recipe("b,rw,f") == ["balance", "rewrite", "fraig"]
        assert parse_recipe("fraig balance") == ["fraig", "balance"]

    def test_info_lists_fraig(self, capsys):
        assert main(["info"]) == 0
        assert "fraig" in capsys.readouterr().out
