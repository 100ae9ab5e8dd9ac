"""CLI tests for ``--proof`` / ``--share-clauses`` and ``repro proof check``.

The acceptance flow of the proof layer: ``repro solve --portfolio N
--share-clauses --proof out.drat`` on an UNSAT input writes a DRAT proof
plus the exact solved CNF as ``out.drat.cnf``, and ``repro proof check``
validates the pair (exit code 0) or rejects a tampered proof (exit 1).
"""

import json

import pytest

from repro.aig.aiger import write_aiger_file
from repro.benchgen.lec import multiplier_commutativity_miter
from repro.benchgen.random_logic import pigeonhole_cnf
from repro.cli import main
from repro.cnf.dimacs import read_dimacs_file, write_dimacs_file


@pytest.fixture
def unsat_cnf_file(tmp_path):
    """PHP(4,3): small but conflict-bearing, so proofs have real lemmas."""
    return str(write_dimacs_file(pigeonhole_cnf(3), tmp_path / "php3.cnf"))


@pytest.fixture
def sat_cnf_file(tmp_path):
    from repro.cnf.dimacs import parse_dimacs

    cnf = parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n2 3 0\n")
    return str(write_dimacs_file(cnf, tmp_path / "sat.cnf"))


@pytest.fixture
def unsat_miter_file(tmp_path):
    """An UNSAT commutativity miter circuit (the acceptance instance)."""
    path = tmp_path / "miter.aag"
    write_aiger_file(multiplier_commutativity_miter(3), path)
    return str(path)


class TestSolveProofFlag:
    def test_unsat_writes_proof_and_sibling_cnf(self, unsat_cnf_file,
                                                tmp_path, capsys):
        proof = tmp_path / "out.drat"
        code = main(["solve", unsat_cnf_file, "--proof", str(proof)])
        out = capsys.readouterr().out
        assert code == 20
        assert proof.exists()
        assert (tmp_path / "out.drat.cnf").exists()
        assert "repro proof check" in out
        # The sibling CNF is the formula that was actually solved.
        sibling = read_dimacs_file(str(tmp_path / "out.drat.cnf"))
        original = read_dimacs_file(unsat_cnf_file)
        assert sibling.clauses == original.clauses

    def test_proof_then_check_round_trip(self, unsat_cnf_file, tmp_path,
                                         capsys):
        proof = tmp_path / "out.drat"
        assert main(["solve", unsat_cnf_file, "--proof", str(proof)]) == 20
        code = main(["proof", "check", str(tmp_path / "out.drat.cnf"),
                     str(proof)])
        out = capsys.readouterr().out
        assert code == 0
        assert "s VERIFIED" in out

    def test_portfolio_sharing_proof_round_trip(self, unsat_cnf_file,
                                                tmp_path, capsys):
        """The ISSUE acceptance flow, minus the instance size."""
        proof = tmp_path / "out.drat"
        code = main(["solve", unsat_cnf_file, "--portfolio", "2",
                     "--share-clauses", "--proof", str(proof)])
        out = capsys.readouterr().out
        assert code == 20
        assert "with clause sharing" in out
        assert "sharing: exported" in out
        assert main(["proof", "check", str(tmp_path / "out.drat.cnf"),
                     str(proof)]) == 0

    def test_unsat_miter_circuit_proof(self, unsat_miter_file, tmp_path,
                                       capsys):
        """Circuit input: the proof refutes the *preprocessed* CNF."""
        proof = tmp_path / "miter.drat"
        code = main(["solve", unsat_miter_file, "--pipeline", "baseline",
                     "--proof", str(proof)])
        capsys.readouterr()
        assert code == 20
        assert main(["proof", "check", str(tmp_path / "miter.drat.cnf"),
                     str(proof)]) == 0

    def test_sat_reports_no_proof(self, sat_cnf_file, tmp_path, capsys):
        proof = tmp_path / "sat.drat"
        code = main(["solve", sat_cnf_file, "--proof", str(proof)])
        out = capsys.readouterr().out
        assert code == 10
        assert not proof.exists()
        assert "no DRAT proof produced" in out

    def test_json_report_carries_proof_path(self, unsat_cnf_file, tmp_path,
                                            capsys):
        proof = tmp_path / "out.drat"
        report = tmp_path / "report.json"
        main(["solve", unsat_cnf_file, "--proof", str(proof),
              "--json", str(report)])
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["proof"] == str(proof)

    def test_cdcl_alias_writes_proof(self, unsat_cnf_file, tmp_path):
        """``cdcl`` names the internal solver, so it can prove UNSAT."""
        proof = tmp_path / "out.drat"
        assert main(["solve", unsat_cnf_file, "--backend", "cdcl",
                     "--proof", str(proof)]) == 20
        assert main(["proof", "check", str(tmp_path / "out.drat.cnf"),
                     str(proof)]) == 0

    def test_external_backend_rejected_before_solving(self, unsat_cnf_file,
                                                      capsys):
        code = main(["solve", unsat_cnf_file, "--backend", "kissat",
                     "--proof", "x.drat"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot emit a checkable DRAT proof" in err

    def test_share_clauses_needs_portfolio(self, unsat_cnf_file, capsys):
        code = main(["solve", unsat_cnf_file, "--share-clauses"])
        assert code == 1
        assert "--portfolio" in capsys.readouterr().err

    def test_share_clauses_rejects_cube_mode(self, unsat_cnf_file, capsys):
        code = main(["solve", unsat_cnf_file, "--cube-depth", "2",
                     "--share-clauses"])
        assert code == 1
        assert "--cube-depth" in capsys.readouterr().err


class TestProofCheckCommand:
    def _solved(self, unsat_cnf_file, tmp_path, capsys):
        proof = tmp_path / "out.drat"
        main(["solve", unsat_cnf_file, "--proof", str(proof)])
        capsys.readouterr()
        return str(tmp_path / "out.drat.cnf"), str(proof)

    def test_tampered_proof_rejected(self, unsat_cnf_file, tmp_path,
                                     capsys):
        cnf_path, proof = self._solved(unsat_cnf_file, tmp_path, capsys)
        # Remove the empty clause: no refutation is derived any more.
        lines = [line for line in open(proof).read().splitlines()
                 if line.strip() != "0"]
        open(proof, "w").write("\n".join(lines) + "\n")
        code = main(["proof", "check", cnf_path, proof])
        out = capsys.readouterr().out
        assert code == 1
        assert "s NOT VERIFIED" in out
        assert "empty clause" in out

    def test_check_all_flag(self, unsat_cnf_file, tmp_path, capsys):
        cnf_path, proof = self._solved(unsat_cnf_file, tmp_path, capsys)
        code = main(["proof", "check", cnf_path, proof, "--all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all lemmas" in out

    def test_json_report(self, unsat_cnf_file, tmp_path, capsys):
        cnf_path, proof = self._solved(unsat_cnf_file, tmp_path, capsys)
        report = tmp_path / "check.json"
        code = main(["proof", "check", cnf_path, proof,
                     "--json", str(report)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["valid"] is True
        assert payload["lemmas"] >= 1

    def test_missing_proof_file_errors_cleanly(self, unsat_cnf_file,
                                               capsys):
        code = main(["proof", "check", unsat_cnf_file, "/no/such.drat"])
        assert code == 1
        assert "no such file" in capsys.readouterr().err

    def test_circuit_input_rejected(self, unsat_miter_file, tmp_path,
                                    capsys):
        proof = tmp_path / "p.drat"
        proof.write_text("0\n")
        code = main(["proof", "check", unsat_miter_file, str(proof)])
        assert code == 1
        assert "circuit" in capsys.readouterr().err

    def test_help_lists_proof_subcommand(self, capsys):
        from repro.cli import build_parser

        assert "proof" in build_parser().format_help()
