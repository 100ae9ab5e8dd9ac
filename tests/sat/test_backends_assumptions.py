"""Assumption threading through the backend abstraction.

The internal backend forwards assumptions natively to the incremental
solver; the subprocess backend falls back to a per-call re-encode (each
assumption appended as a unit clause) and can only report the trivial
core.
"""

import os
import stat
import textwrap

from repro.cnf import Cnf
from repro.sat.backends import InternalBackend, SubprocessBackend
from repro.sat.solver import CdclSolver


def _chain_cnf() -> Cnf:
    cnf = Cnf(3)
    cnf.add_clause([-1, 2])
    cnf.add_clause([-2, 3])
    return cnf


def _fake_solver(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestInternalBackendAssumptions:
    def test_assumptions_flow_through(self):
        backend = InternalBackend()
        result = backend.solve(_chain_cnf(), assumptions=[1, -3])
        assert result.is_unsat
        assert set(result.core) == {1, -3}

    def test_sat_under_assumptions(self):
        result = InternalBackend().solve(_chain_cnf(), assumptions=[1])
        assert result.is_sat and result.model[3]

    def test_incremental_session(self):
        solver = CdclSolver(_chain_cnf())
        assert isinstance(solver, CdclSolver)
        assert solver.solve(assumptions=[1]).is_sat
        solver.add_clause([-3])
        assert solver.solve(assumptions=[1]).is_unsat


class TestSubprocessBackendAssumptions:
    def test_unit_reencode_reaches_the_binary(self, tmp_path):
        # The fake solver counts the clauses it was handed and answers SAT
        # with the all-false model (which satisfies the implication chain);
        # three assumptions must appear as three extra unit clauses.
        binary = _fake_solver(tmp_path, "fake-counting", """\
            #!/usr/bin/env python3
            import sys
            clauses = 0
            for line in open(sys.argv[-1]):
                line = line.strip()
                if line and not line.startswith(("c", "p")):
                    clauses += line.split().count("0")
            print(f"c clauses seen: {clauses}")
            print("s SATISFIABLE")
            print("v -1 -2 -3 0")
            sys.exit(10)
        """)
        backend = SubprocessBackend("fake", binary=binary)
        result = backend.solve(_chain_cnf(), assumptions=[-1, -2, -3])
        assert result.is_sat
        # The model must be verified against the *constrained* formula, so a
        # model violating an assumption unit would have raised BackendError.
        assert result.model == {1: False, 2: False, 3: False}

    def test_unsat_reports_trivial_core(self, tmp_path):
        binary = _fake_solver(tmp_path, "fake-unsat", """\
            #!/usr/bin/env python3
            import sys
            print("s UNSATISFIABLE")
            sys.exit(20)
        """)
        backend = SubprocessBackend("fake", binary=binary)
        result = backend.solve(_chain_cnf(), assumptions=[1, -3])
        assert result.is_unsat
        assert result.core == [1, -3]

    def test_unsat_without_assumptions_has_empty_core(self, tmp_path):
        binary = _fake_solver(tmp_path, "fake-unsat2", """\
            #!/usr/bin/env python3
            import sys
            print("s UNSATISFIABLE")
            sys.exit(20)
        """)
        result = SubprocessBackend("fake", binary=binary).solve(_chain_cnf())
        assert result.is_unsat
        assert result.core == []
