"""Tests for factoring ISOP covers straight into a flat AND program."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG
from repro.aig.simulate import po_truth_tables
from repro.logic.isop import isop
from repro.logic.sop import factor_cover
from repro.logic.truthtable import tt_and, tt_mask, tt_or, tt_var, tt_xor
from repro.synthesis.resynth import build_factored


def _factored(cubes, nvars):
    """Return ``(table, literals, steps)`` of ``cubes``' factored program."""
    program = []
    code, literals = factor_cover(cubes, nvars, program)
    aig = AIG()
    leaves = [aig.add_pi() for _ in range(nvars)]
    aig.add_po(build_factored(aig, (*program, code), leaves))
    return po_truth_tables(aig)[0], literals, len(program) // 2


class TestFactoring:
    def test_factoring_constant(self):
        program = []
        assert factor_cover(isop(0, 0, 2), 2, program) == (0, 0)
        assert factor_cover(isop(tt_mask(2), tt_mask(2), 2), 2, program) == (1, 0)
        assert program == []

    def test_tautology_cube_makes_the_cover_const1(self):
        program = []
        assert factor_cover([(0b01, 0), (0, 0)], 2, program) == (1, 0)
        assert program == []

    def test_one_literal_cube_is_that_literal(self):
        program = []
        assert factor_cover([(0, 0b10)], 2, program) == (2 * 2 + 1, 1)
        assert program == []

    def test_and_gate_is_one_step(self):
        and_tt = tt_and(tt_var(0, 2), tt_var(1, 2), 2)
        assert _factored(isop(and_tt, and_tt, 2), 2) == (and_tt, 2, 1)

    def test_factoring_shares_common_literal(self):
        # f = a*b + a*c should factor as a*(b + c): 3 literals instead of 4.
        nvars = 3
        f = tt_or(
            tt_and(tt_var(0, nvars), tt_var(1, nvars), nvars),
            tt_and(tt_var(0, nvars), tt_var(2, nvars), nvars),
            nvars,
        )
        assert _factored(isop(f, f, nvars), nvars) == (f, 3, 2)

    def test_factoring_xor_preserves_function(self):
        nvars = 2
        f = tt_xor(tt_var(0, nvars), tt_var(1, nvars), nvars)
        assert _factored(isop(f, f, nvars), nvars)[0] == f


@st.composite
def _tables(draw, max_vars=4):
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    table = draw(st.integers(min_value=0, max_value=tt_mask(nvars)))
    return nvars, table


class TestFactoringProperties:
    @given(_tables())
    @settings(max_examples=200, deadline=None)
    def test_factoring_preserves_function(self, pair):
        nvars, table = pair
        assert _factored(isop(table, table, nvars), nvars)[0] == table

    @given(_tables())
    @settings(max_examples=100, deadline=None)
    def test_factoring_never_increases_literals(self, pair):
        nvars, table = pair
        cubes = isop(table, table, nvars)
        sop_literals = sum(bin(pos | neg).count("1") for pos, neg in cubes)
        assert _factored(cubes, nvars)[1] <= max(sop_literals, 1)
