"""Tests for the Minato--Morreale ISOP cover computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TruthTableError
from repro.logic.isop import clause_template, cover_to_tt, isop
from repro.logic.truthtable import (
    tt_and,
    tt_mask,
    tt_not,
    tt_or,
    tt_var,
    tt_xor,
)


class TestCube:
    """Cubes are ``(pos_mask, neg_mask)`` int pairs."""

    def test_to_tt_tautology(self):
        assert cover_to_tt([(0, 0)], 2) == tt_mask(2)

    def test_to_tt_single_literal(self):
        assert cover_to_tt([(0b10, 0)], 2) == tt_var(1, 2)

    def test_contains_minterm(self):
        # x0 & ~x2 holds exactly on the minterms with bit 0 set and bit 2 clear.
        table = cover_to_tt([(0b001, 0b100)], 3)
        assert table == sum(1 << m for m in range(8) if m & 1 and not m & 4)

    def test_literals_and_count(self):
        # The cover of x0 & ~x2 is that one cube; its clause lists the two
        # literals in ascending variable order, then the output.
        table = cover_to_tt([(0b001, 0b100)], 3)
        assert isop(table, table, 3) == [(0b001, 0b100)]
        assert clause_template(table, 3)[0] == (-1, 3, 4)


class TestIsop:
    def test_constants(self):
        assert isop(0, 0, 3) == []
        cover = isop(tt_mask(3), tt_mask(3), 3)
        assert cover == [(0, 0)]

    def test_and_gate_cover(self):
        and_tt = tt_and(tt_var(0, 2), tt_var(1, 2), 2)
        cover = isop(and_tt, and_tt, 2)
        assert cover == [(0b11, 0)]
        assert cover_to_tt(cover, 2) == and_tt

    def test_xor_needs_two_cubes(self):
        xor_tt = tt_xor(tt_var(0, 2), tt_var(1, 2), 2)
        assert len(isop(xor_tt, xor_tt, 2)) == 2

    def test_and_offset_has_two_cubes(self):
        # Paper Fig. 3: the AND gate has 2 cubes justifying output 0.
        and_tt = tt_and(tt_var(0, 2), tt_var(1, 2), 2)
        nand_tt = tt_not(and_tt, 2)
        assert sorted(isop(nand_tt, nand_tt, 2)) == [(0, 0b01), (0, 0b10)]

    def test_or_gate_cover(self):
        or_tt = tt_or(tt_var(0, 2), tt_var(1, 2), 2)
        cover = isop(or_tt, or_tt, 2)
        assert cover_to_tt(cover, 2) == or_tt
        assert len(cover) == 2

    def test_rejects_inconsistent_bounds(self):
        with pytest.raises(TruthTableError):
            isop(tt_mask(2), 0, 2)

    def test_interval_cover_between_bounds(self):
        lower = tt_and(tt_var(0, 3), tt_var(1, 3), 3)
        upper = tt_or(lower, tt_var(2, 3), 3)
        cover = isop(lower, upper, 3)
        table = cover_to_tt(cover, 3)
        assert (lower & ~table) == 0
        assert (table & ~upper) & tt_mask(3) == 0


@st.composite
def _tables(draw, max_vars=4):
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    table = draw(st.integers(min_value=0, max_value=tt_mask(nvars)))
    return nvars, table


class TestIsopProperties:
    @given(_tables())
    @settings(max_examples=200, deadline=None)
    def test_cover_is_exact_for_completely_specified(self, pair):
        nvars, table = pair
        cover = isop(table, table, nvars)
        assert cover_to_tt(cover, nvars) == table

    @given(_tables())
    @settings(max_examples=100, deadline=None)
    def test_cover_is_irredundant(self, pair):
        nvars, table = pair
        cover = isop(table, table, nvars)
        for skip in range(len(cover)):
            reduced = [cube for i, cube in enumerate(cover) if i != skip]
            assert cover_to_tt(reduced, nvars) != table or table == 0

    @given(_tables(max_vars=5))
    @settings(max_examples=100, deadline=None)
    def test_complement_cover_is_exact(self, pair):
        nvars, table = pair
        complement = tt_not(table, nvars)
        cover = isop(complement, complement, nvars)
        assert cover_to_tt(cover, nvars) == complement
