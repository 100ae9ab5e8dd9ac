"""Table-driven truth-table kernels checked against loop-built reference oracles.

The oracles below are the straightforward implementations the fast kernels
replaced: selectors built by a Python loop, cofactors that smear a masked
half, a split search that compares four full cofactors per candidate
variable, and literal counting through per-cube sets of literal keys.  The
fast kernels must agree with them exactly, not just up to equivalence,
because synthesis results are pinned byte for byte.
"""

import random

import pytest

from repro.errors import TruthTableError
from repro.logic.isop import cover_to_tt, isop
from repro.logic.sop import _most_common_literal
from repro.logic.truthtable import (
    _cofactor,
    _depends,
    tt_cofactor,
    tt_mask,
    tt_shrink_to_support,
    tt_support,
    tt_var,
)

NVARS = range(0, 11)


def ref_selector(var, value, nvars):
    """Minterms with ``var == value``, built one period at a time."""
    block = 1 << var
    pattern = ((1 << block) - 1) << (block if value else 0)
    selector = 0
    for pos in range(0, 1 << nvars, 2 * block):
        selector |= pattern << pos
    return selector & tt_mask(nvars)


def ref_cofactor(table, var, value, nvars):
    kept = table & ref_selector(var, value, nvars)
    other = kept >> (1 << var) if value else kept << (1 << var)
    return (kept | other) & tt_mask(nvars)


def ref_depends(table, var, nvars):
    return ref_cofactor(table, var, 0, nvars) != ref_cofactor(table, var, 1, nvars)


def ref_isop(lower, upper, nvars):
    """Minato--Morreale with the four-cofactor split search."""
    mask = tt_mask(nvars)

    def rec(lower, upper, top_var):
        if lower == 0:
            return 0, []
        if upper == mask:
            return mask, [(0, 0)]
        split = next((var for var in range(top_var - 1, -1, -1)
                      if ref_depends(lower, var, nvars)
                      or ref_depends(upper, var, nvars)), -1)
        if split < 0:
            return 0, []
        l0, l1 = (ref_cofactor(lower, split, v, nvars) for v in (0, 1))
        u0, u1 = (ref_cofactor(upper, split, v, nvars) for v in (0, 1))
        cover0, cubes0 = rec(l0 & ~u1 & mask, u0, split)
        cover1, cubes1 = rec(l1 & ~u0 & mask, u1, split)
        rest = (l0 & ~cover0 & mask) | (l1 & ~cover1 & mask)
        cover2, cubes2 = rec(rest, u0 & u1, split)
        bit = 1 << split
        cubes = ([(pos, neg | bit) for pos, neg in cubes0]
                 + [(pos | bit, neg) for pos, neg in cubes1] + cubes2)
        selector = ref_selector(split, 1, nvars)
        cover = ((cover0 & ~selector) | (cover1 & selector) | cover2) & mask
        return cover, cubes

    return rec(lower & mask, upper & mask, nvars)[1]


def ref_most_common_literal(cubes):
    counts = {}
    for pos, neg in cubes:
        keys = {2 * var + negated for negated, mask in enumerate((pos, neg))
                for var in range(mask.bit_length()) if mask >> var & 1}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
    best_key, best_count = None, 1
    for key in sorted(counts):
        if counts[key] > best_count:
            best_key, best_count = key, counts[key]
    return best_key


def random_tables(nvars, count, seed):
    """Random tables plus the structured extremes, in both polarities."""
    rng = random.Random(seed * 1009 + nvars)
    mask = tt_mask(nvars)
    tables = [0, mask]
    if nvars:
        tables += [tt_var(nvars - 1, nvars), tt_var(0, nvars)]
    for _ in range(count):
        # Sparse tables keep low-support cases in the mix.
        table = rng.getrandbits(1 << nvars)
        if rng.random() < 0.3:
            table &= rng.getrandbits(1 << nvars) & rng.getrandbits(1 << nvars)
        tables.append(table)
    return tables + [~table & mask for table in tables]


@pytest.mark.parametrize("nvars", NVARS)
def test_tt_var_matches_loop_built_selector(nvars):
    for var in range(nvars):
        assert tt_var(var, nvars) == ref_selector(var, 1, nvars)


@pytest.mark.parametrize("nvars", NVARS)
def test_cofactor_and_dependency_match_oracle(nvars):
    for table in random_tables(nvars, 12, seed=1):
        for var in range(nvars):
            for value in (0, 1):
                expected = ref_cofactor(table, var, value, nvars)
                assert tt_cofactor(table, var, value, nvars) == expected
                assert _cofactor(table, var, value, nvars) == expected
            assert _depends(table, var, nvars) == ref_depends(table, var, nvars)


@pytest.mark.parametrize("nvars", NVARS)
def test_support_and_shrink_match_oracle(nvars):
    for table in random_tables(nvars, 6, seed=2):
        support = [var for var in range(nvars) if ref_depends(table, var, nvars)]
        assert tt_support(table, nvars) == support
        shrunk, kept = tt_shrink_to_support(table, nvars)
        assert kept == support
        assert shrunk <= tt_mask(len(support))


def test_bits_above_the_mask_are_ignored():
    table = 0b0110 | (0b1011 << 4)
    assert tt_cofactor(table, 0, 1, 2) == ref_cofactor(table, 0, 1, 2)
    assert tt_support(table, 2) == [0, 1]
    assert tt_support(0b1100 | (1 << 9), 2) == [1]


@pytest.mark.parametrize("nvars", NVARS)
def test_isop_matches_oracle(nvars):
    for table in random_tables(nvars, 2 if nvars > 8 else 10, seed=3):
        assert isop(table, table, nvars) == ref_isop(table, table, nvars)


@pytest.mark.parametrize("nvars", NVARS)
def test_interval_isop_matches_oracle_and_bounds(nvars):
    rng = random.Random(nvars)
    mask = tt_mask(nvars)
    for _ in range(3 if nvars > 8 else 8):
        lower = rng.getrandbits(1 << nvars) & rng.getrandbits(1 << nvars)
        upper = (lower | rng.getrandbits(1 << nvars)) & mask
        cubes = isop(lower, upper, nvars)
        assert cubes == ref_isop(lower, upper, nvars)
        cover = cover_to_tt(cubes, nvars)
        assert lower & ~cover == 0
        assert cover & ~upper & mask == 0


@pytest.mark.parametrize("nvars", range(1, 9))
def test_most_common_literal_matches_set_counting(nvars):
    for table in random_tables(nvars, 10, seed=4):
        cubes = isop(table, table, nvars)
        assert _most_common_literal(cubes, nvars) == ref_most_common_literal(cubes)


def test_most_common_literal_ties_pick_smallest_key():
    # x1 and ~x0 each appear twice; key(~x0) = 1 < key(x1) = 2.
    cubes = [(0b10, 0b01), (0b10, 0b01), (0b100, 0)]
    assert _most_common_literal(cubes, 3) == 1
    assert _most_common_literal([(0b1, 0), (0b10, 0)], 2) is None


def test_public_kernels_keep_their_checks():
    with pytest.raises(TruthTableError):
        tt_var(0, 21)
    with pytest.raises(TruthTableError):
        tt_cofactor(0, 3, 0, 3)
    with pytest.raises(TruthTableError):
        tt_cofactor(0, 0, 0, -1)
    with pytest.raises(TruthTableError):
        tt_support(0, 21)
    with pytest.raises(TruthTableError):
        isop(0b1, 0b0, 1)
