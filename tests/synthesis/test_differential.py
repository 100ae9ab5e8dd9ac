"""Differential tests of the candidate filters of ``rewrite``/``refactor`` and
``resub`` against the unfiltered computations they replace.

* :func:`build_within` (bounded dry run, then a build only when nodes are
  new) against a full count of the new nodes followed by
  :func:`build_factored`.
* ``_pair_resubstitution`` (only divisor polarities that contain or lie
  inside the target are paired) against the exhaustive pair loop.
"""

import random
from itertools import combinations

import pytest

from repro.aig.aig import CONST0, CONST1
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import enumerate_cuts, reconvergence_cut, window_tables
from repro.synthesis.resub import MAX_LEAVES, _pair_resubstitution
from repro.synthesis.resynth import build_factored, build_within, cut_program
from tests.helpers import random_aig


def _full_count(aig, program, leaf_literals):
    """Every step whose node is not in ``aig`` yet, with no early stop."""
    values = [CONST0, *leaf_literals]
    added = 0
    codes = iter(program)
    for code_a, code_b in zip(codes, codes):
        a, b = values[code_a >> 1], values[code_b >> 1]
        if a < 0 or b < 0:
            result = -1
        else:
            a ^= code_a & 1
            b ^= code_b & 1
            if CONST0 in (a, b) or a == b ^ 1:
                result = CONST0
            elif a in (CONST1, b):
                result = b
            elif b == CONST1:
                result = a
            else:
                existing = aig._strash.get((min(a, b), max(a, b)))
                result = -1 if existing is None else 2 * existing
        added += result < 0
        values.append(result)
    return added


def _structure(aig):
    return list(aig.fanin_array), list(aig.pos)


def _dry_run_cases(seed):
    """Cut functions of a random AIG over their own leaves (mostly nothing
    new), and random functions over random literals (mostly new nodes)."""
    aig = random_aig(num_pis=8, num_nodes=70, seed=seed)
    cuts = enumerate_cuts(aig, k=4, max_cuts=8)
    for var in aig.and_vars():
        for cut in cuts[var]:
            if cut.size >= 2 and cut.table not in (0, tt_mask(cut.size)):
                yield aig, cut_program(cut.table, cut.size), [2 * leaf for leaf in cut.leaves]
    rng = random.Random(seed)
    literals = [0, 1] + [2 * var + rng.randrange(2) for var in range(1, aig.num_vars)]
    for _ in range(40):
        nvars = rng.randrange(2, 6)
        table = rng.getrandbits(1 << nvars)
        if table in (0, tt_mask(nvars)):
            continue
        leaves = [rng.choice(literals) for _ in range(nvars)]
        yield aig, cut_program(table, nvars), leaves


@pytest.mark.parametrize("seed", range(6))
def test_bounded_dry_run_matches_full_count_then_build(seed):
    outcomes = set()
    for aig, program, leaves in _dry_run_cases(seed):
        reference = aig.copy()
        full = _full_count(reference, program, leaves)
        expected = build_factored(reference, program, leaves)
        if full == 0:
            assert _structure(reference) == _structure(aig)
        for budget in sorted({0, max(full - 1, 0), full, full + 2}):
            trial = aig.copy()
            built = build_within(trial, program, leaves, budget)
            if full > budget:
                assert built is None
                assert _structure(trial) == _structure(aig)
                outcomes.add("over budget")
            else:
                assert built == (full, expected)
                assert _structure(trial) == _structure(reference)
                outcomes.add("nothing new" if full == 0 else "built")
    assert outcomes == {"over budget", "nothing new", "built"}


def _exhaustive_pairs(divisors, tables, target, mask):
    """The unfiltered 1-resub loop: every pair, every polarity."""
    for div_a, div_b in combinations(divisors, 2):
        for comp_a in (False, True):
            term_a = ~tables[div_a] & mask if comp_a else tables[div_a]
            for comp_b in (False, True):
                term_b = ~tables[div_b] & mask if comp_b else tables[div_b]
                if term_a & term_b == target:
                    return div_a, comp_a, div_b, comp_b, False
                if term_a | term_b == target:
                    return div_a, comp_a, div_b, comp_b, True
    return None


def _no_zero_resub(divisors, tables, target, mask):
    """The divisors 0-resub would not already have used."""
    return [d for d in divisors if tables[d] not in (target, ~target & mask)]


def _aig_windows(seed):
    aig = random_aig(num_pis=8, num_nodes=90, seed=seed)
    for var in aig.and_vars():
        leaves = reconvergence_cut(aig, var, max_leaves=MAX_LEAVES)
        if len(leaves) < 2 or var in leaves:
            continue
        tables = window_tables(aig, var, leaves)
        mask = tt_mask(len(leaves))
        divisors = [node for node in tables if node != var]
        yield divisors, tables, tables[var], mask


def _random_windows(seed):
    """Dense random windows on 3 inputs, targets built from divisor pairs
    and the two constants included."""
    rng = random.Random(seed)
    mask = tt_mask(3)
    for _ in range(300):
        tables = {node: rng.getrandbits(8) for node in range(rng.randrange(2, 12))}
        a, b = rng.sample(sorted(tables), 2)
        target = rng.choice([rng.getrandbits(8), 0, mask,
                             tables[a] & ~tables[b] & mask,
                             (tables[a] | ~tables[b]) & mask])
        yield list(tables), tables, target, mask


@pytest.mark.parametrize("seed", range(4))
def test_filtered_pairs_match_exhaustive_loop(seed):
    found = {False: 0, True: 0}
    windows = list(_aig_windows(seed)) + list(_random_windows(seed))
    for divisors, tables, target, mask in windows:
        divisors = _no_zero_resub(divisors, tables, target, mask)
        expected = _exhaustive_pairs(divisors, tables, target, mask)
        assert _pair_resubstitution(divisors, tables, target, mask) == expected
        if expected is not None:
            found[expected[-1]] += 1
    assert found[False] and found[True]  # both AND and OR matches occurred
