"""Tests for bit-parallel AIG simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, lit_not
from repro.aig.simulate import (
    evaluate,
    exhaustive_pi_rows,
    exhaustive_pi_words,
    po_truth_tables,
    po_values,
    random_pi_rows,
    simulate,
    simulate_rows,
)
from repro.errors import AigError
from repro.logic.truthtable import tt_and, tt_from_function, tt_var, tt_xor


def _build_xor_and():
    aig = AIG()
    a = aig.add_pi()
    b = aig.add_pi()
    aig.add_po(aig.add_xor(a, b))
    aig.add_po(aig.add_and(a, b))
    return aig


def _walk(aig, bits):
    """Every variable's value on one pattern, one gate at a time."""
    values = [False] * aig.num_vars
    for pi_var, bit in zip(aig.pis, bits):
        values[pi_var] = bit
    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        values[var] = ((values[lit0 >> 1] != bool(lit0 & 1))
                       and (values[lit1 >> 1] != bool(lit1 & 1)))
    return values


def _random_aig(num_pis, seed):
    rng = np.random.default_rng(seed)
    aig = AIG()
    literals = [aig.add_pi() for _ in range(num_pis)]
    for _ in range(6):
        a = literals[rng.integers(len(literals))]
        b = literals[rng.integers(len(literals))]
        choice = rng.integers(3)
        if choice == 0:
            literals.append(aig.add_and(a, b))
        elif choice == 1:
            literals.append(aig.add_or(a, lit_not(b)))
        else:
            literals.append(aig.add_xor(a, b))
    aig.add_po(literals[-1])
    aig.add_po(lit_not(literals[-2]))
    return aig


class TestSimulate:
    def test_rejects_bad_shape(self):
        aig = _build_xor_and()
        with pytest.raises(AigError):
            simulate(aig, np.zeros((3, 1), dtype=np.uint64))
        with pytest.raises(AigError):
            simulate(aig, np.zeros(2, dtype=np.uint64))

    def test_exhaustive_words_patterns(self):
        words = exhaustive_pi_words(3)
        assert words.shape == (3, 1)
        # Pattern i has bit i of each PI row equal to bit of i.
        for pattern in range(8):
            for pi in range(3):
                bit = (int(words[pi, 0]) >> pattern) & 1
                assert bit == ((pattern >> pi) & 1)

    def test_exhaustive_rows_are_input_truth_tables(self):
        assert exhaustive_pi_rows(4) == [tt_var(i, 4) for i in range(4)]
        assert exhaustive_pi_rows(0) == []

    def test_exhaustive_rejects_too_many_pis(self):
        with pytest.raises(AigError):
            exhaustive_pi_words(17)
        with pytest.raises(AigError):
            exhaustive_pi_rows(17)
        aig = AIG()
        for _ in range(17):
            aig.add_pi()
        with pytest.raises(AigError):
            po_truth_tables(aig)

    def test_po_truth_tables_match_logic(self):
        aig = _build_xor_and()
        tables = po_truth_tables(aig)
        assert tables[0] == tt_xor(tt_var(0, 2), tt_var(1, 2), 2)
        assert tables[1] == tt_and(tt_var(0, 2), tt_var(1, 2), 2)

    def test_complemented_po(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        aig.add_po(lit_not(aig.add_and(a, b)))
        tables = po_truth_tables(aig)
        assert tables[0] == tt_from_function(lambda x, y: not (x and y), 2)

    def test_random_rows_round_up_to_words(self):
        rows = random_pi_rows(3, num_patterns=100, seed=1)
        assert len(rows) == 3
        assert all(0 <= row < 1 << 128 for row in rows)
        assert any(row >> 64 for row in rows)

    def test_random_rows_deterministic_seed(self):
        assert random_pi_rows(4, 256, seed=7) == random_pi_rows(4, 256, seed=7)
        assert random_pi_rows(4, 256, seed=7) != random_pi_rows(4, 256, seed=8)

    def test_po_values_extraction(self):
        aig = _build_xor_and()
        values = simulate(aig, exhaustive_pi_words(2))
        assert values.shape == (aig.num_vars, 1)
        outputs = po_values(aig, values)
        assert outputs.shape == (2, 1)
        assert int(outputs[0, 0]) == tt_xor(tt_var(0, 2), tt_var(1, 2), 2)

    def test_simulate_returns_writable_words(self):
        aig = _build_xor_and()
        values = simulate(aig, exhaustive_pi_words(2))
        assert values.dtype == np.uint64
        values[0, 0] = 1


class TestEvaluate:
    def test_dict_assignment(self):
        aig = _build_xor_and()
        assignment = {aig.pis[0]: True, aig.pis[1]: False}
        assert evaluate(aig, assignment) == [True, False]

    def test_rejects_short_list(self):
        aig = _build_xor_and()
        with pytest.raises(AigError):
            evaluate(aig, [True])


class TestSimulationAgainstGateWalk:
    """Every entry point against :func:`_walk`, which shares no code."""

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_truth_tables_and_evaluate(self, num_pis, seed):
        aig = _random_aig(num_pis, seed)
        tables = po_truth_tables(aig)
        for pattern in range(1 << num_pis):
            bits = [bool((pattern >> i) & 1) for i in range(num_pis)]
            values = _walk(aig, bits)
            expected = [values[po >> 1] != bool(po & 1) for po in aig.pos]
            assert [bool((table >> pattern) & 1) for table in tables] == expected
            assert evaluate(aig, bits) == expected

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_rows_and_words(self, num_pis, seed):
        aig = _random_aig(num_pis, seed)
        words = np.random.default_rng(seed).integers(
            0, 2 ** 64, size=(num_pis, 2), dtype=np.uint64)
        array = simulate(aig, words)
        rows = simulate_rows(aig, [int(w[0]) | int(w[1]) << 64 for w in words],
                             (1 << 128) - 1)
        for pattern in (0, 1, 63, 64, 100, 127):
            word, bit = divmod(pattern, 64)
            values = _walk(aig, [bool((int(w[word]) >> bit) & 1) for w in words])
            assert [bool((row >> pattern) & 1) for row in rows] == values
            assert [bool((int(w) >> bit) & 1) for w in array[:, word]] == values
