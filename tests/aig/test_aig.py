"""Tests for the AIG data structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import (
    AIG,
    CONST0,
    CONST1,
    lit,
    lit_is_complemented,
    lit_not,
    lit_regular,
    lit_var,
)
from repro.aig.simulate import evaluate
from repro.errors import AigError


class TestLiterals:
    def test_lit_roundtrip(self):
        assert lit(3) == 6
        assert lit(3, True) == 7
        assert lit_var(7) == 3
        assert lit_is_complemented(7) is True
        assert lit_is_complemented(6) is False
        assert lit_not(6) == 7
        assert lit_not(7) == 6
        assert lit_regular(7) == 6

    def test_constants(self):
        assert CONST0 == 0
        assert CONST1 == 1
        assert lit_not(CONST0) == CONST1

    def test_negative_rejected(self):
        with pytest.raises(AigError):
            lit(-1)
        with pytest.raises(AigError):
            lit_var(-2)


class TestConstruction:
    def test_simple_and(self):
        aig = AIG()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        out = aig.add_and(a, b)
        aig.add_po(out, "f")
        assert aig.num_pis == 2
        assert aig.num_pos == 1
        assert aig.num_ands == 1
        assert evaluate(aig, [True, True]) == [True]
        assert evaluate(aig, [True, False]) == [False]

    def test_trivial_simplifications(self):
        aig = AIG()
        a = aig.add_pi()
        assert aig.add_and(a, CONST0) == CONST0
        assert aig.add_and(CONST0, a) == CONST0
        assert aig.add_and(a, CONST1) == a
        assert aig.add_and(CONST1, a) == a
        assert aig.add_and(a, a) == a
        assert aig.add_and(a, lit_not(a)) == CONST0
        assert aig.num_ands == 0

    def test_structural_hashing(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        first = aig.add_and(a, b)
        second = aig.add_and(b, a)
        assert first == second
        assert aig.num_ands == 1

    def test_unknown_literal_rejected(self):
        aig = AIG()
        aig.add_pi()
        with pytest.raises(AigError):
            aig.add_and(2, 100)
        with pytest.raises(AigError):
            aig.add_po(50)

    def test_fanins_query(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        node = aig.add_and(a, lit_not(b))
        lit0, lit1 = aig.fanins(lit_var(node))
        assert {lit0, lit1} == {a, lit_not(b)}
        with pytest.raises(AigError):
            aig.fanins(lit_var(a))

    def test_or_xor_mux_semantics(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        c = aig.add_pi()
        aig.add_po(aig.add_or(a, b))
        aig.add_po(aig.add_xor(a, b))
        aig.add_po(aig.add_xnor(a, b))
        aig.add_po(aig.add_mux(a, b, c))
        aig.add_po(aig.add_maj(a, b, c))
        for pattern in range(8):
            bits = [bool((pattern >> i) & 1) for i in range(3)]
            expected = [
                bits[0] or bits[1],
                bits[0] ^ bits[1],
                not (bits[0] ^ bits[1]),
                bits[1] if bits[0] else bits[2],
                (bits[0] + bits[1] + bits[2]) >= 2,
            ]
            assert evaluate(aig, bits) == expected

    def test_multi_and_or(self):
        aig = AIG()
        inputs = [aig.add_pi() for _ in range(5)]
        aig.add_po(aig.add_and_multi(inputs))
        aig.add_po(aig.add_or_multi(inputs))
        aig.add_po(aig.add_and_multi([]))
        aig.add_po(aig.add_or_multi([]))
        for pattern in range(32):
            bits = [bool((pattern >> i) & 1) for i in range(5)]
            assert evaluate(aig, bits) == [all(bits), any(bits), True, False]


class TestStructureQueries:
    def _chain(self, length):
        aig = AIG()
        prev = aig.add_pi()
        for _ in range(length):
            other = aig.add_pi()
            prev = aig.add_and(prev, other)
        aig.add_po(prev)
        return aig

    def test_depth_and_levels(self):
        aig = self._chain(4)
        assert aig.depth() == 4
        levels = aig.levels()
        assert max(levels) == 4

    def test_empty_depth(self):
        assert AIG().depth() == 0

    def test_fanout_counts(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        shared = aig.add_and(a, b)
        left = aig.add_and(shared, a)
        right = aig.add_and(shared, b)
        aig.add_po(left)
        aig.add_po(right)
        counts = aig.fanout_counts()
        assert counts[lit_var(shared)] == 2
        assert counts[lit_var(a)] == 2
        assert counts[lit_var(left)] == 1

    def test_num_inverters_and_wires(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        aig.add_po(aig.add_and(lit_not(a), b))
        assert aig.num_inverters() == 1
        assert aig.num_wires() == 3

    def test_transitive_fanin_cone(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        c = aig.add_pi()
        ab = aig.add_and(a, b)
        abc = aig.add_and(ab, c)
        aig.add_po(abc)
        cone = aig.transitive_fanin_cone([lit_var(abc)])
        assert lit_var(ab) in cone
        assert lit_var(a) in cone
        assert lit_var(abc) in cone


class TestCleanup:
    def test_cleanup_removes_dangling(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        used = aig.add_and(a, b)
        aig.add_and(a, lit_not(b))  # dangling
        aig.add_po(used)
        cleaned = aig.cleanup()
        assert cleaned.num_ands == 1
        assert cleaned.num_pis == 2
        assert cleaned.num_pos == 1

    def test_cleanup_preserves_function(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        c = aig.add_pi()
        aig.add_and(a, b)  # dangling
        aig.add_po(aig.add_xor(aig.add_and(a, c), b))
        cleaned = aig.cleanup()
        for pattern in range(8):
            bits = [bool((pattern >> i) & 1) for i in range(3)]
            assert evaluate(aig, bits) == evaluate(cleaned, bits)

    def test_copy_is_independent(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        aig.add_po(aig.add_and(a, b))
        clone = aig.copy()
        clone.add_pi()
        assert clone.num_pis == 3
        assert aig.num_pis == 2


class TestProperties:
    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=2, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_and_tree_matches_python_and(self, pattern, width):
        aig = AIG()
        inputs = [aig.add_pi() for _ in range(width)]
        aig.add_po(aig.add_and_multi(inputs))
        bits = [bool((pattern >> i) & 1) for i in range(width)]
        assert evaluate(aig, bits) == [all(bits)]

    @given(st.lists(st.booleans(), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_xor_chain_parity(self, bits):
        aig = AIG()
        inputs = [aig.add_pi() for _ in bits]
        acc = inputs[0]
        for term in inputs[1:]:
            acc = aig.add_xor(acc, term)
        aig.add_po(acc)
        expected = bool(sum(bits) % 2)
        assert evaluate(aig, bits) == [expected]
