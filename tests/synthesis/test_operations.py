"""Functional-equivalence and quality tests for the synthesis operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, compute_stats, lit_not
from repro.aig.aiger import write_aiger
from repro.errors import SynthesisError
from repro.synthesis import (
    apply_operation,
    apply_recipe,
    balance,
    cleanup,
    initial_recipe,
    operation_names,
    refactor,
    resub,
    rewrite,
)
from repro.synthesis.recipe import ACTION_NAMES, COMPRESS2_RECIPE
from tests.helpers import functionally_equivalent, random_aig, ripple_adder_aig

ALL_OPERATIONS = [rewrite, refactor, balance, resub, cleanup]


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("operation", ALL_OPERATIONS,
                             ids=lambda op: op.__name__)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_circuits(self, operation, seed):
        aig = random_aig(num_pis=6, num_nodes=35, seed=seed)
        transformed = operation(aig)
        assert functionally_equivalent(aig, transformed)

    @pytest.mark.parametrize("operation", ALL_OPERATIONS,
                             ids=lambda op: op.__name__)
    def test_adder(self, operation):
        aig = ripple_adder_aig(width=4)
        transformed = operation(aig)
        assert functionally_equivalent(aig, transformed)

    @pytest.mark.parametrize("operation", ALL_OPERATIONS,
                             ids=lambda op: op.__name__)
    def test_xor_heavy_circuit(self, operation):
        aig = random_aig(num_pis=7, num_nodes=40, seed=13, xor_bias=0.8)
        transformed = operation(aig)
        assert functionally_equivalent(aig, transformed)

    @pytest.mark.parametrize("operation", ALL_OPERATIONS,
                             ids=lambda op: op.__name__)
    def test_empty_and_trivial_aigs(self, operation):
        empty = AIG()
        assert operation(empty).num_ands == 0

        trivial = AIG()
        a = trivial.add_pi()
        trivial.add_po(lit_not(a))
        transformed = operation(trivial)
        assert functionally_equivalent(trivial, transformed)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_rewrite_property(self, seed):
        aig = random_aig(num_pis=5, num_nodes=25, seed=seed)
        assert functionally_equivalent(aig, rewrite(aig))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_refactor_property(self, seed):
        aig = random_aig(num_pis=5, num_nodes=25, seed=seed)
        assert functionally_equivalent(aig, refactor(aig))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_resub_property(self, seed):
        aig = random_aig(num_pis=5, num_nodes=25, seed=seed)
        assert functionally_equivalent(aig, resub(aig))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_balance_property(self, seed):
        aig = random_aig(num_pis=5, num_nodes=25, seed=seed)
        assert functionally_equivalent(aig, balance(aig))


class TestPurity:
    """Operations are pure functions of their input's content."""

    @pytest.mark.parametrize("operation", [rewrite, refactor, resub],
                             ids=lambda op: op.__name__)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_input_is_not_mutated(self, operation, seed):
        aig = random_aig(num_pis=8, num_nodes=60, seed=seed)
        text, ands = write_aiger(aig), aig.num_ands
        operation(aig)
        assert write_aiger(aig) == text
        assert aig.num_ands == ands

    @pytest.mark.parametrize("operation", [rewrite, refactor, resub],
                             ids=lambda op: op.__name__)
    def test_output_ignores_earlier_calls_on_the_input(self, operation):
        aig = random_aig(num_pis=8, num_nodes=60, seed=3)
        fresh = write_aiger(operation(aig.copy()))
        for other in (rewrite, refactor, resub, operation):
            other(aig)
        assert write_aiger(operation(aig)) == fresh


class TestQuality:
    def test_rewrite_reduces_redundant_circuit(self):
        # Build a circuit with obvious redundancy: f = (a & b) | (a & b & c)
        # which simplifies to a & b.
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        c = aig.add_pi()
        ab = aig.add_and(a, b)
        abc = aig.add_and(ab, c)
        aig.add_po(aig.add_or(ab, abc))
        rewritten = rewrite(aig)
        assert functionally_equivalent(aig, rewritten)
        assert rewritten.num_ands < aig.num_ands

    def test_balance_reduces_depth_of_chain(self):
        aig = AIG()
        acc = aig.add_pi()
        for _ in range(7):
            acc = aig.add_and(acc, aig.add_pi())
        aig.add_po(acc)
        balanced = balance(aig)
        assert functionally_equivalent(aig, balanced)
        assert balanced.depth() < aig.depth()
        assert balanced.depth() == 3

    def test_balance_improves_balance_ratio(self):
        aig = AIG()
        acc = aig.add_pi()
        for _ in range(7):
            acc = aig.add_and(acc, aig.add_pi())
        aig.add_po(acc)
        before = compute_stats(aig).balance_ratio
        after = compute_stats(balance(aig)).balance_ratio
        assert after < before

    def test_resub_removes_duplicate_logic(self):
        # Two structurally different but functionally identical cones: resub
        # (or rewrite) should let the second reuse the first.
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        c = aig.add_pi()
        first = aig.add_or(aig.add_and(a, b), aig.add_and(a, c))
        second = aig.add_and(a, aig.add_or(b, c))
        aig.add_po(aig.add_and(first, second))
        resubbed = resub(aig)
        assert functionally_equivalent(aig, resubbed)
        assert resubbed.num_ands <= aig.num_ands

    def test_operations_never_lose_interface(self):
        aig = random_aig(num_pis=6, num_nodes=30, seed=21)
        for operation in ALL_OPERATIONS:
            transformed = operation(aig)
            assert transformed.num_pis == aig.num_pis
            assert transformed.num_pos == aig.num_pos
            assert transformed.pi_names == aig.pi_names


class TestRecipes:
    def test_action_names_match_paper(self):
        assert ACTION_NAMES == ("rewrite", "refactor", "balance", "resub", "end")

    def test_operation_names_registry(self):
        names = operation_names()
        for expected in ("rewrite", "refactor", "balance", "resub", "cleanup"):
            assert expected in names

    def test_apply_operation_end_is_identity(self):
        aig = random_aig(seed=2)
        assert apply_operation(aig, "end") is aig

    def test_apply_operation_unknown_raises(self):
        with pytest.raises(SynthesisError):
            apply_operation(random_aig(seed=2), "strash_magic")

    def test_apply_recipe_preserves_function(self):
        aig = random_aig(num_pis=6, num_nodes=35, seed=17)
        result = apply_recipe(aig, ["balance", "rewrite", "refactor", "resub"])
        assert functionally_equivalent(aig, result)

    def test_initial_recipe_runs(self):
        aig = random_aig(num_pis=6, num_nodes=35, seed=19)
        result = apply_recipe(aig, initial_recipe())
        assert functionally_equivalent(aig, result)

    def test_compress2_recipe_does_not_increase_size_much(self):
        aig = random_aig(num_pis=7, num_nodes=50, seed=23)
        result = apply_recipe(aig, COMPRESS2_RECIPE)
        assert functionally_equivalent(aig, result)
        assert result.num_ands <= aig.num_ands
