"""Tests for the Algorithm 1 preprocessor."""

import pytest

from repro.benchgen import lec_instance
from repro.benchgen.datapath import parity_tree, ripple_carry_adder
from repro.core import Preprocessor
from repro.mapping.cost import branching_complexity
from repro.rl import RandomAgent
from repro.sat import solve_cnf
from repro.cnf import tseitin_encode
from tests.helpers import random_aig


class TestPreprocessor:
    def test_default_preprocess_produces_smaller_cnf(self):
        instance = lec_instance(ripple_carry_adder(4), equivalent=False, seed=1)
        baseline = tseitin_encode(instance)
        result = Preprocessor().preprocess(instance)
        assert result.cnf.num_vars < baseline.num_vars
        assert result.preprocess_time >= 0.0
        assert result.recipe  # the default recipe is non-empty

    def test_preprocessed_cnf_is_equisatisfiable(self):
        # SAT case.
        sat_instance = lec_instance(ripple_carry_adder(3), equivalent=False, seed=2)
        sat_result = Preprocessor().preprocess(sat_instance)
        assert solve_cnf(sat_result.cnf).is_sat
        assert solve_cnf(tseitin_encode(sat_instance)).is_sat
        # UNSAT case.
        unsat_instance = lec_instance(ripple_carry_adder(3), equivalent=True)
        unsat_result = Preprocessor().preprocess(unsat_instance)
        assert solve_cnf(unsat_result.cnf).is_unsat
        assert solve_cnf(tseitin_encode(unsat_instance)).is_unsat

    def test_explicit_recipe_is_used(self):
        instance = random_aig(num_pis=6, num_nodes=30, seed=3)
        preprocessor = Preprocessor(recipe=["balance"])
        result = preprocessor.preprocess(instance)
        assert result.recipe == ["balance"]

    def test_agent_driven_recipe(self):
        instance = lec_instance(ripple_carry_adder(3), equivalent=False, seed=4)
        preprocessor = Preprocessor(agent=RandomAgent(seed=1), max_steps=3)
        result = preprocessor.preprocess(instance)
        assert 0 < len(result.recipe) <= 3
        assert solve_cnf(result.cnf).status in ("SAT", "UNSAT")
        assert preprocessor.embedder.dim == 64

    def test_embedder_is_built_only_for_an_agent(self, monkeypatch):
        built = []
        monkeypatch.setattr("repro.features.deepgate.DeepGateEmbedder",
                            lambda **kwargs: built.append(kwargs))
        preprocessor = Preprocessor()
        preprocessor.preprocess(random_aig(num_pis=4, num_nodes=12, seed=8))
        assert preprocessor.embedder is None
        assert built == []

    def test_mapping_cost_matches_netlist(self):
        instance = lec_instance(parity_tree(10), equivalent=False, seed=5)
        result = Preprocessor(use_branching_cost=True).preprocess(instance)
        total = sum(branching_complexity(node.table, node.num_inputs)
                    for node in result.netlist.luts())
        assert result.mapping_cost == pytest.approx(total)

    def test_area_cost_variant(self):
        instance = lec_instance(ripple_carry_adder(3), equivalent=False, seed=6)
        result = Preprocessor(use_branching_cost=False).preprocess(instance)
        assert result.mapping_cost == pytest.approx(result.netlist.num_luts)

    def test_initial_recipe_option(self):
        instance = random_aig(num_pis=6, num_nodes=40, seed=7)
        with_initial = Preprocessor(apply_initial_recipe=True, recipe=["resub"])
        result = with_initial.preprocess(instance)
        assert solve_cnf(result.cnf).status in ("SAT", "UNSAT")


class TestPiAssignment:
    def test_sat_model_maps_back_to_a_real_counterexample(self):
        from repro.aig import evaluate
        from repro.sat.configs import kissat_like

        instance = lec_instance(ripple_carry_adder(6), equivalent=False,
                                seed=3)
        preprocessed = Preprocessor().preprocess(instance)
        result = solve_cnf(preprocessed.cnf, config=kissat_like())
        assert result.is_sat
        assignment = preprocessed.pi_assignment(result.model)
        assert len(assignment) == instance.num_pis
        # The assignment is a genuine witness: it drives the miter to 1 on
        # both the original and the transformed circuit.
        assert any(evaluate(instance, assignment))
        assert any(evaluate(preprocessed.final_aig, assignment))
