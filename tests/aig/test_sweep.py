"""SAT-sweeping tests (repro.aig.sweep).

The backbone is differential: for every benchmark-generator family with at
most 12 primary inputs, the swept AIG must be *exhaustively-simulation
equivalent* to the original — every one of the ``2**num_pis`` input
patterns produces identical primary outputs.  Soundness must also survive
the stress paths: starved simulation (forcing counterexample refinement)
and starved conflict budgets (forcing budgeted-out pairs).
"""

import random

import pytest

from repro.aig import sweep as sweep_module
from repro.aig.aiger import write_aiger
from repro.aig.simulate import po_truth_tables
from repro.aig.sweep import SweepStats, fraig, sweep_aig
from repro.benchgen.atpg import atpg_instance
from repro.benchgen.datapath import (
    array_multiplier,
    carry_select_adder,
    comparator,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.benchgen.lec import (
    adder_equivalence_miter,
    lec_instance,
    multiplier_commutativity_miter,
)
from repro.benchgen.random_logic import random_aig
from repro.synthesis.recipe import apply_operation, apply_recipe


def _families():
    """One representative instance per benchgen family, all with <= 12 PIs."""
    return [
        ("lec_adder_eq", adder_equivalence_miter(4)),
        ("lec_adder_neq", adder_equivalence_miter(4, mutated=True, seed=2)),
        ("lec_mult_eq", multiplier_commutativity_miter(3)),
        ("lec_mult_neq", multiplier_commutativity_miter(3, mutated=True,
                                                        seed=1)),
        ("lec_generic", lec_instance(random_aig(9, 120, seed=4),
                                     equivalent=True)),
        ("datapath_adder", ripple_carry_adder(5)),
        ("datapath_csel", carry_select_adder(5)),
        ("datapath_mult", array_multiplier(4)),
        ("datapath_cmp", comparator(6)),
        ("datapath_mux", mux_tree(3)),
        ("datapath_parity", parity_tree(10)),
        ("random", random_aig(10, 150, seed=8)),
        ("atpg", atpg_instance(random_aig(9, 100, seed=5), seed=3)),
    ]


class TestSweepEquivalence:
    @pytest.mark.parametrize("name,aig", _families(),
                             ids=[name for name, _ in _families()])
    def test_exhaustive_equivalence(self, name, aig):
        assert aig.num_pis <= 12
        result = sweep_aig(aig)
        assert po_truth_tables(result.aig) == po_truth_tables(aig)

    @pytest.mark.parametrize("seed", range(4))
    def test_starved_simulation_forces_refinement(self, seed):
        # 64 patterns leave many false candidates; the counterexample loop
        # must refute them without ever merging a non-equivalent pair.
        aig = random_aig(12, 200, seed=seed)
        result = sweep_aig(aig, num_patterns=64)
        assert po_truth_tables(result.aig) == po_truth_tables(aig)

    def test_refinement_path_is_exercised(self):
        refuted = sum(sweep_aig(random_aig(12, 200, seed=seed),
                                num_patterns=64).stats.refuted
                      for seed in range(4))
        assert refuted > 0

    def test_starved_budget_stays_sound(self):
        # 8 inputs over 64 patterns: too many to simulate exhaustively,
        # so the pairs go to SAT under the one-conflict budget.
        aig = multiplier_commutativity_miter(4)
        result = sweep_aig(aig, num_patterns=64, conflict_budget=1)
        assert result.stats.undecided > 0
        assert po_truth_tables(result.aig) == po_truth_tables(aig)


class TestSweepBehaviour:
    def test_equivalence_miter_collapses_to_constant(self):
        result = sweep_aig(multiplier_commutativity_miter(3))
        assert result.aig.num_ands == 0      # PO becomes constant false
        assert result.stats.merges > 0
        assert result.stats.refuted == 0

    def test_interface_is_preserved(self):
        aig = adder_equivalence_miter(4)
        result = sweep_aig(aig)
        assert result.aig.num_pis == aig.num_pis
        assert result.aig.num_pos == aig.num_pos
        assert result.aig.pi_names == aig.pi_names
        assert result.aig.po_names == aig.po_names

    def test_never_grows(self):
        for seed in range(3):
            aig = random_aig(10, 150, seed=seed)
            result = sweep_aig(aig)
            assert result.aig.num_ands <= aig.num_ands

    def test_deterministic(self):
        first = sweep_aig(multiplier_commutativity_miter(3)).stats.as_dict()
        second = sweep_aig(multiplier_commutativity_miter(3)).stats.as_dict()
        first.pop("sweep_time")
        second.pop("sweep_time")
        assert first == second

    def test_stats_consistency(self):
        stats = sweep_aig(multiplier_commutativity_miter(4),
                          num_patterns=64).stats
        assert isinstance(stats, SweepStats)
        assert stats.sat_calls == stats.proved + stats.refuted + stats.undecided
        assert stats.merges == stats.proved
        assert stats.const_merges <= stats.merges
        assert set(stats.as_dict()) >= {"nodes_before", "nodes_after",
                                        "sat_calls", "merges", "sweep_time"}

    def test_early_return_stats_match_cleaned_output(self):
        from repro.aig.aig import AIG

        # A dangling AND node and no candidate classes: the early-return
        # path must report the node count of the *cleaned* output AIG.
        aig = AIG(name="dangling")
        first = aig.add_pi("a")
        second = aig.add_pi("b")
        aig.add_and(first, second)   # not in any PO cone
        aig.add_po(first, "out")
        result = sweep_aig(aig)
        assert result.aig.num_ands == 0
        assert result.stats.nodes_after == result.aig.num_ands

    def test_no_and_nodes_is_a_noop(self):
        from repro.aig.aig import AIG

        aig = AIG(name="wires")
        literal = aig.add_pi("a")
        aig.add_po(literal, "out")
        result = sweep_aig(aig)
        assert result.stats.sat_calls == 0
        assert po_truth_tables(result.aig) == po_truth_tables(aig)


def _sat_path(aig, monkeypatch, **kwargs):
    """Sweep ``aig`` on the SAT path even where it could go exhaustive."""
    with monkeypatch.context() as patch:
        patch.setattr(sweep_module, "_EXHAUSTIVE_MAX_PIS", -1)
        return sweep_aig(aig, **kwargs)


def _random_small_aigs():
    rng = random.Random(19)
    for index in range(90):
        num_pis = 3 + index % 9   # 3..11 inputs: all exhaustive at 2 048
        yield random_aig(num_pis, 30 + rng.randrange(120),
                         seed=rng.randrange(1 << 30))
    for _ in range(10):           # the solve server's sweep job size
        yield random_aig(5, 40 + rng.randrange(20),
                         seed=rng.randrange(1 << 30))


class TestExhaustivePath:
    def test_matches_the_sat_path_text_where_it_proves_everything(
            self, monkeypatch):
        compared = 0
        for aig in _random_small_aigs():
            exhaustive = sweep_aig(aig)
            proved = _sat_path(aig, monkeypatch)
            assert proved.stats.sat_calls > 0 or \
                proved.stats.classes_initial == 0
            if proved.stats.undecided:
                continue  # the SAT path gave up; exhaustive merges more
            assert write_aiger(exhaustive.aig) == write_aiger(proved.aig)
            assert exhaustive.stats.merges == proved.stats.merges
            assert (exhaustive.stats.const_merges
                    == proved.stats.const_merges)
            compared += 1
        assert compared >= 90

    def test_matches_the_sat_path_on_equivalence_miters(self, monkeypatch):
        for aig in (multiplier_commutativity_miter(3),
                    adder_equivalence_miter(4),
                    adder_equivalence_miter(4, mutated=True, seed=2)):
            assert (write_aiger(sweep_aig(aig).aig)
                    == write_aiger(_sat_path(aig, monkeypatch).aig))

    def test_stats_take_the_documented_values(self):
        aig = random_aig(5, 50, seed=3)
        stats = sweep_aig(aig).stats
        assert stats.sim_patterns == 32
        assert (stats.sat_calls, stats.refuted, stats.undecided,
                stats.refinements) == (0, 0, 0, 0)
        assert stats.proved == stats.merges > 0
        assert stats.const_merges <= stats.merges

    def test_threshold_follows_the_simulated_pattern_count(self):
        eleven = sweep_aig(random_aig(11, 150, seed=1)).stats
        assert eleven.sat_calls == 0 and eleven.sim_patterns == 2048
        twelve = sweep_aig(random_aig(12, 150, seed=1)).stats
        assert twelve.sat_calls > 0 and twelve.sim_patterns == 2048
        narrow = sweep_aig(random_aig(7, 80, seed=2), num_patterns=64).stats
        assert narrow.sat_calls > 0 and narrow.sim_patterns == 64

    def test_exhaustive_path_beats_a_starved_budget_soundly(self):
        aig = multiplier_commutativity_miter(3)   # 6 inputs
        result = sweep_aig(aig, conflict_budget=1)
        assert result.stats.undecided == 0
        assert result.aig.num_ands == 0           # decided outright
        assert po_truth_tables(result.aig) == po_truth_tables(aig)

    def test_class_truncation_matches_the_sat_path(self, monkeypatch):
        aig = multiplier_commutativity_miter(3)
        merges = []
        for size in (2, 3):
            result = sweep_aig(aig, max_class_size=size)
            assert (write_aiger(result.aig)
                    == write_aiger(_sat_path(aig, monkeypatch,
                                             max_class_size=size).aig))
            merges.append(result.stats.merges)
        assert merges[0] < merges[1] < sweep_aig(aig).stats.merges


class TestFraigRecipeOperation:
    def test_fraig_registered_with_alias(self):
        aig = multiplier_commutativity_miter(3)
        by_name = apply_operation(aig, "fraig")
        by_alias = apply_operation(aig, "f")
        assert by_name.num_ands == by_alias.num_ands == 0
        assert po_truth_tables(by_name) == po_truth_tables(aig)

    def test_fraig_inside_recipe(self):
        aig = lec_instance(random_aig(9, 120, seed=6), equivalent=True)
        swept = apply_recipe(aig, ["balance", "rewrite", "fraig"])
        assert po_truth_tables(swept) == po_truth_tables(aig)
        assert swept.num_ands <= aig.num_ands

    def test_fraig_wrapper(self):
        aig = multiplier_commutativity_miter(3)
        assert fraig(aig).num_ands == 0
