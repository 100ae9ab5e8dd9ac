"""Tests for cut enumeration and cone utilities."""

import pytest

from repro.aig import AIG, lit_var
from repro.benchgen import (
    adder_equivalence_miter,
    atpg_instance,
    corner_case_miter,
    lec_instance,
    multiplier_commutativity_miter,
    parity_tree,
    random_alu,
)
from repro.errors import AigError
from repro.logic.truthtable import (
    tt_and,
    tt_eval,
    tt_mask,
    tt_not,
    tt_var,
    tt_xor,
)
from repro.synthesis import cuts as cuts_module
from repro.synthesis.cuts import (
    cone_nodes,
    cone_truth_table,
    enumerate_cuts,
    reconvergence_cut,
    window_tables,
)
from repro.synthesis.resynth import cut_cone_gain
from tests.helpers import random_aig


def _xor_tree():
    aig = AIG()
    a = aig.add_pi()
    b = aig.add_pi()
    c = aig.add_pi()
    x = aig.add_xor(a, b)
    y = aig.add_xor(x, c)
    aig.add_po(y)
    return aig, [a, b, c], y


class TestEnumerateCuts:
    def test_pi_has_only_trivial_cut(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        aig.add_po(aig.add_and(a, b))
        cuts = enumerate_cuts(aig, k=4)
        assert len(cuts[a // 2]) == 1
        assert cuts[a // 2][0].leaves == (a // 2,)

    def test_and_node_has_pi_cut(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        node = aig.add_and(a, b)
        aig.add_po(node)
        cuts = enumerate_cuts(aig, k=4)
        node_cuts = cuts[node // 2]
        leaf_sets = [cut.leaves for cut in node_cuts]
        assert (a // 2, b // 2) in leaf_sets
        pi_cut = next(c for c in node_cuts if c.leaves == (a // 2, b // 2))
        assert pi_cut.table == tt_and(tt_var(0, 2), tt_var(1, 2), 2)

    def test_xor_cut_truth_table(self):
        aig, (a, b, c), root = _xor_tree()
        cuts = enumerate_cuts(aig, k=4)
        root_cuts = cuts[root // 2]
        target_leaves = tuple(sorted([a // 2, b // 2, c // 2]))
        match = [cut for cut in root_cuts if cut.leaves == target_leaves]
        assert match
        # Cut tables describe the root *variable*; the XOR literal returned by
        # add_xor is complemented, so the node itself computes XNOR.
        expected = tt_xor(tt_xor(tt_var(0, 3), tt_var(1, 3), 3), tt_var(2, 3), 3)
        expected_node = expected ^ 0xFF if root & 1 else expected
        assert match[0].table == expected_node

    def test_cut_size_limit_respected(self):
        aig = random_aig(num_pis=8, num_nodes=40, seed=3)
        cuts = enumerate_cuts(aig, k=4, max_cuts=6)
        for cut_list in cuts.values():
            assert len(cut_list) <= 6
            for cut in cut_list:
                assert cut.size <= 4

    def test_cut_tables_match_simulation(self):
        aig = random_aig(num_pis=5, num_nodes=20, seed=11)
        cuts = enumerate_cuts(aig, k=4)
        for var in aig.and_vars():
            for cut in cuts[var]:
                if cut.leaves == (var,):
                    continue
                reference = cone_truth_table(aig, var, cut.leaves)
                assert reference == cut.table


class TestIncludeTrivial:
    def test_strips_every_trivial_cut_from_and_nodes(self):
        # Regression: the stripping predicate used to keep single-leaf
        # identity cuts whose leaf was a *different* node; with
        # include_trivial=False no AND node may expose any trivial cut.
        aig = random_aig(num_pis=6, num_nodes=40, seed=2)
        cuts = enumerate_cuts(aig, k=4, include_trivial=False)
        for var in aig.and_vars():
            for cut in cuts[var]:
                assert not cut.is_trivial(), (var, cut)

    def test_non_trivial_cuts_are_preserved(self):
        aig = random_aig(num_pis=6, num_nodes=40, seed=2)
        with_trivial = enumerate_cuts(aig, k=4, include_trivial=True)
        without = enumerate_cuts(aig, k=4, include_trivial=False)
        for var in aig.and_vars():
            expected = [cut for cut in with_trivial[var] if not cut.is_trivial()]
            assert without[var] == expected

    def test_pi_lists_untouched(self):
        aig, (a, b, c), root = _xor_tree()
        cuts = enumerate_cuts(aig, k=4, include_trivial=False)
        for pi_literal in (a, b, c):
            pi_var = pi_literal // 2
            assert len(cuts[pi_var]) == 1
            assert cuts[pi_var][0].leaves == (pi_var,)


class TestCutSignatures:
    def test_signature_matches_leaves(self):
        aig = random_aig(num_pis=6, num_nodes=30, seed=4)
        cuts = enumerate_cuts(aig, k=4)
        for cut_list in cuts.values():
            for cut in cut_list:
                expected = 0
                for leaf in cut.leaves:
                    expected |= 1 << leaf
                assert cut.signature == expected


class TestReconvergenceCut:
    def test_small_cone_collapses_to_pis(self):
        aig, (a, b, c), root = _xor_tree()
        leaves = reconvergence_cut(aig, root // 2, max_leaves=8)
        assert set(leaves) == {a // 2, b // 2, c // 2}

    def test_respects_leaf_limit(self):
        aig = random_aig(num_pis=10, num_nodes=60, seed=5)
        for var in list(aig.and_vars())[-5:]:
            leaves = reconvergence_cut(aig, var, max_leaves=6)
            assert len(leaves) <= 6

    def test_cone_truth_table_of_leaf_limit_cut(self):
        aig = random_aig(num_pis=6, num_nodes=30, seed=9)
        for var in list(aig.and_vars())[-3:]:
            leaves = reconvergence_cut(aig, var, max_leaves=8)
            table = cone_truth_table(aig, var, leaves)
            for minterm in range(1 << len(leaves)):
                bits = [(minterm >> i) & 1 for i in range(len(leaves))]
                assert tt_eval(table, bits, len(leaves)) in (True, False)


class TestConeNodes:
    def test_cone_excludes_leaves_includes_root(self):
        aig, (a, b, c), root = _xor_tree()
        leaves = tuple(sorted([a // 2, b // 2, c // 2]))
        nodes = cone_nodes(aig, root // 2, leaves)
        assert root // 2 in nodes
        assert not set(leaves) & set(nodes)
        assert len(nodes) == aig.num_ands


# --------------------------------------------------------------------- #
# Oracles: the kernels against their plain, slow formulations.
# --------------------------------------------------------------------- #

#: One small circuit per benchgen instance family, plus random logic.
FAMILY_CIRCUITS = {
    "adder_equivalence": lambda: adder_equivalence_miter(6),
    "adder_mutated": lambda: adder_equivalence_miter(6, mutated=True, seed=3),
    "mult_commutativity": lambda: multiplier_commutativity_miter(3),
    "self_equivalence": lambda: lec_instance(parity_tree(8), equivalent=True),
    "stuck_at": lambda: atpg_instance(random_alu(4), seed=5),
    "corner_case": lambda: corner_case_miter(3, seed=1),
    "random_12": lambda: random_aig(num_pis=12, num_nodes=150, seed=13),
    "random_6": lambda: random_aig(num_pis=6, num_nodes=80, seed=21),
}


def _reference_reconvergence_cut(aig, root, max_leaves):
    """The O(L^2) formulation: rebuild every candidate leaf set each round."""
    leaves = {root}
    while True:
        best_leaf = None
        best_increase = None
        for leaf in leaves:
            if not aig.is_and(leaf):
                continue
            lit0, lit1 = aig.fanins(leaf)
            new_leaves = (leaves - {leaf}) | {lit0 // 2, lit1 // 2}
            increase = len(new_leaves) - len(leaves)
            if len(new_leaves) > max_leaves:
                continue
            if best_increase is None or increase < best_increase:
                best_increase = increase
                best_leaf = leaf
        if best_leaf is None:
            break
        lit0, lit1 = aig.fanins(best_leaf)
        leaves.remove(best_leaf)
        leaves.add(lit0 // 2)
        leaves.add(lit1 // 2)
        if best_increase >= 0 and len(leaves) >= max_leaves:
            break
    return tuple(sorted(leaves))


def _reference_table(aig, var, leaves):
    """Truth table of ``var`` over ``leaves`` by plain recursion."""
    nvars = len(leaves)
    if var in leaves:
        return tt_var(leaves.index(var), nvars)
    tables = []
    for literal in aig.fanins(var):
        table = _reference_table(aig, literal // 2, leaves)
        tables.append(tt_not(table, nvars) if literal & 1 else table)
    return tt_and(tables[0], tables[1], nvars)


def _reference_cone_gain(aig, root, leaves, fanout_counts):
    """The recursive MFFC count over a private copy of the fanout counts."""
    reference = list(fanout_counts)

    def deref(var):
        count = 1
        for literal in aig.fanins(var):
            fanin_var = literal // 2
            if fanin_var in leaves or not aig.is_and(fanin_var):
                continue
            reference[fanin_var] -= 1
            if reference[fanin_var] == 0:
                count += deref(fanin_var)
        return count

    return deref(root) if aig.is_and(root) else 0


@pytest.fixture(scope="module", params=sorted(FAMILY_CIRCUITS))
def family_aig(request):
    return FAMILY_CIRCUITS[request.param]()


class TestKernelOracles:
    def test_reconvergence_cut_matches_quadratic_reference(self, family_aig):
        for max_leaves in range(4, 13):
            for var in family_aig.and_vars():
                assert (reconvergence_cut(family_aig, var, max_leaves=max_leaves)
                        == _reference_reconvergence_cut(family_aig, var, max_leaves)), \
                    (var, max_leaves)

    def test_window_tables_match_recursive_reference(self, family_aig):
        for var in family_aig.and_vars():
            leaves = reconvergence_cut(family_aig, var, max_leaves=8)
            tables = window_tables(family_aig, var, leaves)
            assert list(tables) == list(leaves) + cone_nodes(family_aig, var, leaves)
            for node, table in tables.items():
                assert table == _reference_table(family_aig, node, leaves), (var, node)
            assert cone_truth_table(family_aig, var, leaves) == tables[var]

    def test_window_tables_reject_leaves_that_do_not_cut(self):
        aig, (a, b, c), root = _xor_tree()
        with pytest.raises(AigError, match="do not cut"):
            window_tables(aig, root // 2, (a // 2, b // 2))

    @pytest.mark.parametrize("k, max_cuts", [(4, 8), (6, 20)])
    def test_merged_cut_tables_match_cone_tables(self, family_aig, k, max_cuts):
        cuts = enumerate_cuts(family_aig, k=k, max_cuts=max_cuts)
        sizes = set()
        for var in family_aig.and_vars():
            for cut in cuts[var]:
                # Tables come back masked; ``rewrite`` relies on it.
                assert cut.table & ~tt_mask(cut.size) == 0, (var, cut.leaves)
                if cut.leaves == (var,):
                    continue
                sizes.add(cut.size)
                assert cut.table == _reference_table(family_aig, var, cut.leaves), \
                    (var, cut.leaves)
        assert max(sizes) <= k
        if k == 6:
            # Both merge paths ran: table lookup and tt_expand.
            assert min(sizes) <= 4 < max(sizes)

    def test_expansion_rows_stay_small(self, family_aig, monkeypatch):
        requested = []
        expansion = cuts_module._expansion

        def recording(positions, nvars):
            requested.append((positions, nvars))
            return expansion(positions, nvars)

        monkeypatch.setattr(cuts_module, "_expansion", recording)
        enumerate_cuts(family_aig, k=6, max_cuts=20)
        assert requested
        for positions, nvars in requested:
            assert len(positions) < nvars <= 4
            assert len(expansion(positions, nvars)) <= 256

    def test_cut_cone_gain_matches_reference_and_keeps_counts(self, family_aig):
        fanout_counts = family_aig.fanout_counts()
        before = list(fanout_counts)
        cuts = enumerate_cuts(family_aig, k=4, max_cuts=8)
        for var in family_aig.and_vars():
            cut_leaves = [cut.leaves for cut in cuts[var] if cut.leaves != (var,)]
            cut_leaves.append(reconvergence_cut(family_aig, var, max_leaves=10))
            for leaves in cut_leaves:
                assert (cut_cone_gain(family_aig, var, leaves, fanout_counts)
                        == _reference_cone_gain(family_aig, var, leaves, fanout_counts))
        assert fanout_counts == before
        assert cut_cone_gain(family_aig, family_aig.pis[0], (), fanout_counts) == 0

    def test_cut_cone_gain_with_no_leaves_is_the_mffc_size(self):
        aig = AIG()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        ab = aig.add_and(a, b)
        abc = aig.add_and(ab, c)
        aig.add_po(abc)
        # Both AND nodes are in the fanout-free cone of the root.
        assert cut_cone_gain(aig, lit_var(abc), (), aig.fanout_counts()) == 2
        # A second fanout keeps `ab` out of it.
        aig.add_po(ab)
        assert cut_cone_gain(aig, lit_var(abc), (), aig.fanout_counts()) == 1


class TestFaninArray:
    def test_matches_checked_accessors(self):
        aig = random_aig(num_pis=5, num_nodes=30, seed=8)
        view = aig.fanin_array
        assert len(view) == aig.num_vars
        for var in aig.nodes():
            assert (view[var] is not None) == aig.is_and(var)
            if aig.is_and(var):
                assert view[var] == aig.fanins(var)

    def test_is_live(self):
        aig = AIG()
        view = aig.fanin_array
        a = aig.add_pi()
        b = aig.add_pi()
        node = aig.add_and(a, b)
        assert view[node // 2] == aig.fanins(node // 2)
