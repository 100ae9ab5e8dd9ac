"""Tests for the Tseitin and LUT-to-CNF encoders.

The central property is *model agreement*: extending any circuit input
assignment with the simulated values of all internal nodes yields a CNF
assignment that satisfies the encoding exactly when the circuit output
constraint holds.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, lit_not
from repro.aig.aig import lit_is_complemented, lit_var
from repro.aig.simulate import evaluate
from repro.cnf import lut_netlist_to_cnf, tseitin_encode
from repro.errors import CnfError
from repro.logic.isop import clause_template, isop
from repro.logic.truthtable import tt_eval, tt_mask
from repro.mapping import branching_cost, map_aig
from repro.mapping.cost import branching_complexity
from tests.helpers import random_aig, ripple_adder_aig


def _aig_node_values(aig, bits):
    """Simulate the AIG and return the value of every variable."""
    node_values = [False] * aig.num_vars
    for row, pi in enumerate(aig.pis):
        node_values[pi] = bool(bits[row])
    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        val0 = node_values[lit_var(lit0)] ^ lit_is_complemented(lit0)
        val1 = node_values[lit_var(lit1)] ^ lit_is_complemented(lit1)
        node_values[var] = val0 and val1
    return node_values


def _tseitin_model(aig, cnf, bits):
    """Extend an input assignment to every CNF variable."""
    node_values = _aig_node_values(aig, bits)
    model = {}
    for aig_var, cnf_var in cnf.var_map.items():
        model[cnf_var] = node_values[aig_var]
    for var in range(1, cnf.num_vars + 1):
        model.setdefault(var, False)  # auxiliary constant variable
    return model


def _lut_model(netlist, cnf, bits):
    """Extend an input assignment to every CNF variable of a LUT encoding."""
    node_values = {}
    model = {}
    for pi, bit in zip(netlist.pis, bits):
        node_values[pi] = bool(bit)
        model[cnf.var_map[pi]] = bool(bit)
    for node in netlist.luts():
        fanin_values = [node_values[fanin] for fanin in node.inputs]
        value = (tt_eval(node.table, fanin_values, node.num_inputs)
                 if node.num_inputs else bool(node.table & 1))
        node_values[node.node_id] = value
        model[cnf.var_map[node.node_id]] = value
    return model


class TestTseitin:
    def test_clause_count_formula(self):
        aig = ripple_adder_aig(width=3)
        cnf = tseitin_encode(aig)
        # 3 clauses per AND plus one output clause (no constant PO here).
        assert cnf.num_clauses == 3 * aig.num_ands + 1
        assert cnf.num_vars == aig.num_pis + aig.num_ands

    def test_rejects_bad_output_mode(self):
        with pytest.raises(CnfError):
            tseitin_encode(random_aig(seed=1), output_mode="most")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_model_agreement(self, seed):
        aig = random_aig(num_pis=5, num_nodes=20, seed=seed)
        cnf = tseitin_encode(aig, output_mode="any")
        for pattern in range(1 << aig.num_pis):
            bits = [bool((pattern >> i) & 1) for i in range(aig.num_pis)]
            outputs = evaluate(aig, bits)
            model = _tseitin_model(aig, cnf, bits)
            assert cnf.evaluate(model) == any(outputs)

    def test_all_mode_requires_every_output(self):
        aig = ripple_adder_aig(width=2)
        cnf_any = tseitin_encode(aig, output_mode="any")
        cnf_all = tseitin_encode(aig, output_mode="all")
        assert cnf_all.num_clauses == cnf_any.num_clauses + aig.num_pos - 1

    def test_none_mode_has_no_output_clause(self):
        aig = ripple_adder_aig(width=2)
        cnf = tseitin_encode(aig, output_mode="none")
        assert cnf.num_clauses == 3 * aig.num_ands

    def test_constant_false_output_is_unsatisfiable(self):
        aig = AIG()
        a = aig.add_pi()
        aig.add_po(aig.add_and(a, lit_not(a)))  # constant-false output
        cnf = tseitin_encode(aig)
        satisfiable = any(
            cnf.evaluate({var: bool((pattern >> (var - 1)) & 1)
                          for var in range(1, cnf.num_vars + 1)})
            for pattern in range(1 << cnf.num_vars)
        )
        assert not satisfiable


class TestLut2Cnf:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_model_agreement(self, seed):
        aig = random_aig(num_pis=5, num_nodes=25, seed=seed)
        netlist = map_aig(aig, k=4, cost_fn=branching_cost).netlist
        cnf = lut_netlist_to_cnf(netlist, output_mode="any")
        for pattern in range(1 << netlist.num_pis):
            bits = [bool((pattern >> i) & 1) for i in range(netlist.num_pis)]
            outputs = netlist.evaluate(bits)
            model = _lut_model(netlist, cnf, bits)
            assert cnf.evaluate(model) == any(outputs)

    def test_clause_count_equals_total_branching_complexity(self):
        aig = random_aig(num_pis=6, num_nodes=35, seed=5)
        netlist = map_aig(aig, k=4, cost_fn=branching_cost).netlist
        cnf = lut_netlist_to_cnf(netlist, output_mode="none")
        expected = sum(branching_complexity(node.table, node.num_inputs)
                       for node in netlist.luts())
        assert cnf.num_clauses == expected

    def test_simplified_cnf_is_smaller_than_tseitin(self):
        aig = random_aig(num_pis=8, num_nodes=80, seed=7)
        baseline = tseitin_encode(aig)
        netlist = map_aig(aig, k=4, cost_fn=branching_cost).netlist
        simplified = lut_netlist_to_cnf(netlist)
        assert simplified.num_vars < baseline.num_vars

    def test_rejects_bad_output_mode(self):
        aig = random_aig(seed=1)
        netlist = map_aig(aig).netlist
        with pytest.raises(CnfError):
            lut_netlist_to_cnf(netlist, output_mode="sometimes")

    def test_constant_lut_encoding(self):
        aig = AIG()
        aig.add_pi()
        aig.add_po(1)  # constant-true output
        netlist = map_aig(aig).netlist
        cnf = lut_netlist_to_cnf(netlist)
        model = {var: True for var in range(1, cnf.num_vars + 1)}
        assert cnf.evaluate(model) or cnf.evaluate(
            {var: False for var in range(1, cnf.num_vars + 1)})

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, deadline=None)
    def test_encoding_property_random(self, seed):
        aig = random_aig(num_pis=4, num_nodes=18, seed=seed)
        netlist = map_aig(aig, k=4).netlist
        cnf = lut_netlist_to_cnf(netlist, output_mode="any")
        for pattern in range(1 << netlist.num_pis):
            bits = [bool((pattern >> i) & 1) for i in range(netlist.num_pis)]
            outputs = netlist.evaluate(bits)
            model = _lut_model(netlist, cnf, bits)
            assert cnf.evaluate(model) == any(outputs)


def _isop_clauses(table, nvars):
    """The clauses of one LUT from two ISOP calls, as the encoder made them
    per LUT: a cube's negation over ``x_i = i + 1``, then the output."""
    mask = tt_mask(nvars)
    clauses = []
    for function, output in ((table & mask, nvars + 1),
                             (~table & mask, -(nvars + 1))):
        for pos_mask, neg_mask in isop(function, function, nvars):
            clause = [(i + 1) if neg_mask >> i & 1 else -(i + 1)
                      for i in range(nvars) if (pos_mask | neg_mask) >> i & 1]
            clauses.append((*clause, output))
    return tuple(clauses)


def _satisfied_exactly_by_the_function(clauses, table, nvars):
    for minterm in range(1 << nvars):
        for value in (False, True):
            assignment = [bool(minterm >> i & 1) for i in range(nvars)] + [value]
            holds = all(any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
                        for clause in clauses)
            if holds != (value == bool(table >> minterm & 1)):
                return False
    return True


#: Every 2- and 3-input function, then seeded random 4-6-input tables.
TEMPLATE_TABLES = ([(table, nvars) for nvars in (2, 3) for table in range(1 << (1 << nvars))]
                   + [(random.Random(100 * nvars + i).getrandbits(1 << nvars), nvars)
                      for nvars in (4, 5, 6) for i in range(24)])


class TestClauseTemplate:
    def test_matches_per_lut_isop(self):
        for table, nvars in TEMPLATE_TABLES:
            template = clause_template(table, nvars)
            assert template == _isop_clauses(table, nvars), (table, nvars)
            assert _satisfied_exactly_by_the_function(template, table, nvars)

    def test_length_is_branching_complexity(self):
        for table, nvars in TEMPLATE_TABLES + [(0, 0), (1, 0)]:
            onset = len(isop(table, table, nvars))
            offset = len(isop(~table & tt_mask(nvars), ~table & tt_mask(nvars), nvars))
            assert branching_complexity(table, nvars) \
                == len(clause_template(table, nvars)) == max(1, onset + offset)

    def test_one_cached_template_per_function(self):
        clause_template.cache_clear()
        first = clause_template(0b0110, 2)
        assert clause_template(0b0110, 2) is first
        assert branching_complexity(0b0110, 2) == 4
        info = clause_template.cache_info()
        assert (info.misses, info.hits) == (1, 2)
