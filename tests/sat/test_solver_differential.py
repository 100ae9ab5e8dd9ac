"""Differential and determinism guards for the rewritten CDCL hot paths.

The solver rewrite (blocker-literal watches, indexed VSIDS heap, epoch-based
conflict analysis, in-place database reduction) must not change *what* the
solver concludes, only how fast it gets there.  These tests pin that down:

* a seeded sweep of ~100 random small CNFs cross-checked against the DPLL
  reference oracle, with every SAT model validated against the formula;
* bitwise determinism of the search trajectory (two runs on the same CNF
  produce identical statistics);
* direct unit coverage of the indexed heap and the in-place reduction.
"""

import numpy as np
import pytest

from repro.benchgen import random_cnf as _random_cnf
from repro.cnf.cnf import Cnf
from repro.sat import CdclSolver, SolverConfig, cadical_like, dpll_solve, kissat_like
from repro.sat.heap import VarOrderHeap


def _differential_cases():
    """~100 seeded (num_vars, num_clauses, seed) triples of varying density."""
    cases = []
    rng = np.random.default_rng(20260730)
    for index in range(100):
        num_vars = int(rng.integers(4, 14))
        num_clauses = int(rng.integers(num_vars, 6 * num_vars))
        cases.append((num_vars, num_clauses, index))
    return cases


class TestDifferentialAgainstDpll:
    @pytest.mark.parametrize("num_vars,num_clauses,seed", _differential_cases())
    def test_agreement_and_model_validity(self, num_vars, num_clauses, seed):
        cnf = _random_cnf(num_vars, num_clauses, seed)
        expected_status, _ = dpll_solve(cnf)
        result = CdclSolver(cnf).solve()
        assert result.status == expected_status
        if result.is_sat:
            assert cnf.evaluate(result.model)

    @pytest.mark.parametrize("config_factory", [kissat_like, cadical_like])
    def test_agreement_under_presets(self, config_factory):
        for seed in range(10):
            cnf = _random_cnf(10, 45, seed + 1000)
            expected_status, _ = dpll_solve(cnf)
            result = CdclSolver(cnf, config=config_factory()).solve()
            assert result.status == expected_status
            if result.is_sat:
                assert cnf.evaluate(result.model)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_identical_stats_across_runs(self, seed):
        cnf = _random_cnf(30, 125, seed)
        first = CdclSolver(cnf).solve()
        second = CdclSolver(cnf).solve()
        assert first.status == second.status
        assert first.model == second.model
        first_stats = first.stats.as_dict()
        second_stats = second.stats.as_dict()
        first_stats.pop("solve_time")
        second_stats.pop("solve_time")
        assert first_stats == second_stats

    def test_reduction_path_is_deterministic(self):
        # Force frequent reductions so the in-place deletion machinery runs.
        config = SolverConfig(reduce_interval=10, reduce_fraction=0.9,
                              max_lbd_keep=1, restart_interval=8)
        cnf = _random_cnf(40, 170, seed=3)
        first = CdclSolver(cnf, config=config).solve()
        second = CdclSolver(cnf, config=config).solve()
        assert first.status == second.status
        assert first.stats.conflicts == second.stats.conflicts
        assert first.stats.decisions == second.stats.decisions
        assert first.stats.deleted_clauses == second.stats.deleted_clauses


class TestInPlaceReduction:
    def test_deleted_clauses_are_detached_and_recycled(self):
        config = SolverConfig(reduce_interval=10, reduce_fraction=1.0,
                              max_lbd_keep=0, restart_interval=8)
        cnf = _random_cnf(35, 150, seed=11)
        solver = CdclSolver(cnf, config=config)
        result = solver.solve()
        assert result.status in ("SAT", "UNSAT")
        if result.stats.deleted_clauses:
            # Tombstoned slots exist or were recycled; watch lists must never
            # reference a deleted (None) clause.  Binary clauses are watched
            # under the tag ~index, longer ones under their index.
            for watch_list in solver._watches:
                for position in range(0, len(watch_list), 2):
                    tag = watch_list[position]
                    clause = solver._clauses[tag if tag >= 0 else ~tag]
                    assert clause is not None
                    assert (tag < 0) == (len(clause) == 2)

    def test_correct_verdict_under_aggressive_reduction(self):
        config = SolverConfig(reduce_interval=5, reduce_fraction=1.0,
                              max_lbd_keep=0, restart_interval=4)
        for seed in range(6):
            cnf = _random_cnf(12, 55, seed + 500)
            expected_status, _ = dpll_solve(cnf)
            assert CdclSolver(cnf, config=config).solve().status == expected_status


class TestVarOrderHeap:
    def test_bulk_build_pops_in_activity_order(self):
        activity = [0.5, 3.0, 1.0, 3.0, 0.0]
        heap = VarOrderHeap(activity)
        heap.build(list(range(5)))
        assert [heap.pop() for _ in range(5)] == [1, 3, 2, 0, 4]
        assert len(heap) == 0

    def test_solver_keeps_heap_order_through_search(self):
        # The solver bumps, re-inserts and pops on the heap's arrays itself.
        # Check the heap mid-search (bumped activities) and after unwinding
        # a conflict-free solve (all activities tie, so indices decide).
        cnf = _random_cnf(60, 256, seed=2, min_width=3, max_width=3)
        searching = CdclSolver(cnf, config=SolverConfig(random_decision_freq=0.05))
        assert searching.solve(max_conflicts=60).status == "UNKNOWN"
        unwound = CdclSolver(Cnf(12))
        assert unwound.solve().is_sat and unwound.stats.conflicts == 0
        assert unwound.add_clause([1, 2])
        for solver in (searching, unwound):
            order = solver._order
            activity = solver._activity
            for slot, var in enumerate(order.heap):
                assert order.position[var] == slot
                if slot:
                    parent = order.heap[(slot - 1) >> 1]
                    assert (activity[parent], -parent) > (activity[var], -var)
            assert sum(slot >= 0 for slot in order.position) == len(order)
        assert len(unwound._order) == 12

    def test_insert_is_idempotent(self):
        activity = [1.0, 2.0]
        heap = VarOrderHeap(activity)
        heap.build([0, 1])
        heap.insert(0)
        heap.insert(0)
        assert len(heap) == 2
        assert heap.pop() == 1
        assert heap.pop() == 0

    def test_reinsert_after_pop(self):
        activity = [1.0, 2.0, 3.0]
        heap = VarOrderHeap(activity)
        heap.build([0, 1, 2])
        top = heap.pop()
        assert top == 2
        assert top not in heap
        heap.insert(top)
        assert heap.pop() == 2


class TestConfigRename:
    def test_reduce_fraction_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(reduce_fraction=1.5)
        with pytest.raises(ValueError):
            SolverConfig(reduce_fraction=-0.1)
