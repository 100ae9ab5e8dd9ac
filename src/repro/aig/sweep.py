"""SAT sweeping (FRAIG-style functional reduction) of an AIG.

Structural hashing only merges nodes with *identical* fanin pairs; real
circuits — LEC miters above all — are full of nodes that compute the same
function through different structures.  SAT sweeping collapses them with the
classic three-phase loop of Mishchenko et al.'s FRAIGs:

1. **Simulate**: bit-parallel random simulation
   (:func:`repro.aig.simulate.simulate_rows`) assigns every node a
   signature (its value vector over a few thousand patterns, one Python int
   with a bit per pattern).  Nodes whose signatures match up to
   complementation form *candidate equivalence classes*; almost all
   functionally distinct nodes are separated here for free.
2. **Prove**: candidates are confirmed with tiny incremental SAT queries on
   one Tseitin encoding of the whole AIG.  Each pair query activates two
   difference clauses under a fresh selector literal and solves with the
   selector as an assumption (:meth:`repro.sat.solver.CdclSolver.solve`),
   so learned clauses, VSIDS activities and saved phases accumulate across
   the thousands of related queries instead of being rebuilt per pair.
   UNSAT proves the pair equivalent; the equality is then asserted
   permanently, strengthening every later query.
3. **Refine**: a SAT answer is a *counterexample* — an input pattern on
   which the pair differs.  The pattern is simulated over the whole AIG and
   every pending class is re-partitioned by it, so one refuted pair
   typically disqualifies many other false candidates at once
   (counterexample-guided refinement).

Resource limits keep the engine predictable: every pair query runs under a
conflict budget (``UNKNOWN`` abandons the pair, never compromising
soundness), classes are processed smallest-first, and oversized classes are
truncated.  The swept AIG is rebuilt by substituting each merged node with
its class representative (always an earlier node, so the substitution is
acyclic) and sweeping out the dangling logic.

**Exhaustive path.**  SAT is only needed for what simulation cannot settle.
When ``2**num_pis`` is at most the number of patterns the sweep simulates
anyway (up to 11 inputs at the default 2 048 patterns, never more than 16
inputs), phase 1 simulates *every* input pattern instead of random ones:
input ``i``'s row is its truth table
:func:`repro.logic.truthtable.tt_var`.  The classes are then exact, so
phases 2 and 3 of the loop reduce to merging each AND member
into its class representative under the same rules (truncation to
``max_class_size``; PIs and the constant act only as representatives).  No
CNF and no solver are built and ``seed`` is unused.  The swept AIG is the
one the SAT path produces whenever that path proves every candidate; where
the SAT path would give up on its conflict budget, this path merges more,
which is still sound.  Its stats report ``sim_patterns = 2**num_pis``,
``proved == merges`` and ``sat_calls``, ``refuted``, ``undecided`` and
``refinements`` all 0.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import time
from dataclasses import dataclass

from repro.aig.aig import AIG, CONST0, lit_var
from repro.aig.simulate import (
    EXHAUSTIVE_MAX_PIS as _EXHAUSTIVE_MAX_PIS,
    exhaustive_pi_rows,
    random_pi_rows,
    simulate_rows,
)
from repro.cnf.tseitin import tseitin_encode
from repro.obs import get_tracer
from repro.sat.configs import SolverConfig
from repro.sat.solver import CdclSolver

logger = logging.getLogger(__name__)

__all__ = ["SweepStats", "SweepResult", "sweep_aig", "fraig"]


@dataclass
class SweepStats:
    """Counters describing one sweep run."""

    nodes_before: int = 0
    nodes_after: int = 0
    classes_initial: int = 0
    sim_patterns: int = 0
    sat_calls: int = 0
    proved: int = 0
    refuted: int = 0
    undecided: int = 0
    merges: int = 0
    const_merges: int = 0
    refinements: int = 0
    sweep_time: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "classes_initial": self.classes_initial,
            "sim_patterns": self.sim_patterns,
            "sat_calls": self.sat_calls,
            "proved": self.proved,
            "refuted": self.refuted,
            "undecided": self.undecided,
            "merges": self.merges,
            "const_merges": self.const_merges,
            "refinements": self.refinements,
            "sweep_time": self.sweep_time,
        }


@dataclass
class SweepResult:
    """The swept AIG plus the counters of the run that produced it."""

    aig: AIG
    stats: SweepStats


def sweep_aig(aig: AIG, num_patterns: int = 2048, seed: int = 1,
              conflict_budget: int = 200, max_class_size: int = 64,
              config: SolverConfig | None = None) -> SweepResult:
    """SAT-sweep ``aig``: merge proven-equivalent nodes, return the result.

    The returned AIG has the same PI/PO interface and the same PO functions
    as the input (nodes are merged only after an UNSAT proof or exhaustive
    simulation; budgeted-out pairs are simply left alone, so the transform
    is always sound).

    ``num_patterns``
        random simulation patterns for the initial candidate classes
        (rounded up to a multiple of 64).  A circuit with at most that many
        input patterns is simulated exhaustively and swept without SAT
        (see the module docstring).
    ``conflict_budget``
        CDCL conflict limit per pair query; exceeding it abandons the pair.
    ``max_class_size``
        candidate classes are truncated to this many members — simulation
        classes this coarse are usually noise, and the limit bounds the
        number of SAT queries per class.
    ``config``
        solver preset for the proof engine (default: the stock
        :class:`repro.sat.configs.SolverConfig`).
    """
    tracer = get_tracer()
    with tracer.span("sweep", nodes_before=aig.num_ands) as span:
        result = _sweep(aig, num_patterns=num_patterns, seed=seed,
                        conflict_budget=conflict_budget,
                        max_class_size=max_class_size, config=config)
        span.set(nodes_after=result.stats.nodes_after,
                 sat_calls=result.stats.sat_calls,
                 merges=result.stats.merges,
                 refinements=result.stats.refinements)
    logger.info("sweep: %d -> %d AND nodes (%d merges, %d SAT calls)",
                result.stats.nodes_before, result.stats.nodes_after,
                result.stats.merges, result.stats.sat_calls)
    return result


def _sweep(aig: AIG, num_patterns: int, seed: int, conflict_budget: int,
           max_class_size: int, config: SolverConfig | None) -> SweepResult:
    start = time.perf_counter()
    stats = SweepStats(nodes_before=aig.num_ands)
    if aig.num_ands == 0:
        swept = aig.cleanup()
        stats.nodes_after = swept.num_ands
        stats.sweep_time = time.perf_counter() - start
        return SweepResult(aig=swept, stats=stats)

    # ---------------------------------------------------------------- #
    # Phase 1: simulation -> candidate classes
    # ---------------------------------------------------------------- #
    num_words = max(1, (num_patterns + 63) // 64)
    exhaustive = (aig.num_pis <= _EXHAUSTIVE_MAX_PIS
                  and 1 << aig.num_pis <= num_words * 64)
    if exhaustive:
        pi_rows = exhaustive_pi_rows(aig.num_pis)
        stats.sim_patterns = 1 << aig.num_pis
    else:
        pi_rows = random_pi_rows(aig.num_pis, num_patterns, seed)
        stats.sim_patterns = num_words * 64
    full = (1 << stats.sim_patterns) - 1
    values = simulate_rows(aig, pi_rows, full)

    # Normalise each signature so that pattern 0 evaluates to 0; ``phase``
    # records the complementation, so nodes equal up to inversion land in
    # the same class.  The constant node (all-zero row, phase 0) anchors the
    # class of simulation-constant nodes.
    num_vars = aig.num_vars
    phase = [0] * num_vars
    classes: dict[int, list[int]] = {}
    for var in range(num_vars):
        row = values[var]
        var_phase = phase[var] = row & 1
        classes.setdefault(row ^ full if var_phase else row, []).append(var)
    candidate_classes = [members for members in classes.values()
                         if len(members) >= 2]
    stats.classes_initial = len(candidate_classes)
    if not candidate_classes:
        swept = aig.cleanup()
        stats.nodes_after = swept.num_ands
        stats.sweep_time = time.perf_counter() - start
        return SweepResult(aig=swept, stats=stats)

    if exhaustive:
        merged = _merge_exact(aig, candidate_classes, phase, max_class_size)
        stats.proved = len(merged)
        stats.const_merges = sum(1 for repr_var, _ in merged.values()
                                 if repr_var == 0)
    else:  # Phase 2: incremental SAT proving with refinement
        merged = _prove_classes(aig, candidate_classes, phase, stats,
                                conflict_budget, max_class_size, config)

    # ---------------------------------------------------------------- #
    # Phase 3: rebuild with merged nodes substituted by representatives
    # ---------------------------------------------------------------- #
    swept = AIG(name=aig.name)
    mapping: dict[int, int] = {0: CONST0}
    for pi_var, pi_name in zip(aig.pis, aig.pi_names):
        mapping[pi_var] = swept.add_pi(pi_name)

    def translate(literal: int) -> int:
        return mapping[lit_var(literal)] ^ (literal & 1)

    for var in aig.and_vars():
        merge = merged.get(var)
        if merge is not None:
            repr_var, relative = merge
            mapping[var] = mapping[repr_var] ^ relative
        else:
            lit0, lit1 = aig.fanins(var)
            mapping[var] = swept.add_and(translate(lit0), translate(lit1))
    for po, po_name in zip(aig.pos, aig.po_names):
        swept.add_po(translate(po), po_name)
    swept = swept.cleanup()

    stats.merges = len(merged)
    stats.nodes_after = swept.num_ands
    stats.sweep_time = time.perf_counter() - start
    return SweepResult(aig=swept, stats=stats)


def _merge_exact(aig: AIG, classes: list[list[int]], phase: list[int],
                 max_class_size: int) -> dict[int, tuple[int, int]]:
    """Merge every AND member of each exact class into its representative.

    Exhaustive simulation makes the classes the functional equivalence
    classes themselves, and they are disjoint, so the order in which they
    are taken cannot change the merges: this is what :func:`_prove_classes`
    merges when every query is proved.
    """
    merged: dict[int, tuple[int, int]] = {}
    for members in classes:
        members = members[:max_class_size]
        repr_var = members[0]
        for member in members[1:]:
            if aig.is_and(member):  # PIs / the constant only represent
                merged[member] = (repr_var, phase[member] ^ phase[repr_var])
    return merged


def _prove_classes(aig: AIG, candidate_classes: list[list[int]],
                   phase: list[int], stats: SweepStats, conflict_budget: int,
                   max_class_size: int, config: SolverConfig | None
                   ) -> dict[int, tuple[int, int]]:
    """Phase 2 on random-simulation classes: prove, refute and refine.

    Returns the merges (var -> (representative var, relative phase)) and
    counts the queries in ``stats``.
    """
    cnf = tseitin_encode(aig, output_mode="none")
    var_map = cnf.var_map
    solver = CdclSolver(cnf, config=config or SolverConfig())

    merged: dict[int, tuple[int, int]] = {}   # var -> (repr var, rel phase)
    abandoned: set[int] = set()               # budgeted-out candidates

    tiebreak = itertools.count()
    heap: list[tuple[int, int, list[int]]] = [
        (len(members), next(tiebreak), members)
        for members in candidate_classes
    ]
    heapq.heapify(heap)  # class-size ordering: smallest classes first

    def split_class(members: list[int],
                    node_vals: list[int]) -> list[list[int]]:
        zeros: list[int] = []
        ones: list[int] = []
        for member in members:
            if member in merged or member in abandoned:
                continue
            (ones if node_vals[member] ^ phase[member] else zeros).append(member)
        return [part for part in (zeros, ones) if len(part) >= 2]

    while heap:
        _, _, members = heapq.heappop(heap)
        members = [m for m in members if m not in merged and m not in abandoned]
        if len(members) < 2:
            continue
        members = members[:max_class_size]
        repr_var = members[0]
        counterexample: list[int] | None = None
        survivors: list[int] = []
        for index in range(1, len(members)):
            member = members[index]
            if not aig.is_and(member):
                continue  # PIs / the constant can only be representatives
            relative = phase[member] ^ phase[repr_var]
            cnf_member = var_map[member]
            stats.sat_calls += 1
            if repr_var == 0:
                # Constant candidate: is the node ever != its sampled value?
                assumption = -cnf_member if relative else cnf_member
                result = solver.solve(assumptions=[assumption],
                                      max_conflicts=conflict_budget)
                if result.is_unsat:
                    solver.add_clause([-assumption])
                    merged[member] = (0, relative)
                    stats.proved += 1
                    stats.const_merges += 1
                    continue
            else:
                cnf_repr = var_map[repr_var]
                selector = solver.new_var()
                if relative:
                    # Prove member == NOT repr: can they ever be equal?
                    solver.add_clause([-selector, cnf_member, -cnf_repr])
                    solver.add_clause([-selector, -cnf_member, cnf_repr])
                else:
                    # Prove member == repr: can they ever differ?
                    solver.add_clause([-selector, cnf_member, cnf_repr])
                    solver.add_clause([-selector, -cnf_member, -cnf_repr])
                result = solver.solve(assumptions=[selector],
                                      max_conflicts=conflict_budget)
                solver.add_clause([-selector])  # retire the selector
                if result.is_unsat:
                    # Assert the equality permanently: later queries inherit
                    # the merge as two binary clauses (the CNF analogue of
                    # rewiring the node onto its representative).
                    if relative:
                        solver.add_clause([cnf_member, cnf_repr])
                        solver.add_clause([-cnf_member, -cnf_repr])
                    else:
                        solver.add_clause([-cnf_member, cnf_repr])
                        solver.add_clause([cnf_member, -cnf_repr])
                    merged[member] = (repr_var, relative)
                    stats.proved += 1
                    continue
            if result.status == "UNKNOWN":
                stats.undecided += 1
                abandoned.add(member)
                continue
            # SAT: a concrete input pattern distinguishes the pair.
            stats.refuted += 1
            model = result.model
            counterexample = simulate_rows(
                aig, [int(model[var_map[pi]]) for pi in aig.pis], 1)
            survivors = [repr_var] + members[index:]
            break
        if counterexample is not None:
            # Counterexample-guided refinement: one refuting pattern
            # re-partitions every pending class, not just this one.
            stats.refinements += 1
            get_tracer().event("refinement", sat_calls=stats.sat_calls,
                               pending_classes=len(heap) + 1)
            remaining = [survivors] + [entry[2] for entry in heap]
            heap = []
            for cls in remaining:
                for part in split_class(cls, counterexample):
                    heap.append((len(part), next(tiebreak), part))
            heapq.heapify(heap)
    return merged


def fraig(aig: AIG) -> AIG:
    """The recipe-operation form of :func:`sweep_aig` (defaults only).

    Registered as ``"fraig"`` (alias ``"f"``) in
    :mod:`repro.synthesis.recipe`, so SAT sweeping can appear anywhere in a
    synthesis script, e.g. ``balance,rewrite,fraig``.
    """
    return sweep_aig(aig).aig
