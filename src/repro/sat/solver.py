"""A conflict-driven clause-learning (CDCL) SAT solver in pure Python.

The implementation follows the canonical MiniSat architecture with the
modern additions the paper's target solvers (Kissat, CaDiCaL) rely on:

* two-watched-literal unit propagation with *blocker literals* (each watch
  carries a cached literal of its clause; when the blocker is already true
  the clause is skipped without dereferencing it).  A binary clause is
  watched under the tag ``~index`` with the other literal as blocker, so a
  binary watch whose blocker is not true is unit or conflicting at once;
* first-UIP conflict analysis with learned-clause minimisation, running on
  epoch-stamped scratch arrays so no per-conflict allocation is needed;
* VSIDS variable activities on an indexed binary heap
  (:class:`repro.sat.heap.VarOrderHeap`) with phase saving.  The bump in
  analysis, the re-insertion on backtrack and the branching pop sift the
  heap's arrays in place, without method calls;
* Luby or geometric restarts;
* glue-based (LBD) learned-clause database reduction performed in place:
  deleted clauses are detached from their two watch lists and their slots
  recycled, so clause indices — and therefore reason references — stay
  stable across reductions;
* DRAT proof logging and clause-sharing hooks: a proof sink
  (:meth:`CdclSolver.set_proof`) receives every learned clause, database
  deletion and the final empty clause; a :class:`ClauseExportHook`
  (:meth:`CdclSolver.set_export_hook`) forwards short/low-LBD learned
  clauses to a portfolio bus; and an import source
  (:meth:`CdclSolver.set_import_source`) is drained at restart boundaries,
  where foreign clauses are simplified against the level-0 assignment and
  filtered for duplicates and size.  All three default to off and cost
  one false test per conflict when uninstalled;
* an *incremental* interface in the MiniSat assumption style:
  :meth:`CdclSolver.solve` accepts ``assumptions`` (DIMACS literals held
  fixed for one call), UNSAT-under-assumptions results carry a
  *final-conflict core* (the subset of assumptions that already clash), and
  :meth:`CdclSolver.add_clause` / :meth:`CdclSolver.new_var` grow the
  formula between calls while learned clauses, VSIDS activities and saved
  phases persist — repeated related queries (SAT sweeping, CEGAR loops)
  converge far faster than re-instantiating the solver per query.

Internally literals are encoded as ``2 * var + sign`` with 0-based variables;
the public interface speaks DIMACS (1-based signed integers) through
:class:`repro.cnf.Cnf`.  Assignments are stored per *literal*
(``_lit_val[lit]`` is 1/0/-1 for true/false/unassigned), which turns the
propagation inner loop's value checks into single list lookups.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.cnf.cnf import Cnf
from repro.errors import ResourceLimitExceeded, SolverError
from repro.sat.configs import SolverConfig
from repro.sat.heap import VarOrderHeap
from repro.sat.stats import ProgressSnapshot, SolverStats

#: Tri-state literal values stored in ``_lit_val``.
_UNASSIGNED = -1
_FALSE = 0
_TRUE = 1

#: Default conflict interval between progress-hook samples.
DEFAULT_PROGRESS_INTERVAL = 2048


@dataclass
class SolveResult:
    """Outcome of a solver run.

    ``core`` is only populated for UNSAT results: it is the subset of the
    assumption literals (DIMACS encoding, as passed in) that is already
    jointly inconsistent with the clause database — the *final-conflict
    core* of MiniSat's ``analyzeFinal``.  An empty core means the formula is
    UNSAT regardless of the assumptions.
    """

    status: str                      # "SAT", "UNSAT", "UNKNOWN",
                                     # "MEMOUT" or "TIMEOUT" (watchdog trips)
    model: dict[int, bool] | None    # DIMACS variable -> value (SAT only)
    stats: SolverStats
    core: list[int] | None = None    # failed assumption subset (UNSAT only)

    @property
    def is_sat(self) -> bool:
        return self.status == "SAT"

    @property
    def is_unsat(self) -> bool:
        return self.status == "UNSAT"


class ClauseExportHook:
    """Filters learned clauses worth sharing and forwards them to a sink.

    Installed with :meth:`CdclSolver.set_export_hook`; the solver calls the
    hook with every learned clause (DIMACS literals) and its LBD.  Clauses
    longer than ``max_len`` or with glue above ``max_lbd`` are dropped (the
    HordeSat rule: only short, low-glue clauses are worth the traffic), and
    ``budget`` caps the total number of exports for this solver.  ``sink``
    receives the surviving ``(clause, lbd)`` pairs — typically a
    :class:`repro.sat.sharing.BusEndpoint` export method.
    """

    def __init__(self, sink, max_len: int = 8, max_lbd: int = 4,
                 budget: int | None = None) -> None:
        self.sink = sink
        self.max_len = max_len
        self.max_lbd = max_lbd
        self.budget = budget
        self.exported = 0
        self.filtered = 0

    def __call__(self, clause: tuple[int, ...], lbd: int) -> bool:
        """Offer one learned clause; return True when it was exported."""
        if self.budget is not None and self.exported >= self.budget:
            return False
        if len(clause) > self.max_len or lbd > self.max_lbd:
            self.filtered += 1
            return False
        self.exported += 1
        self.sink(clause, lbd)
        return True


def _luby(index: int) -> int:
    """Return the ``index``-th element (0-based) of the Luby sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    (MiniSat's iterative formulation).
    """
    size = 1
    sequence = 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        sequence -= 1
        index = index % size
    return 1 << sequence


class CdclSolver:
    """CDCL solver over a fixed clause database."""

    def __init__(self, cnf: Cnf, config: SolverConfig | None = None) -> None:
        self.config = config or SolverConfig()
        self.num_vars = cnf.num_vars
        self.stats = SolverStats()

        # Clause storage: deleted slots become None and are recycled through
        # the free list, so indices (and reason references) never move.
        self._clauses: list[list[int] | None] = []
        self._clause_lbd: list[int] = []
        self._learned_indices: list[int] = []
        self._free_indices: list[int] = []
        # Watch lists are flat interleaved arrays [tag0, blocker0, ...]; the
        # tag is the clause index, or ~index for a binary clause.
        self._watches: list[list[int]] = [[] for _ in range(2 * self.num_vars)]

        self._lit_val = [_UNASSIGNED] * (2 * self.num_vars)
        self._level = [0] * self.num_vars
        self._reason: list[int] = [-1] * self.num_vars
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._queue_head = 0

        self._activity = [0.0] * self.num_vars
        self._var_inc = 1.0
        self._order = VarOrderHeap(self._activity)
        self._saved_phase = [self.config.default_phase] * self.num_vars

        # Epoch-stamped scratch arrays for conflict analysis: an array cell
        # counts as "set" when it equals the current epoch, so clearing is a
        # single integer increment instead of a fresh allocation.
        self._seen_stamp = [0] * self.num_vars
        self._level_stamp = [0] * (self.num_vars + 1)
        self._epoch = 0

        self._rng = random.Random(self.config.seed)

        # Periodic progress hook (see set_progress).  _progress_interval of 0
        # keeps the whole machinery behind one false integer test per
        # conflict — the off path must stay within noise of a build without
        # the hook (guarded by the obs_overhead perf benchmark).
        self._progress = None
        self._progress_interval = 0
        self._next_progress = 0
        self._dl_ema = 0.0

        # Proof logging and clause sharing (see set_proof / set_export_hook
        # / set_import_source).  _log_learned folds "is any learned-clause
        # consumer installed" into one boolean so the conflict hot path pays
        # a single false test when proofs and sharing are off.
        self._proof = None
        self._export = None
        self._import_source = None
        self._import_max_len = 32
        self._import_seen: set[tuple[int, ...]] = set()
        self._log_learned = False
        self._proof_empty_done = False

        self._ok = True
        self._trivially_unsat = False
        self._load(cnf)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _load(self, cnf: Cnf) -> None:
        for clause in cnf.clauses:
            literals = self._convert_clause(clause)
            if literals is None:
                continue  # clause is a tautology
            if not literals:
                self._trivially_unsat = True
                return
            if len(literals) == 1:
                if not self._enqueue(literals[0], -1):
                    self._trivially_unsat = True
                    return
            else:
                self._attach_clause(literals, lbd=0, learned=False)
        self._order.build(list(range(self.num_vars)))

    def _convert_clause(self, clause: list[int]) -> list[int] | None:
        literals: list[int] = []
        seen: set[int] = set()
        for dimacs in clause:
            var = abs(dimacs) - 1
            if var >= self.num_vars:
                raise SolverError(f"literal {dimacs} out of range")
            literal = 2 * var + (1 if dimacs < 0 else 0)
            if literal in seen:
                continue
            if literal ^ 1 in seen:
                return None  # tautological clause
            seen.add(literal)
            literals.append(literal)
        return literals

    def _attach_clause(self, literals: list[int], lbd: int, learned: bool) -> int:
        if self._free_indices:
            index = self._free_indices.pop()
            self._clauses[index] = literals
            self._clause_lbd[index] = lbd if learned else 0
        else:
            index = len(self._clauses)
            self._clauses.append(literals)
            self._clause_lbd.append(lbd if learned else 0)
        tag = index if len(literals) > 2 else ~index
        watch0 = self._watches[literals[0]]
        watch0.append(tag)
        watch0.append(literals[1])
        watch1 = self._watches[literals[1]]
        watch1.append(tag)
        watch1.append(literals[0])
        if learned:
            self._learned_indices.append(index)
        return index

    def _detach_watch(self, literal: int, clause_index: int) -> None:
        """Remove one (clause, blocker) pair of a non-binary clause."""
        watch_list = self._watches[literal]
        for position in range(0, len(watch_list), 2):
            if watch_list[position] == clause_index:
                watch_list[position] = watch_list[-2]
                watch_list[position + 1] = watch_list[-1]
                del watch_list[-2:]
                return

    # ------------------------------------------------------------------ #
    # Progress reporting
    # ------------------------------------------------------------------ #

    def set_progress(self, callback,
                     interval: int = DEFAULT_PROGRESS_INTERVAL) -> None:
        """Install a periodic progress hook (``None`` uninstalls it).

        ``callback`` receives a :class:`repro.sat.stats.ProgressSnapshot`
        every ``interval`` conflicts: cumulative counters, conflicts/sec,
        the live learned-DB size, the trail depth at the sampling conflict
        and an exponential moving average of recent decision levels.  The
        hook is how the observability layer (tracer events, the CLI's
        kissat-style ``c`` lines under ``--verbose``) watches a running
        solve; with no hook installed the solver pays one false integer
        test per conflict.
        """
        if callback is not None and interval < 1:
            raise SolverError("progress interval must be at least 1")
        self._progress = callback
        self._progress_interval = interval if callback is not None else 0

    def _emit_progress(self, start_time: float, conflicts_start: int) -> None:
        stats = self.stats
        elapsed = time.perf_counter() - start_time
        call_conflicts = stats.conflicts - conflicts_start
        self._progress(ProgressSnapshot(
            conflicts=stats.conflicts,
            decisions=stats.decisions,
            propagations=stats.propagations,
            restarts=stats.restarts,
            learned_db_size=stats.learned_db_size,
            trail_depth=len(self._trail),
            decision_level_ema=self._dl_ema,
            elapsed_s=elapsed,
            conflicts_per_sec=call_conflicts / elapsed if elapsed > 0 else 0.0,
            propagations_per_conflict=stats.propagations_per_conflict,
        ))

    # ------------------------------------------------------------------ #
    # Proof logging and clause sharing
    # ------------------------------------------------------------------ #

    def set_proof(self, sink) -> None:
        """Install a proof sink (``None`` uninstalls it).

        ``sink`` needs ``add_clause(clause)`` and ``delete_clause(clause)``
        taking DIMACS clauses — :class:`repro.sat.proof.DratWriter` for a
        directly checkable sequential proof, or
        :class:`repro.sat.proof.LemmaStream` for a parallel worker whose
        stream is merged later.  The solver logs every learned clause
        (units included), every database-reduction deletion, and the empty
        clause when it concludes formula-level UNSAT.  Proofs of
        UNSAT-*under-assumptions* results are not meaningful: the failed
        core is reported instead of an empty clause.
        """
        self._proof = sink
        self._log_learned = (self._proof is not None
                             or self._export is not None)

    def set_export_hook(self, hook) -> None:
        """Install a learned-clause export hook (``None`` uninstalls it).

        ``hook`` is called with ``(clause, lbd)`` for every learned clause,
        DIMACS-encoded, and returns truthy when the clause was actually
        exported (see :class:`ClauseExportHook`); exports are counted on
        ``stats.exported_clauses``.
        """
        self._export = hook
        self._log_learned = (self._proof is not None
                             or self._export is not None)

    def set_import_source(self, source, max_len: int = 32) -> None:
        """Install a shared-clause import source (``None`` uninstalls it).

        ``source()`` returns an iterable of ``(clause, lbd)`` pairs (DIMACS
        clauses learned by other portfolio workers).  The solver drains it
        at restart boundaries — the only points where the trail is at level
        0, so every import can be simplified against the permanent
        assignment: satisfied clauses are dropped, false literals removed,
        units enqueued, and a clause that empties out makes the formula
        UNSAT.  Clauses longer than ``max_len`` and duplicates of earlier
        imports are filtered (``stats.import_filtered``).
        """
        self._import_source = source
        self._import_max_len = max_len

    def _record_learned(self, learned: list[int], lbd: int) -> None:
        """Feed one learned clause to the proof sink and the export hook."""
        clause = tuple(self._to_dimacs(literal) for literal in learned)
        if self._proof is not None:
            self._proof.add_clause(clause)
        if self._export is not None and self._export(clause, lbd):
            self.stats.exported_clauses += 1

    def _emit_empty_proof(self) -> None:
        """Log the empty clause (once) when concluding formula-level UNSAT."""
        if self._proof is not None and not self._proof_empty_done:
            self._proof_empty_done = True
            self._proof.add_clause(())

    def _drain_imports(self) -> bool:
        """Attach pending shared clauses; return False on UNSAT.

        Must be called with the trail at decision level 0.  Returning False
        means an import was falsified by the level-0 assignment — the
        imported clause is a logical consequence of the formula, so the
        formula itself is UNSAT and the database is marked inconsistent.
        """
        stats = self.stats
        lit_val = self._lit_val
        for clause, lbd in self._import_source():
            if len(clause) > self._import_max_len:
                stats.import_filtered += 1
                continue
            key = tuple(sorted(clause))
            if key in self._import_seen:
                stats.import_filtered += 1
                continue
            self._import_seen.add(key)
            literals = self._convert_clause(clause)
            if literals is None:
                stats.import_filtered += 1
                continue  # tautology
            simplified: list[int] = []
            satisfied = False
            for literal in literals:
                value = lit_val[literal]
                if value == _TRUE:
                    satisfied = True
                    break
                if value == _FALSE:
                    continue
                simplified.append(literal)
            if satisfied:
                stats.import_filtered += 1
                continue
            if not simplified:
                self._ok = False
                return False
            if len(simplified) == 1:
                if not self._enqueue(simplified[0], -1):
                    self._ok = False
                    return False
            else:
                self._attach_clause(simplified, lbd=max(lbd, 1), learned=True)
                stats.learned_db_size = len(self._learned_indices)
            stats.imported_clauses += 1
        return True

    # ------------------------------------------------------------------ #
    # Incremental interface
    # ------------------------------------------------------------------ #

    def new_var(self) -> int:
        """Allocate a fresh variable; return its (1-based) DIMACS index.

        Every per-variable structure — watch lists, assignment array, reason
        and level arrays, activity, heap position, saved phase and the
        analysis scratch stamps — is extended in place, so the call is valid
        between any two :meth:`solve` invocations.
        """
        var = self.num_vars
        self.num_vars += 1
        self._watches.append([])
        self._watches.append([])
        self._lit_val.extend((_UNASSIGNED, _UNASSIGNED))
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._saved_phase.append(self.config.default_phase)
        self._seen_stamp.append(0)
        self._level_stamp.append(0)
        self._order.grow()
        self._order.insert(var)
        return var + 1

    def add_clause(self, clause: list[int] | tuple[int, ...]) -> bool:
        """Add a DIMACS clause between solves; return False on inconsistency.

        The trail is unwound to decision level 0 first, so the new clause can
        be simplified against the permanent (level-0) assignment: satisfied
        clauses are dropped, false literals removed.  A clause that empties
        out — or a unit whose propagation conflicts — marks the database
        inconsistent, after which every :meth:`solve` returns UNSAT.  Watch
        lists, learned clauses and heuristic state all stay intact, so
        solving can resume immediately after the call.
        """
        if self._trivially_unsat or not self._ok:
            return False
        self._backtrack(0)
        literals = self._convert_clause(clause)
        if literals is None:
            return True  # tautology
        lit_val = self._lit_val
        simplified: list[int] = []
        for literal in literals:
            value = lit_val[literal]
            if value == _TRUE:
                return True  # satisfied by the level-0 assignment
            if value == _FALSE:
                continue
            simplified.append(literal)
        if not simplified:
            self._ok = False
            return False
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], -1) or self._propagate() >= 0:
                self._ok = False
                return False
            return True
        self._attach_clause(simplified, lbd=0, learned=False)
        return True

    def _convert_assumptions(self, assumptions) -> list[int]:
        literals: list[int] = []
        for dimacs in assumptions:
            var = abs(dimacs) - 1
            if dimacs == 0 or var >= self.num_vars:
                raise SolverError(f"assumption literal {dimacs} out of range")
            literals.append(2 * var + (1 if dimacs < 0 else 0))
        return literals

    @staticmethod
    def _to_dimacs(literal: int) -> int:
        var = (literal >> 1) + 1
        return -var if literal & 1 else var

    def _analyze_final(self, literal: int) -> list[int]:
        """MiniSat's ``analyzeFinal``: why is assumption ``literal`` false?

        Walks the trail from the top down to the first decision, expanding
        reason clauses, and collects the assumption literals (the decisions
        of the assumption levels) that imply the complement of ``literal``.
        Returns the failed core as DIMACS literals, including ``literal``
        itself.
        """
        core = [literal]
        if self._trail_lim:
            self._epoch += 1
            epoch = self._epoch
            seen = self._seen_stamp
            level = self._level
            reasons = self._reason
            clauses = self._clauses
            trail = self._trail
            seen[literal >> 1] = epoch
            boundary = self._trail_lim[0]
            for index in range(len(trail) - 1, boundary - 1, -1):
                trail_literal = trail[index]
                var = trail_literal >> 1
                if seen[var] != epoch:
                    continue
                reason_index = reasons[var]
                if reason_index == -1:
                    # A decision below len(assumptions) levels is always an
                    # assumption (VSIDS decisions only open higher levels).
                    core.append(trail_literal)
                else:
                    for other in clauses[reason_index]:
                        if level[other >> 1] > 0:
                            seen[other >> 1] = epoch
                seen[var] = 0
        return [self._to_dimacs(lit) for lit in core]

    # ------------------------------------------------------------------ #
    # Assignment primitives
    # ------------------------------------------------------------------ #

    def _enqueue(self, literal: int, reason: int) -> bool:
        value = self._lit_val[literal]
        if value >= 0:
            return value == _TRUE
        self._lit_val[literal] = _TRUE
        self._lit_val[literal ^ 1] = _FALSE
        var = literal >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(literal)
        return True

    def _propagate(self) -> int:
        """Run unit propagation; return a conflicting clause index or -1."""
        watches = self._watches
        clauses = self._clauses
        lit_val = self._lit_val
        level = self._level
        reason = self._reason
        trail = self._trail
        decision_level = len(self._trail_lim)
        head = start = self._queue_head
        while head < len(trail):
            false_literal = trail[head] ^ 1
            head += 1
            watch_list = watches[false_literal]
            read = 0
            write = 0
            length = len(watch_list)
            while read < length:
                tag = watch_list[read]
                blocker = watch_list[read + 1]
                read += 2
                # Blocker already true: the clause is satisfied, skip it
                # without touching the clause itself.
                if lit_val[blocker] == 1:
                    watch_list[write] = tag
                    watch_list[write + 1] = blocker
                    write += 2
                    continue
                if tag < 0:
                    # Binary clause: unit or conflicting.  The false literal
                    # still goes to position 1, where analysis expects it.
                    clause_index = ~tag
                    clause = clauses[clause_index]
                    clause[0] = first = blocker
                    clause[1] = false_literal
                else:
                    clause_index = tag
                    clause = clauses[clause_index]
                    # Ensure the false literal is in position 1.
                    if clause[0] == false_literal:
                        clause[0] = clause[1]
                        clause[1] = false_literal
                    first = clause[0]
                    if lit_val[first] == 1:
                        watch_list[write] = tag
                        watch_list[write + 1] = first
                        write += 2
                        continue
                    # Look for a replacement watch.
                    found = False
                    for position in range(2, len(clause)):
                        candidate = clause[position]
                        if lit_val[candidate] != 0:
                            clause[1] = candidate
                            clause[position] = false_literal
                            other_list = watches[candidate]
                            other_list.append(tag)
                            other_list.append(first)
                            found = True
                            break
                    if found:
                        continue
                # No replacement: clause is unit or conflicting.
                watch_list[write] = tag
                watch_list[write + 1] = first
                write += 2
                if lit_val[first] == 0:
                    # Conflict: keep the remaining watchers and bail out.
                    del watch_list[write:read]
                    self._queue_head = head
                    self.stats.propagations += head - start
                    return clause_index
                # Unit: enqueue (inlined for the hot path).
                lit_val[first] = 1
                lit_val[first ^ 1] = 0
                var = first >> 1
                level[var] = decision_level
                reason[var] = clause_index
                trail.append(first)
            del watch_list[write:]
        self._queue_head = head
        self.stats.propagations += head - start
        return -1

    # ------------------------------------------------------------------ #
    # Conflict analysis
    # ------------------------------------------------------------------ #

    def _analyze(self, conflict_index: int) -> tuple[list[int], int, int]:
        """First-UIP analysis; returns (learned clause, backtrack level, lbd).

        Resolved variables keep their seen stamp: the trail walk only moves
        down, and a reason's implied literal sits at its position 0.
        """
        self._epoch += 1
        epoch = self._epoch
        seen = self._seen_stamp
        level = self._level
        trail = self._trail
        clauses = self._clauses
        reasons = self._reason
        activity = self._activity
        var_inc = self._var_inc
        heap = self._order.heap
        heap_position = self._order.position

        lower: list[int] = []  # learned literals below the conflict level
        counter = 0
        index = len(trail) - 1
        clause_index = conflict_index
        current_level = len(self._trail_lim)

        while True:
            for reason_literal in clauses[clause_index]:
                var = reason_literal >> 1
                if seen[var] == epoch:
                    continue
                var_level = level[var]
                if not var_level:
                    continue
                seen[var] = epoch
                if var_level < current_level:
                    lower.append(reason_literal)
                else:
                    counter += 1
                act = activity[var] + var_inc
                activity[var] = act
                if act > 1e100:
                    # Rescaling is uniform, so the heap order is unaffected.
                    activity[:] = [value * 1e-100 for value in activity]
                    var_inc *= 1e-100
                    self._var_inc = var_inc
                    act = activity[var]
                slot = heap_position[var]
                if slot > 0:
                    while slot:
                        parent_slot = (slot - 1) >> 1
                        parent = heap[parent_slot]
                        parent_act = activity[parent]
                        if parent_act > act or (parent_act == act
                                                and parent < var):
                            break
                        heap[slot] = parent
                        heap_position[parent] = slot
                        slot = parent_slot
                    heap[slot] = var
                    heap_position[var] = slot
            # Select the next literal to resolve on.
            while seen[trail[index] >> 1] != epoch:
                index -= 1
            literal = trail[index]
            index -= 1
            counter -= 1
            if not counter:
                break
            clause_index = reasons[literal >> 1]

        # Minimise: drop a literal whose reason holds only seen or level-0
        # variables (a reason never holds a later, conflict-level variable,
        # so "seen" here means "in the learned clause").  The kept literals
        # give the backtrack level, the literal to watch second and the LBD.
        learned = [literal ^ 1]
        level_stamp = self._level_stamp
        lbd = 1
        backtrack_level = 0
        max_index = 1
        for reason_literal in lower:
            var = reason_literal >> 1
            reason_index = reasons[var]
            if reason_index != -1:
                for other in clauses[reason_index]:
                    other_var = other >> 1
                    if seen[other_var] != epoch and level[other_var]:
                        break
                else:
                    continue
            var_level = level[var]
            if var_level > backtrack_level:
                backtrack_level = var_level
                max_index = len(learned)
            if level_stamp[var_level] != epoch:
                level_stamp[var_level] = epoch
                lbd += 1
            learned.append(reason_literal)
        if backtrack_level:
            learned[1], learned[max_index] = learned[max_index], learned[1]
        return learned, backtrack_level, lbd

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        trail = self._trail
        lit_val = self._lit_val
        reasons = self._reason
        activity = self._activity
        heap = self._order.heap
        heap_position = self._order.position
        saved_phase = self._saved_phase
        phase_saving = self.config.phase_saving
        boundary = self._trail_lim[level]
        for literal in reversed(trail[boundary:]):
            var = literal >> 1
            if phase_saving:
                saved_phase[var] = (literal & 1) == 0
            lit_val[literal] = _UNASSIGNED
            lit_val[literal ^ 1] = _UNASSIGNED
            reasons[var] = -1
            if heap_position[var] < 0:
                # Back onto the VSIDS heap: append, then sift up.
                slot = len(heap)
                heap.append(var)
                act = activity[var]
                while slot:
                    parent_slot = (slot - 1) >> 1
                    parent = heap[parent_slot]
                    parent_act = activity[parent]
                    if parent_act > act or (parent_act == act
                                            and parent < var):
                        break
                    heap[slot] = parent
                    heap_position[parent] = slot
                    slot = parent_slot
                heap[slot] = var
                heap_position[var] = slot
        del trail[boundary:]
        del self._trail_lim[level:]
        self._queue_head = len(trail)

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #

    def _pick_branch_variable(self) -> int:
        # Every unassigned variable is on the heap (the initial bulk build
        # inserts all of them and _backtrack re-inserts on unassignment), so
        # popping until an unassigned variable surfaces is complete.
        heap = self._order.heap
        heap_position = self._order.position
        activity = self._activity
        lit_val = self._lit_val
        while heap:
            top = heap[0]
            heap_position[top] = -1
            last = heap.pop()
            size = len(heap)
            if size:
                act = activity[last]
                slot = 0
                while True:
                    child_slot = 2 * slot + 1
                    if child_slot >= size:
                        break
                    child = heap[child_slot]
                    child_act = activity[child]
                    right_slot = child_slot + 1
                    if right_slot < size:
                        right = heap[right_slot]
                        right_act = activity[right]
                        if right_act > child_act or (right_act == child_act
                                                     and right < child):
                            child_slot, child, child_act = \
                                right_slot, right, right_act
                    if child_act < act or (child_act == act and child > last):
                        break
                    heap[slot] = child
                    heap_position[child] = slot
                    slot = child_slot
                heap[slot] = last
                heap_position[last] = slot
            if lit_val[2 * top] == _UNASSIGNED:
                return top
        return -1

    def _decide(self) -> bool:
        var = -1
        freq = self.config.random_decision_freq
        if freq > 0.0 and self._order.heap and self._rng.random() < freq:
            # Random decisions leave the candidate on the heap: if it is
            # already assigned the VSIDS pick below takes over, and the heap
            # invariants are untouched either way.
            candidate = self._order.heap[self._rng.randrange(len(self._order.heap))]
            if self._lit_val[2 * candidate] == _UNASSIGNED:
                var = candidate
        if var < 0:
            var = self._pick_branch_variable()
        if var < 0:
            return False
        self.stats.decisions += 1
        self._trail_lim.append(len(self._trail))
        self.stats.max_decision_level = max(self.stats.max_decision_level,
                                            len(self._trail_lim))
        phase = self._saved_phase[var]
        literal = 2 * var + (0 if phase else 1)
        self._enqueue(literal, -1)
        return True

    # ------------------------------------------------------------------ #
    # Learned-clause database reduction
    # ------------------------------------------------------------------ #

    def _reduce_database(self) -> None:
        """Delete high-glue learned clauses in place.

        Clauses are detached from their two watch lists and their slots
        pushed onto the free list; no watch-list rebuild and no reason-index
        remapping is needed because indices stay stable.
        """
        if len(self._learned_indices) < 20:
            return
        clauses = self._clauses
        clause_lbd = self._clause_lbd
        locked = {self._reason[literal >> 1] for literal in self._trail}
        candidates = [index for index in self._learned_indices
                      if index not in locked
                      and clauses[index] is not None
                      and len(clauses[index]) > 2
                      and clause_lbd[index] > self.config.max_lbd_keep]
        candidates.sort(key=lambda index: clause_lbd[index], reverse=True)
        to_delete = candidates[: int(len(candidates)
                                     * self.config.reduce_fraction)]
        if not to_delete:
            return
        self.stats.deleted_clauses += len(to_delete)
        proof = self._proof
        for index in to_delete:
            clause = clauses[index]
            if proof is not None:
                proof.delete_clause(tuple(self._to_dimacs(literal)
                                          for literal in clause))
            self._detach_watch(clause[0], index)
            self._detach_watch(clause[1], index)
            clauses[index] = None
            self._free_indices.append(index)
        delete_set = set(to_delete)
        self._learned_indices = [index for index in self._learned_indices
                                 if index not in delete_set
                                 and clauses[index] is not None]
        self.stats.learned_db_size = len(self._learned_indices)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def solve(self, max_conflicts: int | None = None,
              max_decisions: int | None = None,
              time_limit: float | None = None,
              assumptions: list[int] | None = None) -> SolveResult:
        """Run the solver, optionally under conflict/decision/time budgets.

        When a budget is exhausted the result status is ``"UNKNOWN"``.

        ``assumptions`` is a list of DIMACS literals held true for this call
        only (they occupy the lowest decision levels, MiniSat-style).  When
        the formula is UNSAT *under* the assumptions the result's ``core``
        names the failed assumption subset; an empty ``core`` means the
        clause database itself is inconsistent.

        The method may be called repeatedly, interleaved with
        :meth:`add_clause` / :meth:`new_var`.  Learned clauses, VSIDS
        activities and saved phases persist across calls, and the
        conflict/decision budgets are *per call* (measured against this
        call's share of the cumulative statistics).
        """
        start_time = time.perf_counter()
        try:
            return self._search(start_time, max_conflicts, max_decisions,
                                time_limit, assumptions)
        finally:
            self.stats.solve_time = time.perf_counter() - start_time

    def _search(self, start_time: float, max_conflicts: int | None,
                max_decisions: int | None, time_limit: float | None,
                assumptions: list[int] | None) -> SolveResult:
        """The body of :meth:`solve`, which times it."""
        stats = self.stats
        assumption_lits = (self._convert_assumptions(assumptions)
                           if assumptions else [])
        if self._trivially_unsat or not self._ok:
            # The inconsistency was found by level-0 simplification, so the
            # empty clause is RUP against the raw formula: a one-line proof.
            self._emit_empty_proof()
            return SolveResult(status="UNSAT", model=None, stats=stats,
                               core=[])
        self._backtrack(0)
        if self._import_source is not None and not self._drain_imports():
            self._emit_empty_proof()
            return SolveResult(status="UNSAT", model=None, stats=stats,
                               core=[])
        conflicts_start = stats.conflicts
        decisions_start = stats.decisions
        if self._progress_interval:
            self._next_progress = stats.conflicts + self._progress_interval

        restart_count = 0
        conflicts_until_restart = self._next_restart_budget(restart_count)
        conflicts_since_reduce = 0

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                stats.conflicts += 1
                conflicts_until_restart -= 1
                conflicts_since_reduce += 1
                trail_depth = len(self._trail)
                if trail_depth > stats.peak_trail:
                    stats.peak_trail = trail_depth
                conflict_level = len(self._trail_lim)
                if not self._trail_lim:
                    # Conflict at level 0: the database itself is now
                    # inconsistent, independent of any assumptions.
                    self._ok = False
                    self._emit_empty_proof()
                    return SolveResult(status="UNSAT", model=None,
                                       stats=stats, core=[])
                learned, backtrack_level, lbd = self._analyze(conflict)
                self._backtrack(backtrack_level)
                if self._log_learned:
                    self._record_learned(learned, lbd)
                if len(learned) == 1:
                    self._enqueue(learned[0], -1)
                else:
                    index = self._attach_clause(learned, lbd=lbd, learned=True)
                    stats.learned_clauses += 1
                    self._enqueue(learned[0], index)
                self._var_inc /= self.config.var_decay
                stats.learned_db_size = len(self._learned_indices)
                if self._progress_interval:
                    self._dl_ema += 0.02 * (conflict_level - self._dl_ema)
                    if stats.conflicts >= self._next_progress:
                        self._next_progress = (stats.conflicts
                                               + self._progress_interval)
                        try:
                            self._emit_progress(start_time, conflicts_start)
                        except ResourceLimitExceeded as trip:
                            # A resource watchdog hooked on the progress
                            # callback tripped: stop cleanly with the
                            # watchdog's terminal status (MEMOUT/TIMEOUT)
                            # instead of propagating through the caller.
                            return SolveResult(status=trip.status,
                                               model=None, stats=stats)
                if max_conflicts is not None and \
                        stats.conflicts - conflicts_start >= max_conflicts:
                    return SolveResult(status="UNKNOWN", model=None, stats=stats)
                if time_limit is not None and \
                        time.perf_counter() - start_time > time_limit:
                    return SolveResult(status="UNKNOWN", model=None, stats=stats)
                continue

            if conflicts_until_restart <= 0:
                restart_count += 1
                stats.restarts += 1
                conflicts_until_restart = self._next_restart_budget(restart_count)
                self._backtrack(0)
                if self._import_source is not None \
                        and not self._drain_imports():
                    self._emit_empty_proof()
                    return SolveResult(status="UNSAT", model=None,
                                       stats=stats, core=[])
                if conflicts_since_reduce >= self.config.reduce_interval:
                    conflicts_since_reduce = 0
                    self._reduce_database()
                continue

            if max_decisions is not None and \
                    stats.decisions - decisions_start >= max_decisions:
                return SolveResult(status="UNKNOWN", model=None, stats=stats)
            if time_limit is not None and \
                    time.perf_counter() - start_time > time_limit:
                return SolveResult(status="UNKNOWN", model=None, stats=stats)

            # Assert the next pending assumption (restarts unwind them, so
            # the decision level doubles as the next-assumption cursor).
            asserted = False
            while len(self._trail_lim) < len(assumption_lits):
                literal = assumption_lits[len(self._trail_lim)]
                value = self._lit_val[literal]
                if value == _TRUE:
                    # Already implied: open an empty level so the cursor
                    # advances and backtracking semantics stay uniform.
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == _FALSE:
                    core = self._analyze_final(literal)
                    return SolveResult(status="UNSAT", model=None,
                                       stats=stats, core=core)
                self._trail_lim.append(len(self._trail))
                self._enqueue(literal, -1)
                asserted = True
                break
            if asserted:
                continue

            if not self._decide():
                trail_depth = len(self._trail)
                if trail_depth > stats.peak_trail:
                    stats.peak_trail = trail_depth
                lit_val = self._lit_val
                model = {var + 1: lit_val[2 * var] == _TRUE
                         for var in range(self.num_vars)}
                return SolveResult(status="SAT", model=model, stats=stats)

    def _next_restart_budget(self, restart_count: int) -> float:
        if self.config.restart_strategy == "none":
            return float("inf")
        if self.config.restart_strategy == "geometric":
            return self.config.restart_interval * (1.5 ** restart_count)
        return self.config.restart_interval * _luby(restart_count)


def solve_cnf(cnf: Cnf, config: SolverConfig | None = None,
              max_conflicts: int | None = None,
              max_decisions: int | None = None,
              time_limit: float | None = None,
              assumptions: list[int] | None = None,
              progress=None,
              progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
              proof: str | None = None) -> SolveResult:
    """Convenience wrapper: build a :class:`CdclSolver` and run it once.

    ``proof`` names a DRAT file to stream the run's proof into.  The file is
    only kept when the result is formula-level UNSAT (status ``UNSAT`` with
    an empty core) — that is the only outcome a DRAT proof certifies; for
    any other outcome the partial file is removed.
    """
    solver = CdclSolver(cnf, config=config)
    if progress is not None:
        solver.set_progress(progress, interval=progress_interval)
    if proof is None:
        return solver.solve(max_conflicts=max_conflicts,
                            max_decisions=max_decisions,
                            time_limit=time_limit, assumptions=assumptions)
    from repro.sat.proof import DratWriter

    with DratWriter(proof) as writer:
        solver.set_proof(writer)
        result = solver.solve(max_conflicts=max_conflicts,
                              max_decisions=max_decisions,
                              time_limit=time_limit, assumptions=assumptions)
    if not (result.is_unsat and result.core == []):
        import os

        try:
            os.remove(proof)
        except OSError:
            pass
    return result
