"""Solver statistics.

``decisions`` is the quantity the paper calls *variable branching times*: it
is used as the reward signal of the RL agent (Eq. 3) and as the
solving-complexity proxy throughout the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class SolverStats:
    """Counters accumulated during one solver run.

    ``learned_db_size`` is the *current* number of live learned clauses
    (``learned_clauses`` minus reductions), ``peak_trail`` the deepest
    assignment trail observed (sampled at conflicts and at a SAT exit, where
    the trail is at its physical maximum).  Both feed the periodic progress
    hook (:meth:`repro.sat.solver.CdclSolver.set_progress`).
    """

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_decision_level: int = 0
    learned_db_size: int = 0
    peak_trail: int = 0
    solve_time: float = 0.0
    #: Times the resilience layer degraded to a fallback solver to produce
    #: this result (0 on the healthy path; see repro.sat.backends).
    fallbacks: int = 0
    #: Clause-sharing traffic (0 unless a portfolio shares clauses; see
    #: repro.sat.sharing): learned clauses this solver exported, foreign
    #: clauses it attached, and candidates its import filters rejected
    #: (duplicate, oversized, or already satisfied at level 0).
    exported_clauses: int = 0
    imported_clauses: int = 0
    import_filtered: int = 0

    @property
    def propagations_per_conflict(self) -> float:
        """Propagation work per conflict — the classic throughput ratio."""
        return self.propagations / self.conflicts if self.conflicts else 0.0

    def as_dict(self) -> dict[str, float]:
        """Return the statistics as a plain dictionary (for reports).

        Derived from :func:`dataclasses.fields`, so a new counter can never
        silently go missing from stores, JSON reports or trace events.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ProgressSnapshot:
    """One sample of the solver's periodic progress hook.

    Emitted every *N* conflicts (see
    :meth:`repro.sat.solver.CdclSolver.set_progress`): the cumulative
    counters plus the derived rates a kissat-style progress line shows.
    ``decision_level_ema`` is an exponential moving average of the decision
    level at recent conflicts — a rising EMA means the solver is searching
    deep below its learned clauses, a collapsing one that it restarts or
    backjumps near the root.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_db_size: int = 0
    trail_depth: int = 0
    decision_level_ema: float = 0.0
    elapsed_s: float = 0.0
    conflicts_per_sec: float = 0.0
    propagations_per_conflict: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def progress_line(self) -> str:
        """A kissat-style one-line ``c`` report of this sample."""
        return (f"c {self.conflicts:>9} conflicts "
                f"{self.conflicts_per_sec:>8.0f} conf/s "
                f"{self.restarts:>6} restarts "
                f"{self.learned_db_size:>8} learned "
                f"{self.trail_depth:>7} trail "
                f"{self.decision_level_ema:>7.1f} dl-ema")
