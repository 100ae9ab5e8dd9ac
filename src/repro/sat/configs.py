"""Solver configurations.

The two presets mimic the *flavour* of the solvers used in the paper's
evaluation rather than their exact heuristics: the ``kissat_like`` preset is
tuned for aggressive restarts and focused (negative-phase) search, while the
``cadical_like`` preset restarts more conservatively and keeps more learned
clauses.  Both are full CDCL configurations of the same
:class:`repro.sat.solver.CdclSolver`; what matters for the reproduction is
that every pipeline comparison (Baseline / Comp. / Ours) can be run under two
distinct solver behaviours, as in Fig. 4(a) and Fig. 4(c).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Tunable parameters of :class:`repro.sat.solver.CdclSolver`.

    ``reduce_fraction`` is the fraction of eligible learned clauses (high
    glue, length > 2, not locked as reasons) that each database reduction
    *deletes*, worst glue first.  It was previously named
    ``reduce_keep_fraction``, which described the opposite of what it did.
    """

    name: str = "default"
    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_interval: int = 100
    restart_strategy: str = "luby"
    default_phase: bool = False
    phase_saving: bool = True
    reduce_interval: int = 2000
    reduce_fraction: float = 0.5
    max_lbd_keep: int = 3
    random_decision_freq: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.var_decay <= 1.0:
            raise ValueError("var_decay must lie in (0, 1]")
        if not 0.0 < self.clause_decay <= 1.0:
            raise ValueError("clause_decay must lie in (0, 1]")
        if self.restart_strategy not in ("luby", "geometric", "none"):
            raise ValueError(f"unknown restart strategy {self.restart_strategy!r}")
        if self.restart_interval <= 0:
            raise ValueError("restart_interval must be positive")
        if self.reduce_interval <= 0:
            raise ValueError("reduce_interval must be positive")
        if not 0.0 <= self.reduce_fraction <= 1.0:
            raise ValueError("reduce_fraction must lie in [0, 1]")
        if self.max_lbd_keep < 0:
            raise ValueError("max_lbd_keep must be non-negative")
        if not 0.0 <= self.random_decision_freq <= 1.0:
            raise ValueError("random_decision_freq must lie in [0, 1]")


def kissat_like() -> SolverConfig:
    """A preset standing in for Kissat 4.0.0 in the evaluation harness."""
    return SolverConfig(
        name="kissat_like",
        var_decay=0.95,
        restart_interval=64,
        restart_strategy="luby",
        default_phase=False,
        phase_saving=True,
        reduce_interval=2000,
        max_lbd_keep=3,
    )


def cadical_like() -> SolverConfig:
    """A preset standing in for CaDiCaL 2.0.0 in the evaluation harness."""
    return SolverConfig(
        name="cadical_like",
        var_decay=0.99,
        restart_interval=256,
        restart_strategy="geometric",
        default_phase=True,
        phase_saving=True,
        reduce_interval=3000,
        max_lbd_keep=4,
    )


#: The presets selectable by name from the CLI, the runner and the server.
CONFIG_PRESETS = {
    "default": SolverConfig,
    "kissat_like": kissat_like,
    "cadical_like": cadical_like,
}
