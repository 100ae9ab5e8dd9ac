"""The shared result model: per-instance runs and their aggregation.

:class:`InstanceRun` is the atomic outcome of running one preprocessing
pipeline on one instance and solving the result.  :class:`RunSet` groups
runs (by pipeline or ablation setting) and provides the aggregate
quantities every harness reports — total overall runtime with timeouts
charged at the limit (the paper's ``T_solve`` accounting), total decision
counts ("variable branching times") and solved-instance counts.

The evaluation harnesses (:class:`repro.eval.runtime.RuntimeComparison`,
:class:`repro.eval.ablation.AblationResult`) and the batch-execution
subsystem (:mod:`repro.runner`) all build on this module, so a run computed
by any of them can be aggregated by all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sat.stats import SolverStats

#: Statuses that count as conclusively solved.
SOLVED_STATUSES = ("SAT", "UNSAT")

#: Statuses charged at the full time limit in the paper's runtime accounting:
#: ``UNKNOWN`` is the solver's soft (in-loop) limit, ``TIMEOUT`` the runner's
#: hard (wall-clock kill) limit.
TIMEOUT_STATUSES = ("UNKNOWN", "TIMEOUT")

#: Statuses produced when a resource watchdog stops a run cleanly (see
#: :mod:`repro.resilience`).  Neither solved nor time-charged — and never
#: cached by the runner, since a rerun under a higher ceiling may succeed.
RESOURCE_STATUSES = ("MEMOUT",)

#: Statuses never written to a result cache (the runner's store or the
#: server's memo): ERROR runs are retried on resubmission, resource trips may
#: pass under a higher ceiling (the limit is not part of the fingerprint),
#: and CANCELLED runs never finished.
UNCACHED_STATUSES = ("ERROR",) + RESOURCE_STATUSES + ("CANCELLED",)


@dataclass
class InstanceRun:
    """The outcome of running one pipeline on one instance.

    The last three fields take no part in equality.  The ``model`` of a
    SAT verdict (over the solved CNF's variables) and the ``error`` text
    of an ``ERROR`` run come with a fresh run only.  The result store
    keeps the ``output`` artefacts of a task that
    :func:`repro.runner.batch.execute_task` ran to the end: ``dimacs`` for
    a preprocess, ``aiger`` and sweep ``stats`` for a sweep, and for a
    solve the JSON ``model`` of a CNF or a proof request, if any.  A run
    the guard stopped has no ``output``.
    """

    instance_name: str
    pipeline_name: str
    status: str
    transform_time: float
    solve_time: float
    stats: SolverStats
    num_vars: int
    num_clauses: int
    model: dict[int, bool] | None = field(default=None, compare=False)
    error: str | None = field(default=None, compare=False)
    output: dict | None = field(default=None, compare=False)

    @property
    def total_time(self) -> float:
        """Transformation plus solving time (the paper's overall runtime)."""
        return self.transform_time + self.solve_time

    @property
    def decisions(self) -> int:
        return self.stats.decisions

    @property
    def solved(self) -> bool:
        return self.status in SOLVED_STATUSES


@dataclass
class RunSet:
    """Runs of several pipelines (or settings) over a common instance set.

    ``time_limit`` is the per-instance solver limit; when set, unsolved runs
    are charged ``time_limit + transform_time`` in :meth:`total_runtime`,
    matching the paper's ``T_solve = 1000 s`` rule.
    """

    time_limit: float | None = None
    runs: dict[str, list[InstanceRun]] = field(default_factory=dict)

    def add(self, run: InstanceRun) -> None:
        self.runs.setdefault(run.pipeline_name, []).append(run)

    def groups(self) -> list[str]:
        """The pipeline / setting names, in insertion order."""
        return list(self.runs)

    def total_time(self, group: str) -> float:
        """Raw total overall runtime (no timeout charging)."""
        return sum(run.total_time for run in self.runs.get(group, []))

    def total_runtime(self, group: str) -> float:
        """Total overall runtime with timeouts charged at the time limit."""
        total = 0.0
        for run in self.runs.get(group, []):
            if run.status in TIMEOUT_STATUSES and self.time_limit is not None:
                total += self.time_limit + run.transform_time
            else:
                total += run.total_time
        return total

    def total_decisions(self, group: str) -> int:
        return sum(run.decisions for run in self.runs.get(group, []))

    def solved(self, group: str) -> int:
        return sum(run.solved for run in self.runs.get(group, []))

    def timeouts(self, group: str) -> int:
        return sum(run.status in TIMEOUT_STATUSES
                   for run in self.runs.get(group, []))

    def reduction_vs(self, group: str, reference: str) -> float:
        """Percentage runtime reduction of ``group`` relative to ``reference``."""
        reference_total = self.total_runtime(reference)
        if reference_total <= 0:
            return 0.0
        return 100.0 * (1.0 - self.total_runtime(group) / reference_total)
