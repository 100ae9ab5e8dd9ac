"""Pluggable solver backends: the built-in CDCL or a real external solver.

The paper's evaluation (Fig. 4) runs Kissat 4.0.0 and CaDiCaL 2.0.0; the
presets in :mod:`repro.sat.configs` only *emulate* their behaviour with the
built-in pure-Python CDCL solver.  This module closes that gap: a
:class:`SolverBackend` is anything that can solve a :class:`repro.cnf.Cnf`
and return a :class:`repro.sat.solver.SolveResult`, and two implementations
are provided:

* :class:`InternalBackend` — the built-in :class:`repro.sat.solver.CdclSolver`
  (the default everywhere; fully deterministic and dependency-free);
* :class:`SubprocessBackend` — shells out to a competition solver binary
  (``kissat``, ``cadical``, ``minisat`` or any SAT-competition-conformant
  executable) via a temporary DIMACS file, parses the standard
  ``s``/``v`` output lines back into a unified :class:`SolveResult`, and
  best-effort-recovers the decision/conflict/propagation counters from the
  solver's statistics output so the paper's "variable branching times"
  metric stays populated;
* :class:`PortfolioBackend` — multicore solving on the internal CDCL core
  through :mod:`repro.sat.portfolio`: either a racing portfolio of
  diversified configurations (first decisive worker wins, losers are
  cancelled) or, with ``cube_depth > 0``, cube-and-conquer splitting over
  incremental workers.  Always available; the verdict is deterministic but
  the winning worker's model/statistics may vary run to run.

Backends are addressed by name through :func:`get_backend`; external
binaries are auto-detected on PATH and a missing one raises a clean
:class:`repro.errors.BackendUnavailableError`.  Everything above this layer
(:func:`repro.core.pipeline.run_pipeline`, :class:`repro.runner.Task`, the
benchmarks, the ``repro`` CLI) selects a backend by this name, so Fig. 4 can
be reproduced against the genuine solvers whenever they are installed.
"""

from __future__ import annotations

import logging
import os
import re
import shutil
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.cnf.cnf import Cnf
from repro.errors import BackendError, BackendUnavailableError, is_transient
from repro.obs import get_tracer
from repro.resilience.chaos import get_chaos
from repro.resilience.watchdog import WATCHDOG_PROGRESS_INTERVAL, get_watchdog
from repro.sat.configs import SolverConfig
from repro.sat.solver import DEFAULT_PROGRESS_INTERVAL, SolveResult, solve_cnf
from repro.sat.stats import SolverStats

logger = logging.getLogger(__name__)

__all__ = [
    "SolverBackend",
    "InternalBackend",
    "SubprocessBackend",
    "PortfolioBackend",
    "FallbackBackend",
    "BACKEND_NAMES",
    "INTERNAL_NAMES",
    "DEFAULT_BACKEND",
    "is_internal",
    "compose_progress",
    "fold_portfolio_flags",
    "get_backend",
    "resolve_backend",
    "ensure_available",
    "available_backends",
]

#: The implicit backend when none is requested: the built-in CDCL solver.
DEFAULT_BACKEND = "internal"

#: SAT-competition exit codes.
SAT_EXIT_CODE = 10
UNSAT_EXIT_CODE = 20

#: Extra wall-clock grace granted on top of the soft limit before the
#: subprocess is killed outright (the solver's own limit should fire first).
_KILL_GRACE = 5.0

#: Command-line templates for the known external solvers: how to pass the
#: time limit.  ``{limit}`` is the whole-second budget.  Solvers absent from
#: this table get no limit flag and rely on the subprocess kill alone.
_TIME_LIMIT_ARGS: dict[str, tuple[str, ...]] = {
    "kissat": ("--time={limit}",),
    "cadical": ("-t", "{limit}"),
    "minisat": ("-cpu-lim={limit}",),
}

#: Best-effort statistics scraping from solver output.  Both Kissat and
#: CaDiCaL print ``c <name>: <count> ...`` lines; MiniSat prints
#: ``<name>             : <count> ...``.
_STATS_PATTERN = re.compile(
    r"^c?\s*(decisions|conflicts|propagations|restarts)\s*:?\s+(\d+)",
    re.IGNORECASE,
)


@runtime_checkable
class SolverBackend(Protocol):
    """Anything that can solve a CNF and report a unified result."""

    name: str

    def available(self) -> bool:
        """Whether this backend can run on the current machine."""
        ...

    def solve(self, cnf: Cnf, config: SolverConfig | None = None,
              time_limit: float | None = None,
              max_conflicts: int | None = None,
              max_decisions: int | None = None,
              assumptions: list[int] | None = None,
              proof: str | None = None) -> SolveResult:
        """Solve ``cnf`` — optionally under ``assumptions`` (DIMACS literals
        held true for this call) — and return a :class:`SolveResult`.

        ``proof`` requests a DRAT proof at that path on a formula-level
        UNSAT verdict (see :mod:`repro.sat.proof`); backends that cannot
        produce one raise :class:`repro.errors.BackendError`.
        """
        ...


def compose_progress(tracer, extra=None,
                     extra_interval: int = DEFAULT_PROGRESS_INTERVAL):
    """Fold the watchdog, the tracer and ``extra`` into one progress hook.

    Returns ``(hook, interval)``: the hook is ``None`` when none of them
    wants snapshots, so the solver's progress machinery stays disarmed on
    the common path.  The process-global watchdog runs first, so a
    resource trip wins over bookkeeping, and its tighter sampling interval
    applies; ``extra`` (a caller's callback, a chaos kill hook) may ask
    for a tighter one still with ``extra_interval``.
    """
    consumers = []
    interval = DEFAULT_PROGRESS_INTERVAL
    watchdog = get_watchdog()
    if watchdog is not None:
        consumers.append(watchdog.hook)
        interval = WATCHDOG_PROGRESS_INTERVAL
    if tracer.enabled:
        consumers.append(lambda snapshot: tracer.event("progress",
                                                       **snapshot.as_dict()))
    if extra is not None:
        consumers.append(extra)
        interval = min(interval, extra_interval)
    if not consumers:
        return None, interval
    if len(consumers) == 1:
        return consumers[0], interval

    def hook(snapshot):
        for consumer in consumers:
            consumer(snapshot)

    return hook, interval


class InternalBackend:
    """The built-in pure-Python CDCL solver (:func:`repro.sat.solver.solve_cnf`).

    ``progress`` is called with a :class:`repro.sat.stats.ProgressSnapshot`
    every 2048 conflicts (the CLI's ``-v`` lines).
    """

    name = "internal"

    def __init__(self, progress=None) -> None:
        self.progress = progress

    def available(self) -> bool:
        return True

    def solve(self, cnf: Cnf, config: SolverConfig | None = None,
              time_limit: float | None = None,
              max_conflicts: int | None = None,
              max_decisions: int | None = None,
              assumptions: list[int] | None = None,
              proof: str | None = None) -> SolveResult:
        """Solve ``cnf`` with the built-in CDCL solver.

        When a tracer is active each progress snapshot is also recorded as
        a ``progress`` trace event and the whole run as a ``solve`` span.

        When a process-global watchdog is armed
        (:func:`repro.resilience.get_watchdog`), its checks ride the same
        progress hook at a tighter sampling interval and a trip returns a
        clean ``MEMOUT``/``TIMEOUT`` result; a raw :class:`MemoryError`
        escaping the solver (hard rlimit, allocation spike) is converted to
        ``MEMOUT`` as well.
        """
        tracer = get_tracer()
        progress, progress_interval = compose_progress(tracer, self.progress)
        logger.debug("internal solve: %d vars, %d clauses",
                     cnf.num_vars, len(cnf.clauses))
        with tracer.span("solve", backend=self.name, num_vars=cnf.num_vars,
                         num_clauses=len(cnf.clauses)) as span:
            start = time.perf_counter()
            try:
                result = solve_cnf(cnf, config=config, time_limit=time_limit,
                                   max_conflicts=max_conflicts,
                                   max_decisions=max_decisions,
                                   assumptions=assumptions, proof=proof,
                                   progress=progress,
                                   progress_interval=progress_interval)
            except MemoryError:
                result = SolveResult(
                    status="MEMOUT", model=None,
                    stats=SolverStats(
                        solve_time=time.perf_counter() - start))
            span.set(status=result.status, conflicts=result.stats.conflicts,
                     decisions=result.stats.decisions)
        return result

    def __repr__(self) -> str:
        return "InternalBackend()"


class SubprocessBackend:
    """Dispatch to an external SAT solver binary through DIMACS files.

    ``binary`` overrides auto-detection: it may be an absolute path or a
    command name; when omitted the backend looks for ``name`` on PATH, after
    honouring a ``REPRO_SOLVER_<NAME>`` environment variable (e.g.
    ``REPRO_SOLVER_KISSAT=/opt/kissat/bin/kissat``).  ``extra_args`` are
    appended to every invocation.

    The protocol is the SAT-competition one: the formula travels as a
    temporary DIMACS file, the verdict is the ``s SATISFIABLE`` /
    ``s UNSATISFIABLE`` line (cross-checked against exit codes 10/20) and
    the model is read from the ``v`` lines.  A solver that exceeds
    ``time_limit`` without deciding reports ``UNKNOWN`` — exactly like the
    internal solver's soft limit — and output that fits no convention raises
    :class:`repro.errors.BackendError`.
    """

    def __init__(self, name: str, binary: str | None = None,
                 extra_args: tuple[str, ...] = ()) -> None:
        self.name = name
        self._binary = binary
        self.extra_args = tuple(extra_args)

    # ------------------------------------------------------------------ #
    # Binary resolution

    def resolved_binary(self) -> str | None:
        """The executable this backend would run, or None when absent."""
        candidate = self._binary or os.environ.get(
            f"REPRO_SOLVER_{self.name.upper()}") or self.name
        if os.sep in candidate:
            return candidate if os.access(candidate, os.X_OK) else None
        return shutil.which(candidate)

    def available(self) -> bool:
        return self.resolved_binary() is not None

    def _require_binary(self) -> str:
        binary = self.resolved_binary()
        if binary is None:
            raise BackendUnavailableError(
                f"solver backend {self.name!r} is not available: no "
                f"{self._binary or self.name!r} executable found on PATH "
                f"(install it, or point REPRO_SOLVER_{self.name.upper()} at "
                f"the binary)"
            )
        return binary

    # ------------------------------------------------------------------ #
    # Solving

    def solve(self, cnf: Cnf, config: SolverConfig | None = None,
              time_limit: float | None = None,
              max_conflicts: int | None = None,
              max_decisions: int | None = None,
              assumptions: list[int] | None = None,
              proof: str | None = None) -> SolveResult:
        """Run the external solver on ``cnf``.

        ``config``, ``max_conflicts`` and ``max_decisions`` configure the
        *internal* solver and have no external equivalent; they are accepted
        (so backends are interchangeable) and ignored.

        ``assumptions`` have no incremental equivalent over a DIMACS
        subprocess either, so they fall back to a per-call re-encode: each
        assumption is appended as a unit clause to a copy of the formula.
        The verdict is therefore correct, but an UNSAT result can only
        report the trivial core (all assumptions) — callers that need
        minimised cores use the internal backend.

        ``proof`` is rejected: external solvers write DRAT in their own
        formats/locations and this backend does not relocate or validate
        them; proof-bearing runs use the internal or portfolio backend.
        """
        if proof is not None:
            raise BackendError(
                f"solver backend {self.name!r} cannot emit a checkable "
                f"DRAT proof; use the internal or portfolio backend")
        tracer = get_tracer()
        with tracer.span("solve", backend=self.name, num_vars=cnf.num_vars,
                         num_clauses=len(cnf.clauses)) as span:
            result = self._solve(cnf, time_limit=time_limit,
                                 assumptions=assumptions)
            span.set(status=result.status)
        return result

    def _solve(self, cnf: Cnf, time_limit: float | None = None,
               assumptions: list[int] | None = None) -> SolveResult:
        from repro.cnf.dimacs import render_dimacs

        if assumptions:
            constrained = cnf.copy()
            for literal in assumptions:
                constrained.add_clause([literal])
            cnf = constrained

        binary = self._require_binary()
        get_chaos().on_backend_spawn(self.name)
        command = [binary]
        if time_limit is not None:
            whole_seconds = max(1, int(time_limit))
            for template in _TIME_LIMIT_ARGS.get(self.name, ()):
                command.append(template.format(limit=whole_seconds))
        command.extend(self.extra_args)
        logger.debug("external solve via %s: %d vars, %d clauses",
                     binary, cnf.num_vars, len(cnf.clauses))

        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="repro-sat-") as workdir:
            problem = Path(workdir) / "problem.cnf"
            problem.write_text(render_dimacs(cnf))
            command.append(str(problem))
            kill_after = (time_limit + _KILL_GRACE
                          if time_limit is not None else None)
            try:
                process = subprocess.run(
                    command, capture_output=True, text=True,
                    timeout=kill_after,
                )
            except subprocess.TimeoutExpired:
                elapsed = time.perf_counter() - start
                return SolveResult(status="UNKNOWN", model=None,
                                   stats=SolverStats(solve_time=elapsed))
            except OSError as exc:
                raise BackendUnavailableError(
                    f"solver backend {self.name!r} failed to start "
                    f"({binary}): {exc}"
                ) from exc
        elapsed = time.perf_counter() - start
        process.stdout = get_chaos().mangle_backend_output(
            self.name, process.stdout)
        return self._parse_output(cnf, process, elapsed,
                                  assumptions=assumptions)

    def _parse_output(self, cnf: Cnf, process: subprocess.CompletedProcess,
                      elapsed: float,
                      assumptions: list[int] | None = None) -> SolveResult:
        status = None
        model_literals: list[int] = []
        stats = SolverStats(solve_time=elapsed)
        for raw_line in process.stdout.splitlines():
            line = raw_line.strip()
            if line.startswith("s "):
                verdict = line[2:].strip().upper()
                if verdict == "SATISFIABLE":
                    status = "SAT"
                elif verdict == "UNSATISFIABLE":
                    status = "UNSAT"
                elif verdict in ("UNKNOWN", "INDETERMINATE"):
                    status = "UNKNOWN"
            elif line.startswith("v ") or line == "v":
                for token in line[1:].split():
                    try:
                        literal = int(token)
                    except ValueError:
                        raise BackendError(
                            f"solver backend {self.name!r} printed a "
                            f"malformed model token {token!r}"
                        ) from None
                    if literal != 0:
                        model_literals.append(literal)
            else:
                match = _STATS_PATTERN.match(line)
                if match:
                    setattr(stats, match.group(1).lower(), int(match.group(2)))

        if status is None:
            # MiniSat prints the verdict without the competition "s " prefix
            # and communicates it reliably through the exit code.
            if process.returncode == SAT_EXIT_CODE:
                status = "SAT"
            elif process.returncode == UNSAT_EXIT_CODE:
                status = "UNSAT"
            else:
                stderr_tail = process.stderr.strip().splitlines()[-1:] or [""]
                death = (f"killed by signal {-process.returncode}"
                         if process.returncode < 0
                         else f"exit code {process.returncode}")
                raise BackendError(
                    f"solver backend {self.name!r} produced no verdict "
                    f"({death}; last stderr line: {stderr_tail[0]!r})"
                )

        if status != "SAT":
            core = (list(assumptions) if assumptions else []) \
                if status == "UNSAT" else None
            return SolveResult(status=status, model=None, stats=stats,
                               core=core)

        model = {var: False for var in range(1, cnf.num_vars + 1)}
        for literal in model_literals:
            var = abs(literal)
            if var <= cnf.num_vars:
                model[var] = literal > 0
        if not cnf.evaluate(model):
            raise BackendError(
                f"solver backend {self.name!r} reported SAT but its model "
                f"does not satisfy the formula"
            )
        return SolveResult(status="SAT", model=model, stats=stats)

    def __repr__(self) -> str:
        return f"SubprocessBackend({self.name!r}, binary={self._binary!r})"


class PortfolioBackend:
    """Multicore solving on the internal CDCL core.

    With ``cube_depth == 0`` (the default) every :meth:`solve` races
    ``num_workers`` diversified configurations
    (:func:`repro.sat.portfolio.solve_portfolio`); the ``config`` argument
    seeds the diversification as worker 0's anchor.  With ``cube_depth > 0``
    the formula is split into ``2**cube_depth`` cubes conquered by
    ``num_workers`` incremental sessions
    (:func:`repro.sat.portfolio.solve_cube_and_conquer`).

    The backend satisfies the :class:`SolverBackend` protocol, so it threads
    through pipelines, tasks and CLIs like any other backend.  Each
    :meth:`solve` keeps its full :class:`repro.sat.portfolio.PortfolioResult`
    on :attr:`report` for callers that want the per-worker breakdown (the
    CLI's ``c worker`` lines).  In cube mode
    ``max_conflicts``/``max_decisions`` are per-cube budgets.

    ``share_clauses`` turns on clause sharing between the racing workers
    (:mod:`repro.sat.sharing`); it does not apply to cube mode, whose
    workers own disjoint subproblems.
    """

    name = "portfolio"

    def __init__(self, num_workers: int | None = None, cube_depth: int = 0,
                 seed: int = 0, share_clauses: bool = False) -> None:
        from repro.sat.portfolio import DEFAULT_NUM_WORKERS, MAX_CUBE_DEPTH

        if num_workers is None:
            num_workers = DEFAULT_NUM_WORKERS
        if not isinstance(num_workers, int) \
                or not isinstance(cube_depth, int):
            raise BackendError("num_workers and cube_depth must be integers")
        if num_workers < 1:
            raise BackendError("portfolio backend needs at least one worker")
        if not 0 <= cube_depth <= MAX_CUBE_DEPTH:
            raise BackendError(
                f"cube_depth must lie in [0, {MAX_CUBE_DEPTH}], "
                f"got {cube_depth}")
        if share_clauses and cube_depth > 0:
            raise BackendError(
                "clause sharing applies to racing portfolios, not cube "
                "and conquer (cube workers own disjoint subproblems)")
        self.num_workers = num_workers
        self.cube_depth = cube_depth
        self.seed = seed
        self.share_clauses = share_clauses
        self.report = None

    def available(self) -> bool:
        return True

    def solve(self, cnf: Cnf, config: SolverConfig | None = None,
              time_limit: float | None = None,
              max_conflicts: int | None = None,
              max_decisions: int | None = None,
              assumptions: list[int] | None = None,
              proof: str | None = None) -> SolveResult:
        from repro.sat.portfolio import solve_cube_and_conquer, solve_portfolio

        seed = self.seed + (config.seed if config is not None else 0)
        if self.cube_depth > 0:
            report = solve_cube_and_conquer(
                cnf, cube_depth=self.cube_depth,
                num_workers=self.num_workers, config=config,
                seed=seed, time_limit=time_limit,
                max_conflicts=max_conflicts, max_decisions=max_decisions,
                assumptions=assumptions, proof=proof)
        else:
            report = solve_portfolio(
                cnf, num_workers=self.num_workers, base_config=config,
                seed=seed, time_limit=time_limit, max_conflicts=max_conflicts,
                max_decisions=max_decisions, assumptions=assumptions,
                sharing=self.share_clauses, proof=proof)
        self._shed_on_spawn_failures(report)
        self.report = report
        return report.result

    def _shed_on_spawn_failures(self, report) -> None:
        """Degrade worker count when the OS refused to spawn workers.

        Repeated ``fork``/``spawn`` failures signal a host under memory or
        pid pressure; instead of asking for the same doomed parallelism on
        the next call, the backend sheds the failed workers (never below
        one — the last worker runs in-process and cannot fail to spawn).
        """
        failed = sum(1 for worker in report.workers
                     if worker.status == "SPAWN_FAILED")
        if not failed or self.num_workers <= 1:
            return
        previous = self.num_workers
        self.num_workers = max(1, self.num_workers - failed)
        tracer = get_tracer()
        tracer.metrics.counter("resilience.sheds").inc()
        tracer.event("portfolio_shed", previous=previous,
                     num_workers=self.num_workers, spawn_failures=failed)
        logger.warning(
            "portfolio shed %d -> %d workers after %d spawn failure(s)",
            previous, self.num_workers, failed)

    def __repr__(self) -> str:
        return (f"PortfolioBackend(num_workers={self.num_workers}, "
                f"cube_depth={self.cube_depth})")


class FallbackBackend:
    """Degradation wrapper: retry a flaky primary, then fall back.

    Implements the :class:`SolverBackend` protocol around a ``primary``
    backend (typically a :class:`SubprocessBackend`):

    * transient failures (:func:`repro.errors.is_transient` — crashed
      binary, garbage output, I/O errors) are retried under the optional
      :class:`repro.resilience.Supervisor`;
    * once retries are exhausted — or immediately for permanent failures
      like a missing binary — the solve degrades to ``fallback``
      (typically :class:`InternalBackend`), with the degradation recorded
      in the result's ``stats.fallbacks``, the ``resilience.fallbacks``
      counter, a ``backend_fallback`` trace event and :attr:`events` (the
      CLI turns these into ``c WARNING`` lines).

    With no ``fallback`` configured the wrapper only adds the retry layer.
    """

    def __init__(self, primary: SolverBackend,
                 fallback: SolverBackend | None = None,
                 supervisor=None) -> None:
        self.primary = primary
        self.fallback = fallback
        self.supervisor = supervisor
        self.name = primary.name
        self.fallbacks = 0
        self.events: list[str] = []

    def available(self) -> bool:
        if self.primary.available():
            return True
        return self.fallback is not None and self.fallback.available()

    def solve(self, cnf: Cnf, config: SolverConfig | None = None,
              time_limit: float | None = None,
              max_conflicts: int | None = None,
              max_decisions: int | None = None,
              assumptions: list[int] | None = None,
              proof: str | None = None) -> SolveResult:
        key = f"backend.{self.primary.name}"
        while True:
            try:
                return self.primary.solve(
                    cnf, config=config, time_limit=time_limit,
                    max_conflicts=max_conflicts,
                    max_decisions=max_decisions, assumptions=assumptions,
                    proof=proof)
            except (BackendError, OSError) as error:
                if (self.supervisor is not None and is_transient(error)
                        and self.supervisor.note_failure(key, error)):
                    continue
                if self.fallback is None:
                    raise
                failure = error
                break
        self.fallbacks += 1
        message = (f"backend {self.primary.name!r} failed ({failure}); "
                   f"falling back to {self.fallback.name!r}")
        self.events.append(message)
        logger.warning("%s", message)
        tracer = get_tracer()
        tracer.metrics.counter("resilience.fallbacks").inc()
        tracer.event("backend_fallback", primary=self.primary.name,
                     fallback=self.fallback.name, error=repr(failure))
        result = self.fallback.solve(
            cnf, config=config, time_limit=time_limit,
            max_conflicts=max_conflicts, max_decisions=max_decisions,
            assumptions=assumptions, proof=proof)
        result.stats.fallbacks += 1
        return result

    def __repr__(self) -> str:
        return (f"FallbackBackend({self.primary!r}, "
                f"fallback={self.fallback!r})")


#: Names resolving to the built-in solver (one definition for every CLI).
INTERNAL_NAMES = ("internal", "cdcl")

#: The parallel portfolio / cube-and-conquer backend name.
PORTFOLIO_NAME = "portfolio"

#: The backend registry: every name accepted by ``--backend`` flags.
#: ``internal`` (alias ``cdcl``) is the built-in solver, ``portfolio`` its
#: parallel harness; the rest are the external solvers of the paper's
#: evaluation.
BACKEND_NAMES = INTERNAL_NAMES + (PORTFOLIO_NAME, "kissat", "cadical",
                                  "minisat")


def is_internal(name: str) -> bool:
    """Whether ``name`` selects the built-in solver."""
    return name in INTERNAL_NAMES


def get_backend(name: str, binary: str | None = None,
                **kwargs) -> SolverBackend:
    """Build the backend called ``name``.

    ``internal`` / ``cdcl`` return the built-in solver; ``portfolio``
    returns a :class:`PortfolioBackend` (``kwargs`` — ``num_workers``,
    ``cube_depth``, ``seed``, ``share_clauses`` — configure it); any other
    name returns a :class:`SubprocessBackend` for that solver binary
    (``binary`` overrides PATH lookup).  Construction never probes the
    machine — a missing external binary only fails once the backend solves
    (or :func:`ensure_available` is called), so backends can be configured
    on hosts that do not have them.
    """
    if name == PORTFOLIO_NAME:
        if binary is not None:
            raise BackendError(
                "the portfolio backend races the internal solver; "
                "--solver-binary does not apply to it")
        return PortfolioBackend(**kwargs)
    if kwargs:
        raise BackendError(
            f"backend options {sorted(kwargs)} only apply to the "
            f"{PORTFOLIO_NAME!r} backend, not {name!r}")
    if is_internal(name):
        return InternalBackend()
    return SubprocessBackend(name, binary=binary)


def fold_portfolio_flags(backend: str, num_workers: int | None,
                         cube_depth: int | None,
                         share_clauses: bool = False) -> tuple[str, dict]:
    """Fold ``--portfolio N`` / ``--cube-depth K`` / ``--share-clauses``
    into (backend, kwargs).

    The single definition behind both CLIs (``repro solve`` and the runner):
    either of the first two flags switches the backend to ``portfolio``;
    combining them with an external backend, a non-positive worker count or
    an out-of-cap cube depth raises :class:`BackendError` with a user-facing
    message.  ``--share-clauses`` needs racing workers: it requires
    ``--portfolio`` (or an explicit portfolio backend) and rejects
    ``--cube-depth``.  Returns plain data so runner tasks stay JSON-stable.
    """
    from repro.sat.portfolio import MAX_CUBE_DEPTH

    if num_workers is None and cube_depth is None:
        if share_clauses and backend != PORTFOLIO_NAME:
            raise BackendError(
                "--share-clauses needs racing workers; combine it with "
                "--portfolio N")
        if not share_clauses:
            return backend, {}
    if backend not in INTERNAL_NAMES + (PORTFOLIO_NAME,):
        raise BackendError(
            f"--portfolio/--cube-depth race the internal solver and cannot "
            f"be combined with --backend {backend}")
    backend_kwargs: dict = {}
    if num_workers is not None:
        if num_workers < 1:
            raise BackendError("--portfolio needs at least one worker")
        backend_kwargs["num_workers"] = num_workers
    if cube_depth is not None:
        if not 1 <= cube_depth <= MAX_CUBE_DEPTH:
            raise BackendError(
                f"--cube-depth must lie in [1, {MAX_CUBE_DEPTH}]")
        backend_kwargs["cube_depth"] = cube_depth
    if share_clauses:
        if cube_depth is not None:
            raise BackendError(
                "--share-clauses applies to racing portfolios and cannot "
                "be combined with --cube-depth")
        backend_kwargs["share_clauses"] = True
    return PORTFOLIO_NAME, backend_kwargs


def ensure_available(backend: SolverBackend) -> None:
    """Fail fast: raise :class:`BackendUnavailableError` unless ``backend``
    can run on this machine.

    Callers that do expensive work before solving (e.g. the CLI's
    preprocessing pipelines) probe here first so a missing binary is
    reported before minutes of synthesis, not after.
    """
    if isinstance(backend, FallbackBackend):
        if backend.fallback is not None and backend.fallback.available():
            return
        ensure_available(backend.primary)
    elif isinstance(backend, SubprocessBackend):
        backend._require_binary()
    elif not backend.available():
        raise BackendUnavailableError(
            f"solver backend {backend.name!r} is not available on this "
            f"machine")


def resolve_backend(backend: str | SolverBackend | None,
                    binary: str | None = None,
                    **kwargs) -> SolverBackend:
    """Normalise a backend argument: name, instance or None (the default).

    ``kwargs`` configure name-addressed backends (currently the portfolio
    backend's ``num_workers``/``cube_depth``/``seed``/``share_clauses``)
    and are rejected for instances, whose configuration is already fixed.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, str):
        return get_backend(backend, binary=binary, **kwargs)
    if kwargs:
        raise BackendError(
            f"backend options {sorted(kwargs)} cannot reconfigure an "
            f"already-built backend instance ({backend!r})")
    return backend


def available_backends() -> dict[str, bool]:
    """Availability of every registered backend name on this machine."""
    return {name: get_backend(name).available()
            for name in BACKEND_NAMES if name == "internal" or not is_internal(name)}
