"""Parallel portfolio and cube-and-conquer solving on top of the CDCL core.

Two classic ways of spending several cores on one formula, both built from
pieces the sequential stack already provides:

* **Portfolio racing** (:func:`solve_portfolio`) — N *diversified*
  :class:`repro.sat.configs.SolverConfig` variants race on the same formula
  in separate processes.  Diversification jitters the knobs that most change
  a CDCL run's trajectory — seed, restart strategy and interval, default
  phase, VSIDS decay and the random-decision frequency — starting from the
  ``kissat_like``/``cadical_like`` presets.  The first decisive worker
  (SAT or UNSAT) wins; the losers are terminated and reported as
  ``CANCELLED``.  Because CDCL runtimes are heavy-tailed, the minimum over a
  few diversified runs is routinely far below the runtime of any single
  fixed configuration — the standard result portfolio solvers exploit.

* **Cube and conquer** (:func:`solve_cube_and_conquer`) — the formula is
  split on the ``2**depth`` sign combinations of ``depth`` branching
  variables chosen by an occurrence heuristic (:func:`cube_split_variables`,
  a Jeroslow–Wang-weighted occurrence count standing in for lookahead/VSIDS
  scores).  Each worker owns one *incremental* :class:`CdclSolver` session
  and conquers its share of cubes through ``solve(assumptions=cube)``, so
  learned clauses, VSIDS activities and saved phases carry across the cubes
  of one worker.  Any SAT cube decides the formula; all cubes UNSAT decides
  UNSAT; a cube that is UNSAT *independently of its cube literals* (final
  conflict core free of split variables) short-circuits the whole run.

Both modes run on one engine: one worker body (:func:`_cube_worker`, an
incremental session conquering a list of cubes) and one parent-side driver
(:func:`_drive`).  A racing worker is the special case of a worker whose
share is the single empty cube ``[[]]`` — the whole formula — so the two
public entry points only build their configurations and cube shares.  Both
return a :class:`PortfolioResult`: the winning
:class:`repro.sat.solver.SolveResult` plus per-worker outcomes and the
wall-clock time.  Everything is deterministic *in verdict* — SAT/UNSAT is a
property of the formula and every worker is sound — but the winning worker,
its model and its statistics legitimately vary run to run; differential
tests therefore compare statuses and *verify* models rather than expecting
bit-identical results.

Workers are forked on a :class:`repro.resilience.pool.WorkerPool`, the
one worker model of the repo: each gets its index over its own pipe and
sends back one message, and EOF on a pipe is that worker's death.  The
pool kills and joins every worker before the call returns (also on errors
and timeouts), so portfolio solving composes with the batch runner's
per-task hard timeouts without leaking processes.

Racing workers can additionally *share* learned clauses
(``sharing=True``/:class:`repro.sat.sharing.SharingConfig`): the parent
pumps a :class:`repro.sat.sharing.ClauseBus` while it polls for results.
Both modes can emit a checkable DRAT proof (``proof=PATH``): each worker
logs a Lamport-stamped lemma stream (:mod:`repro.sat.proof`) and the parent
merges the streams on a formula-level UNSAT verdict — including the
all-cubes-UNSAT case, which is closed with prefix-tree glue lemmas.

Worker death is a routine event, not a failure mode: a race with K dead
workers still returns the first decisive verdict from the survivors, a
refused ``fork`` only sheds that worker (reported as
``SPAWN_FAILED``), and when *every* worker is lost on the multiprocess
path the run degrades to one in-process sequential solve of the unsplit
formula as the last rung of the degradation ladder; only when that solve
fails too does the run raise :class:`SolverError`.  All of it is counted
on the active tracer (``resilience.worker_deaths`` /
``resilience.spawn_failures`` / ``resilience.fallbacks``) and the
deterministic chaos harness (:mod:`repro.resilience.chaos`) can kill
specific workers at specific conflict counts to exercise these paths in
tests.
"""

from __future__ import annotations

import logging
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait

from repro.cnf.cnf import Cnf
from repro.errors import SolverError, is_transient
from repro.obs import NULL_TRACER, Tracer, get_tracer
from repro.resilience.chaos import get_chaos
from repro.resilience.pool import FORK_CONTEXT, WorkerPool
from repro.sat.backends import compose_progress
from repro.sat.configs import SolverConfig, cadical_like, kissat_like
from repro.sat.proof import (LemmaStream, ProofError, cube_prefix_clauses,
                             merge_lemma_streams, read_lemma_stream,
                             write_drat_file)
from repro.sat.sharing import ClauseBus, SharingConfig
from repro.sat.solver import CdclSolver, SolveResult
from repro.sat.stats import SolverStats

logger = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_NUM_WORKERS",
    "MAX_CUBE_DEPTH",
    "WorkerReport",
    "PortfolioResult",
    "diversified_configs",
    "cube_split_variables",
    "generate_cubes",
    "solve_portfolio",
    "solve_cube_and_conquer",
]

#: Default worker count when the caller does not choose one.
DEFAULT_NUM_WORKERS = 4

#: Hard cap on the cube depth: 2**depth cubes must stay enumerable.
MAX_CUBE_DEPTH = 12

#: How long the parent waits on the worker pipes between clause-bus pumps
#: and deadline checks.
_POLL_INTERVAL = 0.05

#: Extra wall-clock slack the parent grants workers beyond ``time_limit``
#: before killing them (the workers' own in-loop limit should fire first).
_KILL_GRACE = 5.0


# --------------------------------------------------------------------- #
# Diversification
# --------------------------------------------------------------------- #


def diversified_configs(num_workers: int,
                        base: SolverConfig | None = None,
                        seed: int = 0) -> list[SolverConfig]:
    """Build ``num_workers`` deterministic, diversified solver configs.

    Workers 0 and 1 run the two presets nearly unchanged (worker 0 is
    ``base`` when one is given), so the portfolio never does worse than the
    sequential defaults by more than the racing overhead.  Further workers
    jitter restart strategy/interval, default phase, VSIDS decay and the
    random-decision frequency around the presets; every worker gets its own
    solver seed.  Fully deterministic for a given ``(num_workers, base,
    seed)`` tuple.
    """
    if num_workers < 1:
        raise SolverError("a portfolio needs at least one worker")
    anchors = [base or kissat_like(), cadical_like()]
    rng = random.Random(f"{seed}/{num_workers}/{anchors[0].seed}")
    configs: list[SolverConfig] = []
    for index in range(num_workers):
        template = anchors[index % len(anchors)]
        if index < len(anchors):
            config = replace(template, seed=seed + index,
                             name=f"{template.name}@w{index}")
        else:
            config = replace(
                template,
                name=f"{template.name}~j{index}",
                seed=seed * 1_000_003 + index,
                var_decay=min(1.0, max(0.80,
                                       template.var_decay
                                       + rng.uniform(-0.12, 0.04))),
                restart_interval=max(16, int(template.restart_interval
                                             * rng.choice((0.25, 0.5, 1.0,
                                                           2.0)))),
                restart_strategy=rng.choice(("luby", "geometric")),
                default_phase=rng.random() < 0.5,
                phase_saving=rng.random() < 0.9,
                # The high tail ("needle hunters": frequent random decisions
                # with rapid restarts) pays off on satisfiable instances
                # whose solutions hide in a small region.
                random_decision_freq=rng.choice((0.0, 0.01, 0.05, 0.2)),
            )
        configs.append(config)
    return configs


# --------------------------------------------------------------------- #
# Cube generation
# --------------------------------------------------------------------- #


def cube_split_variables(cnf: Cnf, depth: int) -> list[int]:
    """Pick ``depth`` branching variables for cube splitting.

    Each variable is scored by a Jeroslow–Wang-weighted occurrence count
    (occurrences in short clauses count exponentially more), a cheap static
    proxy for the lookahead/VSIDS scores real cube-and-conquer solvers use.
    Ties break towards the smaller variable index, so the split is
    deterministic.
    """
    scores = [0.0] * (cnf.num_vars + 1)
    for clause in cnf.clauses:
        weight = 2.0 ** -min(len(clause), 25)
        for literal in clause:
            var = abs(literal)
            if var <= cnf.num_vars:
                scores[var] += weight
    ranked = sorted(range(1, cnf.num_vars + 1),
                    key=lambda var: (-scores[var], var))
    return [var for var in ranked[:depth] if scores[var] > 0.0]


def generate_cubes(variables: list[int]) -> list[list[int]]:
    """All ``2**len(variables)`` sign combinations, as assumption lists.

    The cubes partition the assignment space of the split variables, so
    conquering every cube decides the formula.  An empty variable list
    yields the single empty cube (a plain sequential solve).
    """
    cubes: list[list[int]] = [[]]
    for var in variables:
        cubes = [cube + [var] for cube in cubes] \
            + [cube + [-var] for cube in cubes]
    return cubes


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #


@dataclass
class WorkerReport:
    """What one portfolio/cube worker did.

    ``status`` is the worker's own verdict: ``SAT``/``UNSAT``/``UNKNOWN``
    for workers that reported, ``EXHAUSTED`` for cube workers that finished
    their share without deciding the formula, ``CANCELLED`` for losers
    terminated after the winner, ``ERROR`` for workers that crashed.
    ``stats`` is only available for workers that reported back.
    """

    index: int
    config_name: str
    status: str
    solve_time: float = 0.0
    stats: SolverStats | None = None
    cubes_solved: int = 0
    error: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "config": self.config_name,
            "status": self.status,
            "solve_time": self.solve_time,
            "cubes_solved": self.cubes_solved,
            "stats": self.stats.as_dict() if self.stats else None,
            "error": self.error or None,
        }


@dataclass
class PortfolioResult:
    """Outcome of a portfolio or cube-and-conquer run.

    ``proof`` is the path of the merged DRAT proof when one was requested
    and the run ended formula-level UNSAT (``None`` otherwise — including
    assumption-level UNSAT, which has no formula refutation).  ``sharing``
    holds the clause bus totals (``exported``/``imported``/``filtered``)
    when clause sharing was on.
    """

    result: SolveResult
    mode: str                      # "portfolio" or "cube"
    winner: str | None             # config name of the deciding worker
    workers: list[WorkerReport] = field(default_factory=list)
    wall_time: float = 0.0
    num_cubes: int = 0
    cube_variables: list[int] = field(default_factory=list)
    proof: str | None = None
    sharing: dict[str, int] | None = None

    @property
    def status(self) -> str:
        return self.result.status

    def as_dict(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "status": self.result.status,
            "winner": self.winner,
            "wall_time": self.wall_time,
            "num_cubes": self.num_cubes,
            "cube_variables": list(self.cube_variables),
            "workers": [report.as_dict() for report in self.workers],
            "proof": self.proof,
            "sharing": dict(self.sharing) if self.sharing else None,
        }


# --------------------------------------------------------------------- #
# Worker body (run in a pool worker, or in-process for one worker)
# --------------------------------------------------------------------- #


def _worker_tracer(trace_path, index: int):
    """The worker's own tracer (never the parent's inherited one)."""
    if trace_path is None:
        return NULL_TRACER
    return Tracer(trace_path, worker=f"w{index}")


#: Conflict interval while a chaos kill hook is armed: tight, so the kill
#: lands close to the requested conflict count.
_CHAOS_PROGRESS_INTERVAL = 16


def _cube_worker(index: int, cnf: Cnf, config: SolverConfig,
                 cubes: list[list[int]], time_limit: float | None,
                 max_conflicts: int | None, max_decisions: int | None,
                 assumptions: list[int] | None, trace_path=None,
                 lemma_path=None, endpoint=None) -> dict:
    """Conquer ``cubes`` on one incremental solver session; return the
    worker's message to the parent.

    Any SAT cube decides the formula, and so does an UNSAT cube whose
    final-conflict core avoids every split variable; otherwise the worker
    reports its share ``exhausted`` with one status per cube.  A racing
    worker (and the last resort) is the ``cubes == [[]]`` case: the empty
    cube is the whole formula, so its solve's verdict — ``UNKNOWN`` on an
    exhausted budget included — is the worker's.  ``endpoint`` attaches
    the clause bus when sharing is on.
    """
    start = time.perf_counter()
    base_assumptions = list(assumptions or [])
    cube_vars = {abs(literal) for cube in cubes for literal in cube}
    deadline = start + time_limit if time_limit is not None else None
    solver = None
    completed = 0
    tracer = _worker_tracer(trace_path, index)
    stream = LemmaStream(lemma_path, worker=index) \
        if lemma_path is not None else None
    try:
        # One incremental session per worker: learned clauses, activities
        # and phases persist across this worker's cubes.
        solver = CdclSolver(cnf, config=config)
        solver.set_progress(*compose_progress(
            tracer, get_chaos().progress_killer(index),
            _CHAOS_PROGRESS_INTERVAL))
        if stream is not None:
            solver.set_proof(stream)
        if endpoint is not None:
            endpoint.attach(solver, stream)
        worker_span = tracer.span("worker_solve", config=config.name,
                                  index=index, cubes=len(cubes))
        with worker_span:
            statuses: list[str] = []
            verdict, result = "EXHAUSTED", None
            for cube in cubes:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        # Mark the unattempted cube undecided so the parent
                        # cannot mistake a timed-out share for all-UNSAT.
                        statuses.append("UNKNOWN")
                        break
                with tracer.span("cube_solve", cube=cube) as cube_span:
                    result = solver.solve(time_limit=remaining,
                                          max_conflicts=max_conflicts,
                                          max_decisions=max_decisions,
                                          assumptions=base_assumptions + cube)
                    cube_span.set(status=result.status)
                completed += 1
                core_vars = {abs(literal) for literal in result.core or []}
                if result.status == "SAT" or (result.status == "UNSAT"
                                              and not core_vars & cube_vars):
                    # A core free of split variables refutes the formula
                    # (under the caller's assumptions alone), independent
                    # of the remaining cubes.
                    verdict = result.status
                    break
                if stream is not None and result.core:
                    # Log this cube's refutation: the negated
                    # failed-assumption core is RUP right here (it is the
                    # final conflict analysis over the cube literals), and
                    # as a subset of the negated cube it lets the parent's
                    # prefix-tree glue lemmas close an all-UNSAT run (see
                    # cube_prefix_clauses).
                    stream.add_clause(tuple(-literal
                                            for literal in result.core))
                statuses.append(result.status)
            if verdict == "EXHAUSTED" and not cube_vars:
                verdict = "UNKNOWN"
            worker_span.set(status=verdict, cubes_solved=completed,
                            conflicts=solver.stats.conflicts)
        decided = verdict in ("SAT", "UNSAT")
        return {"kind": "exhausted" if verdict == "EXHAUSTED" else "result",
                "index": index, "status": verdict, "statuses": statuses,
                "model": result.model if decided else None,
                "core": result.core if decided else None,
                "stats": solver.stats, "cubes_solved": completed,
                "elapsed": time.perf_counter() - start}
    except Exception as exc:
        # Anything escaping a worker must travel back as a message (an
        # exception ending the worker would look like a silent death to
        # the parent); the transience classification rides along so the
        # parent can retry sensibly.
        return {"kind": "error", "index": index, "error": repr(exc),
                "transient": is_transient(exc),
                "stats": solver.stats if solver is not None else None,
                "elapsed": time.perf_counter() - start}
    finally:
        if stream is not None:
            stream.close()
        tracer.close()


# --------------------------------------------------------------------- #
# Parent-side orchestration
# --------------------------------------------------------------------- #


def _decisive(message: dict) -> bool:
    """A SAT or UNSAT verdict for the whole formula ends the run."""
    return message["kind"] == "result" \
        and message["status"] in ("SAT", "UNSAT")


def _start_workers(pool: WorkerPool, count: int) -> dict[int, dict]:
    """Fork ``count`` workers and send each its index, tolerating refusals.

    A host under memory or pid pressure can refuse a ``fork``; losing one
    lane of the race is strictly better than losing the race, so refused
    forks are recorded as ``SPAWN_FAILED`` pseudo-messages (and on the
    ``resilience.spawn_failures`` counter) while the survivors run.
    Returns the pseudo-messages by worker index.
    """
    failed: dict[int, dict] = {}
    for index in range(count):
        try:
            worker = pool.fork()
        except OSError as exc:
            failed[index] = {"kind": "error", "index": index,
                             "error": f"spawn failed: {exc!r}",
                             "spawn_failed": True, "transient": True,
                             "elapsed": 0.0}
            continue
        worker.job = index
        try:
            worker.conn.send(index)
        except OSError:
            pass  # a dead worker: _collect reads its EOF
    if failed:
        tracer = get_tracer()
        tracer.metrics.counter("resilience.spawn_failures").inc(len(failed))
        tracer.event("spawn_failures", workers=sorted(failed))
        logger.warning("portfolio: failed to spawn worker(s) %s; racing %d "
                       "survivor(s)", sorted(failed), count - len(failed))
    return failed


def _collect(pool: WorkerPool, time_limit: float | None,
             pump=None) -> dict[int, dict]:
    """Await worker messages until one is decisive or all have reported.

    Returns the messages by worker index; the caller stops whatever is
    still running.  Each pool worker sends exactly one message, so EOF on
    its pipe means it died without one: it is reaped and recorded as a
    transient error at once, and counted on ``resilience.worker_deaths``.
    When ``time_limit`` is set a safety deadline (limit + grace) bounds the
    whole wait.  ``pump`` (the clause bus's pump, when sharing is on) runs
    once per wait round, so clause traffic moves at the result-polling
    cadence without a dedicated thread.
    """
    messages: dict[int, dict] = {}
    running = {worker.conn: worker for worker in pool.workers}
    tracer = get_tracer()
    deadline = (time.monotonic() + time_limit + _KILL_GRACE
                if time_limit is not None else None)
    while running:
        if pump is not None:
            pump()
        for conn in wait(list(running), timeout=_POLL_INTERVAL):
            worker = running.pop(conn)
            index = worker.job
            try:
                message = conn.recv()
            except (EOFError, OSError):  # dead, even mid-message
                pool.reap(worker)
                exitcode = worker.process.exitcode
                message = {"kind": "error", "index": index,
                           "error": "worker died without reporting",
                           "transient": True, "elapsed": 0.0}
                tracer.metrics.counter("resilience.worker_deaths").inc()
                tracer.event("worker_death", index=index, exitcode=exitcode)
                logger.warning("portfolio worker %d died without reporting "
                               "(exit code %s)", index, exitcode)
            messages[index] = message
            if _decisive(message):
                return messages
        if deadline is not None and time.monotonic() > deadline:
            break
    return messages


def _worker_reports(configs: list[SolverConfig],
                    messages: dict[int, dict]) -> list[WorkerReport]:
    reports = []
    for index, config in enumerate(configs):
        message = messages.get(index)
        if message is None:
            reports.append(WorkerReport(index=index, config_name=config.name,
                                        status="CANCELLED"))
            continue
        if message["kind"] == "error":
            status = "SPAWN_FAILED" if message.get("spawn_failed") \
                else "ERROR"
            reports.append(WorkerReport(
                index=index, config_name=config.name, status=status,
                solve_time=message.get("elapsed", 0.0),
                stats=message.get("stats"), error=message["error"]))
            continue
        reports.append(WorkerReport(
            index=index, config_name=config.name, status=message["status"],
            solve_time=message.get("elapsed", 0.0),
            stats=message.get("stats"),
            cubes_solved=message.get("cubes_solved", 0)))
    return reports


def _aggregate_stats(reports: list[WorkerReport],
                     wall_time: float) -> SolverStats:
    total = SolverStats(solve_time=wall_time)
    for report in reports:
        if report.stats is None:
            continue
        total.decisions += report.stats.decisions
        total.conflicts += report.stats.conflicts
        total.propagations += report.stats.propagations
        total.restarts += report.stats.restarts
        total.learned_clauses += report.stats.learned_clauses
        total.deleted_clauses += report.stats.deleted_clauses
        total.max_decision_level = max(total.max_decision_level,
                                       report.stats.max_decision_level)
    return total


def _winning_result(message: dict, wall_time: float) -> SolveResult:
    # The race took wall_time; the winner's own time stays on its report.
    stats = replace(message["stats"], solve_time=wall_time)
    return SolveResult(status=message["status"], model=message.get("model"),
                       stats=stats, core=message.get("core"))


def _all_workers_failed(configs: list[SolverConfig],
                        messages: dict[int, dict]) -> bool:
    return len(messages) == len(configs) and bool(messages) and \
        all(message["kind"] == "error" for message in messages.values())


def _raise_if_all_workers_failed(configs: list[SolverConfig],
                                 messages: dict[int, dict]) -> None:
    """An all-ERROR worker set is a failure, not an UNKNOWN verdict.

    UNKNOWN must stay reserved for budget/deadline exhaustion; if every
    single worker crashed (and the sequential last resort crashed too, or
    was disabled) the caller needs to know — a systematic solver or
    pickling bug — so the run raises with the collected errors.
    """
    if _all_workers_failed(configs, messages):
        details = "; ".join(
            f"{configs[index].name}: {messages[index]['error']}"
            for index in sorted(messages))
        raise SolverError(f"every portfolio worker failed: {details}")


def _last_resort_message(index: int, args: tuple,
                         lemma_path=None) -> dict:
    """The bottom rung of the degradation ladder: one in-process solve.

    Used when every multiprocess worker was lost (all crashed, or the host
    refused every fork): run a single worker body inline — no fork, so
    nothing left to die — and return its message.  Counted on
    ``resilience.fallbacks``.
    """
    tracer = get_tracer()
    tracer.metrics.counter("resilience.fallbacks").inc()
    tracer.event("sequential_fallback")
    logger.warning("every portfolio worker was lost; degrading to one "
                   "in-process sequential solve")
    return _cube_worker(index, *args, lemma_path=lemma_path)


def _worker_trace_paths(tracer, count: int):
    """Per-worker trace file paths (plus their directory) when tracing is on.

    Workers cannot share the parent's tracer across a ``fork()`` (see
    :func:`repro.obs.get_tracer`), so each gets its own JSONL file in a
    temporary directory; the parent absorbs them afterwards.
    """
    if not tracer.enabled:
        return None, [None] * count
    directory = tempfile.mkdtemp(prefix="repro-trace-")
    return directory, [os.path.join(directory, f"w{index}.jsonl")
                       for index in range(count)]


def _absorb_worker_traces(tracer, span, directory, paths) -> None:
    """Merge the workers' trace files under ``span`` and clean up."""
    if directory is None:
        return
    try:
        for index, path in enumerate(paths):
            tracer.absorb(path, parent_id=span.span_id, worker=f"w{index}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _worker_lemma_paths(proof: str | None, count: int):
    """Per-worker lemma stream paths (plus their directory) for proof mode.

    Worker processes cannot append to one shared proof file without
    interleaving partial lines, so each logs its own Lamport-stamped
    :class:`~repro.sat.proof.LemmaStream` in a temporary directory and the
    parent merge-sorts them afterwards (:func:`_compose_proof`).
    """
    if proof is None:
        return None, [None] * count
    directory = tempfile.mkdtemp(prefix="repro-proof-")
    return directory, [os.path.join(directory, f"w{index}.lemmas")
                       for index in range(count)]


def _skip_proof(reason: str) -> None:
    """A requested proof cannot be produced: warn, trace, carry on."""
    get_tracer().event("proof_skipped", reason=reason)
    logger.warning("proof skipped: %s", reason)


def _compose_proof(proof: str, result: SolveResult, lemma_paths,
                   tail=()) -> str | None:
    """Write the merged DRAT proof of ``result`` at ``proof``, or remove it.

    A formula-level UNSAT verdict (empty core) is proved by merge-sorting
    the lemma streams in ``lemma_paths`` by Lamport stamp, so every lemma
    follows its antecedents, and appending ``tail`` (the cube-tree glue
    clauses of an all-cubes-UNSAT run).  A worker that never started left
    no file, and exported nothing, so nothing can reference its lemmas.
    Every other outcome — no UNSAT, assumption-level UNSAT, or merged
    streams that never derive the empty clause because the winner was
    killed before its final flush — leaves no proof file behind: a stale
    one from an earlier run must not outlive this verdict.  Returns the
    path of the written proof, or ``None``.
    """
    reason = ""
    if result.status != "UNSAT":
        pass
    elif result.core:
        reason = ("assumption-level UNSAT (non-empty core) has no "
                  "formula-level refutation")
    else:
        try:
            streams = [read_lemma_stream(path) for path in lemma_paths
                       if path is not None and os.path.exists(path)]
        except ProofError as error:  # pragma: no cover - defensive
            reason = f"unreadable lemma stream: {error}"
        else:
            clauses = list(merge_lemma_streams(streams)) + list(tail)
            if any(len(clause) == 0 for clause in clauses):
                write_drat_file(proof, clauses)
                return proof
            reason = "merged lemma streams never derive the empty clause"
    if reason:
        _skip_proof(reason)
    try:
        os.remove(proof)
    except OSError:
        pass
    return None


def _drive(mode: str, cnf: Cnf, configs: list[SolverConfig],
           shares: list[list[list[int]]], limits: tuple,
           assumptions: list[int] | None, proof: str | None,
           share: SharingConfig | None = None, refutation=None,
           **attrs) -> PortfolioResult:
    """Run one worker per config over its cube share and settle the verdict.

    The one engine behind both public entry points.  A single worker runs
    in-process; more are forked on a :class:`WorkerPool`, with refused forks
    shed and a clause bus pumped while polling when ``share`` is set.  The
    first decisive message wins and the pool reaps the rest.  When every
    forked worker is lost, one in-process unsplit solve is the last resort.
    Without a decisive message, ``refutation(messages)`` may return the
    glue clauses that close an all-UNSAT split, which makes the verdict
    UNSAT; the verdict is ``UNKNOWN`` otherwise.  ``attrs`` annotate the
    ``mode`` span.
    """
    start = time.perf_counter()
    tracer = get_tracer()
    with tracer.span(mode, workers=len(configs), **attrs) as span:
        trace_dir, trace_paths = _worker_trace_paths(tracer, len(configs))
        # One lemma path more than workers: the last resort's.
        lemma_dir, lemma_paths = _worker_lemma_paths(proof, len(configs) + 1)
        sharing_counters: dict[str, int] | None = None
        messages: dict[int, dict] = {}
        try:
            try:
                if len(configs) == 1:
                    messages[0] = _cube_worker(
                        0, cnf, configs[0], shares[0], *limits, assumptions,
                        trace_paths[0], lemma_paths[0])
                else:
                    bus = ClauseBus(len(configs), share, FORK_CONTEXT) \
                        if share is not None else None

                    def work(index: int) -> dict:
                        return _cube_worker(
                            index, cnf, configs[index], shares[index],
                            *limits, assumptions, trace_paths[index],
                            lemma_paths[index],
                            bus.endpoint(index) if bus is not None else None)

                    pool = WorkerPool(work)
                    # Forks run inside the try so that a caller's
                    # hard-timeout alarm firing in the fork window still
                    # reaps the workers already running.
                    try:
                        messages = _start_workers(pool, len(configs))
                        messages.update(_collect(
                            pool, limits[0],
                            pump=bus.pump if bus is not None else None))
                    finally:
                        if bus is not None:
                            bus.pump()
                            bus.publish_metrics()
                            sharing_counters = bus.counters()
                        pool.stop()
                        if bus is not None:
                            bus.close()
            finally:
                _absorb_worker_traces(tracer, span, trace_dir, trace_paths)

            if len(configs) > 1 and _all_workers_failed(configs, messages):
                # A lost cube partition cannot be recovered either, so the
                # last resort always solves the whole, unsplit formula.
                configs = configs + [replace(
                    configs[0], name=f"{configs[0].name}+seq-fallback")]
                fallback_index = len(configs) - 1
                messages[fallback_index] = _last_resort_message(
                    fallback_index,
                    (cnf, configs[-1], [[]], *limits, assumptions),
                    lemma_path=lemma_paths[fallback_index])

            wall_time = time.perf_counter() - start
            reports = _worker_reports(configs, messages)
            winner = next((message for message in messages.values()
                           if _decisive(message)), None)
            tail = None
            if winner is not None:
                result = _winning_result(winner, wall_time)
                winner_name = configs[winner["index"]].name
            else:
                _raise_if_all_workers_failed(configs, messages)
                if refutation is not None:
                    tail = refutation(messages)
                # An all-UNSAT split refutes the formula under the caller's
                # assumptions: without any, the core is empty (formula-level
                # UNSAT, the sequential solver's convention); with some,
                # only the trivial core is known (cube cores name cube
                # literals, not assumptions).
                result = SolveResult(
                    status="UNKNOWN" if tail is None else "UNSAT",
                    model=None, stats=_aggregate_stats(reports, wall_time),
                    core=None if tail is None else list(assumptions or []))
                winner_name = None

            proof_path = None
            if proof is not None:
                # Without sharing the winner's own stream is a complete
                # refutation; with sharing its antecedents may live in any
                # stream, and the glue lemmas of an all-UNSAT split
                # reference every worker's cube refutations.
                paths = lemma_paths if winner is None or share is not None \
                    else [lemma_paths[winner["index"]]]
                proof_path = _compose_proof(proof, result, paths,
                                            tail or ())
        finally:
            if lemma_dir is not None:
                shutil.rmtree(lemma_dir, ignore_errors=True)
        span.set(status=result.status, winner=winner_name)
    logger.info("%s: %s in %.3f s (winner: %s)", mode, result.status,
                wall_time, winner_name)
    return PortfolioResult(result=result, mode=mode, winner=winner_name,
                           workers=reports, wall_time=wall_time,
                           proof=proof_path, sharing=sharing_counters)


def solve_portfolio(cnf: Cnf, num_workers: int = DEFAULT_NUM_WORKERS,
                    configs: list[SolverConfig] | None = None,
                    base_config: SolverConfig | None = None,
                    seed: int = 0, time_limit: float | None = None,
                    max_conflicts: int | None = None,
                    max_decisions: int | None = None,
                    assumptions: list[int] | None = None,
                    sharing: SharingConfig | bool | None = None,
                    proof: str | None = None) -> PortfolioResult:
    """Race diversified solver configurations on ``cnf``; first verdict wins.

    ``configs`` overrides the generated diversification (its length then
    sets the worker count).  With one worker the solve runs in-process —
    no fork, identical semantics.  ``UNKNOWN`` is only returned when every
    worker exhausted its budget (or the safety deadline killed the race).

    ``sharing`` turns on clause sharing between the workers (``True`` for
    the default :class:`~repro.sat.sharing.SharingConfig`): the parent
    pumps a :class:`~repro.sat.sharing.ClauseBus` while polling for
    results.  A single-worker race has nobody to share with; the flag is
    ignored.  ``proof`` requests a DRAT proof at the given path: every
    worker logs a Lamport-stamped lemma stream and on a *formula-level*
    UNSAT verdict (empty core) the parent merges the streams —
    cross-worker imports included — into one checkable proof
    (:func:`repro.sat.proof.check_drat_file`).  Assumption-level UNSAT has
    no formula refutation, so the proof is skipped with a warning.

    Dead workers only shrink the race: crashed or unspawnable workers are
    reported (``ERROR``/``SPAWN_FAILED``) while the survivors decide.  When
    *all* multiprocess workers are lost, one in-process sequential solve
    runs as the last resort; if that fails too the run raises
    :class:`SolverError`.
    """
    if configs is None:
        configs = diversified_configs(num_workers, base=base_config, seed=seed)
    if not configs:
        raise SolverError("a portfolio needs at least one configuration")
    share = None if not sharing else \
        (SharingConfig() if sharing is True else sharing)
    logger.info("portfolio: racing %d workers on %d vars / %d clauses",
                len(configs), cnf.num_vars, len(cnf.clauses))
    # Every racing worker conquers the one empty cube: the whole formula.
    return _drive("portfolio", cnf, configs, [[[]]] * len(configs),
                  (time_limit, max_conflicts, max_decisions), assumptions,
                  proof, share=share, num_vars=cnf.num_vars)


def solve_cube_and_conquer(cnf: Cnf, cube_depth: int = 4,
                           num_workers: int = DEFAULT_NUM_WORKERS,
                           config: SolverConfig | None = None,
                           seed: int = 0, time_limit: float | None = None,
                           max_conflicts: int | None = None,
                           max_decisions: int | None = None,
                           assumptions: list[int] | None = None,
                           variables: list[int] | None = None,
                           proof: str | None = None) -> PortfolioResult:
    """Split ``cnf`` into ``2**cube_depth`` cubes and conquer them in parallel.

    Each worker conquers its round-robin share of the cubes on one
    incremental solver session (learned clauses are reused across cubes).
    Any SAT cube — or an UNSAT cube whose final-conflict core avoids the
    split variables — decides the formula early; otherwise the verdict is
    UNSAT exactly when every cube came back UNSAT.  ``max_conflicts`` and
    ``max_decisions`` are per-cube budgets; exhausting either on any cube
    (without a SAT elsewhere) degrades the verdict to ``UNKNOWN``.

    ``variables`` overrides the split-variable choice entirely (the cuber is
    pluggable, as in real cube-and-conquer solvers); callers with structural
    knowledge — e.g. the primary-input variables of a circuit encoding,
    which decompose the circuit into constant-propagated slices — pass it
    directly and ``cube_depth`` only caps the list length.

    ``proof`` requests a DRAT proof.  A short-circuit formula-level UNSAT
    (final core free of split *and* assumption literals) uses the deciding
    worker's own lemma stream.  An all-cubes-UNSAT verdict is aggregated:
    every worker logged the negated failed core of each UNSAT cube, and the
    parent appends the prefix-tree glue lemmas
    (:func:`repro.sat.proof.cube_prefix_clauses`) that resolve the cube
    refutations bottom-up into the empty clause.  Under caller assumptions
    no formula-level refutation exists, so the proof is skipped with a
    warning (``PortfolioResult.proof`` stays ``None``).

    Worker loss degrades like :func:`solve_portfolio`: when every
    multiprocess worker is gone, the run drops to one in-process *unsplit*
    solve (the conflict/decision budgets, per-cube until then, then bound
    that single solve).
    """
    if cube_depth < 1:
        raise SolverError("cube_depth must be at least 1 "
                          "(use solve_portfolio for an unsplit race)")
    if cube_depth > MAX_CUBE_DEPTH:
        raise SolverError(f"cube_depth {cube_depth} exceeds the "
                          f"{MAX_CUBE_DEPTH} cap (2**depth cubes)")
    if num_workers < 1:
        raise SolverError("cube and conquer needs at least one worker")
    if variables is not None:
        for var in variables:
            if not 1 <= var <= cnf.num_vars:
                raise SolverError(f"split variable {var} out of range")
        variables = list(variables)[:cube_depth]
    else:
        variables = cube_split_variables(cnf, cube_depth)
    cubes = generate_cubes(variables)
    num_workers = min(num_workers, len(cubes))
    base = config or kissat_like()
    configs = [replace(base, seed=base.seed + seed + index,
                       name=f"{base.name}#c{index}")
               for index in range(num_workers)]
    logger.info("cube and conquer: %d cubes over %d workers (depth %d)",
                len(cubes), num_workers, cube_depth)

    def refutation(messages: dict[int, dict]):
        """The glue lemmas closing the run when every cube came back
        UNSAT (from a worker that exhausted its whole share), else None."""
        statuses = [status for message in messages.values()
                    if message["kind"] == "exhausted"
                    for status in message["statuses"]]
        if len(statuses) != len(cubes) \
                or any(status != "UNSAT" for status in statuses):
            return None
        return cube_prefix_clauses([tuple(cube) for cube in cubes])

    shares = [cubes[index::num_workers] for index in range(num_workers)]
    report = _drive("cube", cnf, configs, shares,
                    (time_limit, max_conflicts, max_decisions), assumptions,
                    proof, refutation=refutation, cubes=len(cubes),
                    depth=cube_depth)
    report.num_cubes = len(cubes)
    report.cube_variables = variables
    return report
