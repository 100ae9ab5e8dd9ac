"""Parallel batch execution with per-task hard timeouts and caching.

With ``jobs > 1``, :class:`BatchRunner` fans :class:`repro.runner.task.Task`
objects out across the forked workers of a
:class:`repro.resilience.pool.WorkerPool`, one task per worker at a time:

* **hard timeouts** — each worker arms a wall-clock alarm
  (``SIGALRM``/``setitimer``) before touching the task, so a hung or
  pathological pipeline is killed *inside its own worker* and reported as a
  ``TIMEOUT`` run; the rest of the sweep is unaffected;
* **deterministic seeding** — the solver seed is derived from the task
  fingerprint, so results are independent of worker assignment and
  completion order (parallel and serial sweeps agree bit for bit on every
  non-timing field);
* **caching / resume** — tasks whose fingerprint is already in the attached
  :class:`repro.runner.store.ResultStore` are served from disk; fresh
  results are appended as they complete, so an interrupted sweep resumes
  where it stopped;
* **in-batch deduplication** — identical cells submitted twice in one batch
  execute once;
* **supervision** — a worker process dying (OOM killer, SIGKILL, segfault)
  costs only the task it was running: that worker is reaped and replaced,
  and its task is requeued under a bounded, backed-off retry budget
  (:class:`repro.resilience.Supervisor`) instead of aborting the batch;
  a task whose retries are exhausted becomes a terminal ``ERROR`` run.
  With ``mem_limit_mb`` set, every worker arms a soft memory watchdog
  (plus a hard rlimit) so an OOM-bound task ends as a clean ``MEMOUT`` run
  rather than a worker death.  Store appends that fail are retried and,
  as a last resort, dropped *visibly* (``resilience.store_errors``
  counter) — an unpersistable result never aborts the batch;
* **interrupts** — workers ignore SIGINT, so Ctrl-C reaches only the
  parent, which kills and reaps every worker at once.

Results are returned in task order regardless of completion order.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait

from repro.aig.aiger import write_aiger
from repro.aig.sweep import sweep_aig
from repro.cnf import write_dimacs
from repro.core.pipeline import encode_aig, run_pipeline
from repro.core.results import InstanceRun
from repro.errors import ReproError, ResourceLimitExceeded
from repro.obs import Tracer, get_tracer, set_tracer
from repro.resilience.chaos import get_chaos
from repro.resilience.policy import Supervisor
from repro.resilience.pool import CRASH_POLICY, WorkerPool
from repro.resilience.watchdog import Watchdog, use_watchdog
from repro.runner.store import ResultStore, put_with_retry
from repro.runner.task import Task, TaskError
from repro.sat.configs import SolverConfig
from repro.sat.stats import SolverStats

logger = logging.getLogger(__name__)


class HardTimeout(Exception):
    """Raised inside a worker when a task exhausts its wall-clock budget."""


def _raise_hard_timeout(signum: int, frame: object) -> None:
    raise HardTimeout()


def _alarm_available() -> bool:
    """Wall-clock alarms need SIGALRM and the (worker) main thread."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


def execute_task(task: Task) -> InstanceRun:
    """Run one task to completion in the current process.

    This is the single guarded execution path for serial runs, pool
    workers, the solve server and tests, so every mode produces identical
    results.  A task that exceeds its ``hard_timeout`` is reported as a
    ``TIMEOUT`` run instead of raising; a tripped resource watchdog (the
    task's own ``mem_limit_mb`` or one armed by the caller) or a hard
    rlimit's ``MemoryError`` becomes a clean ``MEMOUT``/``TIMEOUT`` run;
    unexpected pipeline/solver errors are reported as ``ERROR`` runs
    carrying the error text, so one bad cell cannot abort a long sweep.
    """
    config = task.config if task.config is not None else SolverConfig()
    config = replace(config, seed=task.seed())
    use_alarm = task.hard_timeout is not None and _alarm_available()
    previous_handler = None
    previous_timer = (0.0, 0.0)
    start = time.perf_counter()
    tracer = get_tracer()
    attrs = {"instance": task.instance_name, "pipeline": task.group_name}
    if tracer.enabled:
        attrs["fingerprint"] = task.fingerprint()[:16]
    watchdog = use_watchdog(Watchdog(mem_limit_mb=task.mem_limit_mb)) \
        if task.mem_limit_mb else nullcontext()

    def disarm() -> None:
        # Re-arm any timer the caller had pending (jobs=1 runs in the
        # caller's process) rather than silently disarming it.  Safe to call
        # more than once: the alarm fires at most once (interval 0).
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, *previous_timer)
            signal.signal(signal.SIGALRM, previous_handler)

    # The outer try exists because the alarm can fire in the gap between
    # the task returning and the inner finally disarming it; a HardTimeout
    # raised there must still become a TIMEOUT run, never escape and abort
    # the whole sweep.
    with tracer.span("task", **attrs) as span, watchdog:
        try:
            try:
                if use_alarm:
                    previous_handler = signal.signal(signal.SIGALRM,
                                                     _raise_hard_timeout)
                    previous_timer = signal.setitimer(signal.ITIMER_REAL,
                                                      task.hard_timeout)
                # Fault injection runs inside the armed window so injected
                # delays still count against the wall-clock budget.
                get_chaos().on_task_start(task.instance_name)
                run = _run_task(task, config)
            finally:
                disarm()
        except HardTimeout:
            disarm()
            run = aborted_run(task, "TIMEOUT", time.perf_counter() - start)
        except ResourceLimitExceeded as trip:
            disarm()
            run = aborted_run(task, trip.status, time.perf_counter() - start)
        except MemoryError:
            # The hard rlimit backstop tripped outside the solver loop
            # (the soft watchdog converts in-loop trips itself).
            disarm()
            run = aborted_run(task, "MEMOUT", time.perf_counter() - start)
        except Exception as error:
            disarm()
            logger.exception("task %s/%s failed", task.instance_name,
                             task.pipeline)
            text = str(error) if isinstance(error, ReproError) \
                else f"{type(error).__name__}: {error}"
            run = aborted_run(task, "ERROR", time.perf_counter() - start,
                              error=text)
        span.set(status=run.status)
    run.pipeline_name = task.group_name
    return run


def _run_task(task: Task, config: SolverConfig) -> InstanceRun:
    """The happy path of one task, inside the armed guard window."""
    if task.kind == "solve":
        run = run_pipeline(
            task.instance(), task.pipeline,
            instance_name=task.instance_name,
            config=config,
            time_limit=task.time_limit,
            pipeline_kwargs=task.pipeline_kwargs,
            backend=task.backend,
            backend_kwargs=task.backend_kwargs,
            proof=task.proof,
        )
        # Finished: a solve's artefacts are its record, plus the model of
        # a CNF solve or a proof request, keyed by variable as in JSON.
        run.output = {}
        if run.model is not None and (task.fmt == "cnf"
                                      or task.proof is not None):
            run.output["model"] = {str(var): bool(value)
                                   for var, value in run.model.items()}
        return run
    if task.kind == "preprocess":
        cnf, transform_time = encode_aig(task.aig(), task.pipeline,
                                         task.instance_name,
                                         task.pipeline_kwargs)
        return InstanceRun(task.instance_name, task.pipeline, "DONE",
                           transform_time, 0.0, SolverStats(),
                           cnf.num_vars, cnf.num_clauses,
                           output={"dimacs": write_dimacs(cnf)})
    if task.kind == "sweep":
        result = sweep_aig(task.aig(), seed=(task.seed() % 100000) or 1,
                           config=config)
        return InstanceRun(task.instance_name, task.pipeline, "DONE",
                           result.stats.sweep_time, 0.0, SolverStats(), 0, 0,
                           output={"stats": result.stats.as_dict(),
                                   "aiger": write_aiger(result.aig)})
    raise TaskError(f"unknown task kind {task.kind!r}")


def _execute_task_traced(message: tuple[Task, str | None]) -> InstanceRun:
    """Worker entry point: run the task under its own per-process tracer.

    Pool workers cannot share the parent's tracer (see
    :func:`repro.obs.get_tracer`); each task writes its spans to its own
    JSONL file, which the parent absorbs as the result arrives.
    """
    task, trace_path = message
    if trace_path is None:
        return execute_task(task)
    tracer = Tracer(trace_path, worker=f"pool-{os.getpid()}")
    previous = set_tracer(tracer)
    try:
        return execute_task(task)
    finally:
        set_tracer(previous)
        tracer.close()


def _relabelled(run: InstanceRun, task: Task) -> InstanceRun:
    """A copy of ``run`` carrying the requesting task's labels.

    Fingerprints address *content*, so a cached or in-batch-deduplicated
    result may have been computed under a different instance name or
    aggregation group; the labels always come from the task being served.
    """
    return replace(run, instance_name=task.instance_name,
                   pipeline_name=task.group_name)


def aborted_run(task: Task, status: str, elapsed: float,
                error: str | None = None) -> InstanceRun:
    """A placeholder run for a task killed before producing a result."""
    return InstanceRun(
        instance_name=task.instance_name,
        pipeline_name=task.group_name,
        status=status,
        transform_time=0.0,
        solve_time=elapsed,
        stats=SolverStats(solve_time=elapsed),
        num_vars=0,
        num_clauses=0,
        error=error,
    )


@dataclass
class BatchReport:
    """The outcome of one :meth:`BatchRunner.run` call."""

    runs: list[InstanceRun] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0

    @property
    def total(self) -> int:
        return len(self.runs)

    @property
    def cache_fraction(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def cache_summary(self) -> str:
        percent = 100.0 * self.cache_fraction
        return (f"{self.total} tasks: {self.cache_hits} cache hits, "
                f"{self.executed} executed ({percent:.0f}% cached)")


class BatchRunner:
    """Execute batches of tasks, optionally in parallel and against a store.

    ``jobs`` is the worker-process count (``1`` executes in-process);
    ``store`` enables cache lookup and persistence.  ``supervisor`` governs
    retries of tasks whose worker died or which failed transiently (worker
    deaths are always survived — without a supervisor a conservative
    default policy covers their requeues).  ``mem_limit_mb`` arms a
    per-worker memory watchdog and hard rlimit so runaway tasks end as
    ``MEMOUT`` runs instead of summoning the OOM killer.
    """

    def __init__(self, jobs: int = 1, store: ResultStore | None = None, *,
                 supervisor: Supervisor | None = None,
                 mem_limit_mb: float | None = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.store = store
        self.supervisor = supervisor
        self.mem_limit_mb = mem_limit_mb

    def run(self, tasks: list[Task]) -> BatchReport:
        """Run ``tasks`` and return their results in task order."""
        runs: list[InstanceRun | None] = [None] * len(tasks)
        fingerprints = [task.fingerprint() for task in tasks]
        tracer = get_tracer()
        logger.info("batch: %d tasks across %d jobs", len(tasks), self.jobs)

        with tracer.span("batch", tasks=len(tasks), jobs=self.jobs) as span:
            # Cache pass: serve completed work from the store, dedupe the
            # rest.
            pending: dict[str, tuple[int, Task]] = {}
            duplicates: list[tuple[int, str]] = []
            cache_hits = 0
            for index, (task, fingerprint) in enumerate(zip(tasks,
                                                            fingerprints)):
                if task.proof is not None:
                    # Proof-bearing tasks bypass the cache on both sides: a
                    # cached record has no proof file to offer, and the
                    # requested side effect (a DRAT file at *this* path)
                    # makes two otherwise-identical tasks distinct, so they
                    # are not deduplicated either.  Nor are they stored
                    # (see put_with_retry).
                    pending[f"{fingerprint}#proof{index}"] = (index, task)
                    continue
                cached = self.store.get(fingerprint) \
                    if self.store is not None else None
                if cached is not None:
                    runs[index] = _relabelled(cached, task)
                    cache_hits += 1
                elif fingerprint in pending:
                    duplicates.append((index, fingerprint))
                else:
                    pending[fingerprint] = (index, task)

            fresh: dict[str, InstanceRun] = {}
            if pending:
                fresh = self._execute(pending)
                for fingerprint, run in fresh.items():
                    runs[pending[fingerprint][0]] = run
            for index, fingerprint in duplicates:
                runs[index] = _relabelled(fresh[fingerprint], tasks[index])
            span.set(cache_hits=cache_hits, executed=len(pending))
        tracer.metrics.counter("batch.cache_hits").inc(cache_hits)
        tracer.metrics.counter("batch.executed").inc(len(pending))
        logger.info("batch: %d cache hits, %d executed",
                    cache_hits, len(pending))

        assert all(run is not None for run in runs)
        return BatchReport(runs=runs, cache_hits=cache_hits,
                           executed=len(pending))

    def _execute(self, pending: dict[str, tuple[int, Task]]) -> dict[str, InstanceRun]:
        """Execute the cache-miss tasks, serially or across the pool.

        Every result is persisted the moment it completes, so a sweep
        interrupted part-way (Ctrl-C, OOM-killed worker) resumes from the
        finished tasks instead of restarting from scratch.
        """
        items = list(pending.items())
        results: dict[str, InstanceRun] = {}
        if self.jobs == 1 or len(items) == 1:
            # In-process execution traces straight onto the active tracer.
            for fingerprint, (_, task) in items:
                results[fingerprint] = self._finish(
                    fingerprint, task, self._execute_inline(fingerprint, task))
            return results
        return self._execute_pool({fingerprint: task
                                   for fingerprint, (_, task) in items})

    def _execute_inline(self, fingerprint: str, task: Task) -> InstanceRun:
        """Run one task in-process, with watchdog and supervised retries.

        In-process execution cannot lose a worker, so supervision here only
        covers ``ERROR`` runs (transient by construction: anything the
        pipeline classifies as permanent already failed identically on the
        first attempt and burns one retry at most — the attempt cap is per
        task).
        """
        while True:
            if self.mem_limit_mb:
                with use_watchdog(Watchdog(mem_limit_mb=self.mem_limit_mb)):
                    run = execute_task(task)
            else:
                run = execute_task(task)
            if (run.status != "ERROR" or self.supervisor is None
                    or not self.supervisor.note_failure(
                        f"task.{fingerprint[:16]}")):
                return run

    def _execute_pool(self, queue: dict[str, Task]) -> dict[str, InstanceRun]:
        """Run ``queue`` on a :class:`WorkerPool` until every task is terminal.

        Each worker runs one task at a time, so a worker that dies
        abnormally (SIGKILL, segfault, OOM killer) names the one task it
        lost: that worker alone is reaped and replaced, and only its task
        is charged one attempt against the supervisor.  The task is then
        requeued, or ends as a terminal ``ERROR`` run once its retries are
        spent; the batch itself always completes.  However the loop ends,
        Ctrl-C included, every worker is killed and reaped before this
        returns.
        """
        results: dict[str, InstanceRun] = {}
        supervisor = self.supervisor or Supervisor(CRASH_POLICY)
        tracer = get_tracer()
        parent = tracer.current_span
        parent_id = parent.span_id if parent is not None else None
        trace_dir = tempfile.mkdtemp(prefix="repro-trace-") \
            if tracer.enabled else None

        def trace_path(fingerprint: str) -> str | None:
            if trace_dir is None:
                return None
            return os.path.join(trace_dir, f"{fingerprint[:16]}.jsonl")

        todo = deque(queue)
        pool = WorkerPool(_execute_task_traced, mem_limit_mb=self.mem_limit_mb)
        try:
            for _ in range(min(self.jobs, len(queue))):
                pool.fork()
            while todo or any(worker.job is not None
                              for worker in pool.workers):
                for worker in pool.workers:
                    if worker.job is None and todo:
                        worker.job = todo.popleft()
                        try:
                            worker.conn.send((queue[worker.job],
                                              trace_path(worker.job)))
                        except OSError:
                            pass  # a dead worker: its EOF is read below
                for conn in wait([worker.conn for worker in pool.workers]):
                    worker = next(worker for worker in pool.workers
                                  if worker.conn is conn)
                    fingerprint, worker.job = worker.job, None
                    try:
                        run = conn.recv()
                    except (EOFError, OSError):  # dead, even mid-message
                        pool.reap(worker)
                        pool.fork()
                        for name in ("resilience.worker_deaths",
                                     "resilience.pool_rebuilds"):
                            tracer.metrics.counter(name).inc()
                        tracer.event("pool_rebuild", task=fingerprint)
                        logger.warning("worker died (task %s); replaced",
                                       fingerprint)
                        if fingerprint is None:
                            continue  # an idle worker's death costs no task
                        # A killed worker leaves no exception object;
                        # abnormal death is transient by definition.
                        if supervisor.note_failure(f"task.{fingerprint[:16]}",
                                                   transient=True):
                            todo.append(fingerprint)
                            continue
                        run = aborted_run(queue[fingerprint], "ERROR", 0.0)
                    else:
                        if trace_dir is not None:
                            tracer.absorb(trace_path(fingerprint),
                                          parent_id=parent_id)
                    results[fingerprint] = self._finish(
                        fingerprint, queue[fingerprint], run)
        finally:
            pool.stop()
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
        return results

    def _finish(self, fingerprint: str, task: Task,
                run: InstanceRun) -> InstanceRun:
        """Persist one fresh result as soon as it exists.

        :func:`repro.runner.store.put_with_retry` decides what is cached
        and retries failed appends; a result that ultimately cannot be
        persisted is returned anyway — dropped from the cache, never from
        the batch — with the failure counted on
        ``resilience.store_errors``.
        """
        put_with_retry(self.store, task, run,
                       get_tracer().metrics.counter("resilience.store_errors"))
        return run
