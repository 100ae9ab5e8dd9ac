"""Parallel batch execution with per-task hard timeouts and caching.

:class:`BatchRunner` fans :class:`repro.runner.task.Task` objects out across
a :class:`~concurrent.futures.ProcessPoolExecutor`:

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
  breaks the pool, which is detected, rebuilt and the unfinished tasks
  requeued under a bounded, backed-off retry budget
  (:class:`repro.resilience.Supervisor`) instead of aborting the batch;
  tasks whose retries are exhausted become terminal ``ERROR`` runs.  With
  ``mem_limit_mb`` set, every worker arms a soft memory watchdog (plus a
  hard rlimit) so an OOM-bound task ends as a clean ``MEMOUT`` run rather
  than a pool-level crash.  Store appends that fail are retried and, as a
  last resort, dropped *visibly* (``resilience.store_errors`` counter) —
  an unpersistable result never aborts the batch.

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
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.aig.aiger import write_aiger
from repro.aig.sweep import sweep_aig
from repro.cnf import write_dimacs
from repro.core.pipeline import encode_aig, run_pipeline
from repro.core.results import UNCACHED_STATUSES, InstanceRun
from repro.errors import ReproError, ResourceLimitExceeded, is_transient
from repro.obs import Tracer, get_tracer, set_tracer
from repro.resilience.chaos import get_chaos
from repro.resilience.policy import RetryPolicy, Supervisor
from repro.resilience.watchdog import (Watchdog, install_worker_limits,
                                       use_watchdog)
from repro.runner.store import ResultStore, StoreError
from repro.runner.task import Task, TaskError
from repro.sat.configs import SolverConfig
from repro.sat.stats import SolverStats

logger = logging.getLogger(__name__)

#: Retry policy used for worker-death requeues when the caller does not
#: supply a supervisor: bounded pool rebuilds, never an aborted batch.
_CRASH_POLICY = RetryPolicy(max_attempts=3, backoff_base=0.1, backoff_max=2.0)

#: Attempts at persisting one result before it is (visibly) dropped.
_STORE_ATTEMPTS = 3


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
            run = _aborted_run(task, "TIMEOUT", time.perf_counter() - start)
        except ResourceLimitExceeded as trip:
            disarm()
            run = _aborted_run(task, trip.status, time.perf_counter() - start)
        except MemoryError:
            # The hard rlimit backstop tripped outside the solver loop
            # (the soft watchdog converts in-loop trips itself).
            disarm()
            run = _aborted_run(task, "MEMOUT", time.perf_counter() - start)
        except Exception as error:
            disarm()
            logger.exception("task %s/%s failed", task.instance_name,
                             task.pipeline)
            text = str(error) if isinstance(error, ReproError) \
                else f"{type(error).__name__}: {error}"
            run = _aborted_run(task, "ERROR", time.perf_counter() - start,
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
        run.output = {}  # finished; a solve's artefacts are its record
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


def _execute_task_traced(task: Task, trace_path: str | None) -> InstanceRun:
    """Pool entry point: run the task under its own per-process tracer.

    Pool workers cannot share the parent's tracer (see
    :func:`repro.obs.get_tracer`); each task writes its spans to its own
    JSONL file, which the parent absorbs as the future completes.
    """
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


def _aborted_run(task: Task, status: str, elapsed: float,
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
    retries of tasks whose worker died or which failed transiently (pool
    crashes are always survived — without a supervisor a conservative
    default policy covers worker-death requeues).  ``mem_limit_mb`` arms a
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
                    # are not deduplicated either.  The synthetic key never
                    # reaches the store (see _finish).
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
        """Fan ``queue`` out across worker pools until every task is terminal.

        A pool whose worker dies abnormally (SIGKILL, segfault, OOM killer)
        is broken beyond reuse: every pending future fails at once, so one
        crash cannot identify its culprit.  Every unfinished task of the
        broken generation is charged one attempt against the supervisor
        (and the batch budget), the pool is rebuilt and the survivors
        requeued.  Tasks down to their *last* attempt are then quarantined
        into solo single-task generations — a crash there charges exactly
        the task that caused it, so a persistently crashing task cannot
        burn its siblings' final attempts.  Tasks denied a retry become
        terminal ``ERROR`` runs; the batch itself always completes.
        """
        results: dict[str, InstanceRun] = {}
        supervisor = self.supervisor or Supervisor(_CRASH_POLICY)
        tracer = get_tracer()
        parent = tracer.current_span
        parent_id = parent.span_id if parent is not None else None
        trace_dir = tempfile.mkdtemp(prefix="repro-trace-") \
            if tracer.enabled else None

        def key(fingerprint: str) -> str:
            return f"task.{fingerprint[:16]}"

        last_attempt = max(1, supervisor.policy.max_attempts - 1)
        try:
            while queue:
                suspect = next(
                    (fingerprint for fingerprint in queue
                     if supervisor.attempts(key(fingerprint)) >= last_attempt),
                    None)
                round_queue = {suspect: queue[suspect]} \
                    if suspect is not None else dict(queue)
                broken = self._pool_round(round_queue, results, supervisor,
                                          tracer, parent_id, trace_dir)
                for fingerprint in list(queue):
                    if fingerprint in results:
                        del queue[fingerprint]
                if not broken:
                    # Tasks still queued were granted in-pool retries; loop.
                    continue
                tracer.metrics.counter("resilience.worker_deaths").inc()
                tracer.metrics.counter("resilience.pool_rebuilds").inc()
                tracer.event("pool_rebuild", pending=len(round_queue))
                logger.warning(
                    "worker died; rebuilding pool with %d unfinished tasks",
                    len(round_queue))
                for fingerprint, task in round_queue.items():
                    # No exception object exists for the killed worker;
                    # abnormal death is transient by definition.
                    if not supervisor.note_failure(key(fingerprint),
                                                   transient=True,
                                                   wait=False):
                        results[fingerprint] = self._finish(
                            fingerprint, task,
                            _aborted_run(task, "ERROR", 0.0))
                        del queue[fingerprint]
                if queue:
                    # One shared backoff for the whole rebuilt generation,
                    # not one per requeued task.
                    supervisor.backoff(key(next(iter(queue))))
        finally:
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
        return results

    def _pool_round(self, queue: dict[str, Task],
                    results: dict[str, InstanceRun], supervisor: Supervisor,
                    tracer: Tracer, parent_id: str | None,
                    trace_dir: str | None) -> bool:
        """Run one pool generation over ``queue``; return True if it broke.

        Completed tasks are popped from ``queue`` into ``results`` as their
        futures resolve.  When the pool breaks, futures that finished before
        the crash but were not yet collected are harvested so a dead worker
        never discards a sibling's completed work.
        """
        futures: dict = {}
        broken = False
        with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(queue)),
                initializer=install_worker_limits,
                initargs=(self.mem_limit_mb,)) as pool:
            for fingerprint, task in queue.items():
                trace_path = os.path.join(
                    trace_dir, f"{fingerprint[:16]}.jsonl") \
                    if trace_dir is not None else None
                future = pool.submit(_execute_task_traced, task, trace_path)
                futures[future] = (fingerprint, trace_path)
            for future in as_completed(futures):
                fingerprint, trace_path = futures[future]
                task = queue[fingerprint]
                try:
                    run = future.result()
                except BrokenProcessPool:
                    broken = True
                    break
                except Exception as exc:
                    # The worker survived but the task's result did not
                    # (pickling failure, lost pipe): supervise it like any
                    # other transient fault.
                    logger.exception("task %s failed in pool",
                                     fingerprint[:16])
                    if (is_transient(exc) and supervisor.note_failure(
                            f"task.{fingerprint[:16]}", exc, wait=False)):
                        continue  # stays queued for the next generation
                    run = _aborted_run(task, "ERROR", 0.0)
                results[fingerprint] = self._finish(fingerprint, task, run)
                del queue[fingerprint]
                if trace_path is not None:
                    tracer.absorb(trace_path, parent_id=parent_id)
        if broken:
            # Harvest results that completed before the pool broke.
            for future, (fingerprint, trace_path) in futures.items():
                if fingerprint not in queue or not future.done():
                    continue
                try:
                    run = future.result()
                except Exception:
                    continue  # this future carries the crash, not a result
                results[fingerprint] = self._finish(fingerprint,
                                                    queue.pop(fingerprint),
                                                    run)
                if trace_path is not None:
                    tracer.absorb(trace_path, parent_id=parent_id)
        return broken

    def _finish(self, fingerprint: str, task: Task,
                run: InstanceRun) -> InstanceRun:
        """Persist one fresh result as soon as it exists.

        ERROR runs are transient (worker crash, resource blip) and MEMOUT
        runs limit-dependent, so both stay out of the store and a resume
        retries them.  Proof-bearing tasks stay out too: serving their
        fingerprint from the cache later would yield a verdict without the
        proof file the requester asked for.  Store appends are themselves
        retried; a result that ultimately cannot be persisted is returned
        anyway — dropped from the cache, never from the batch — with the
        failure counted on ``resilience.store_errors``.
        """
        if self.store is None or run.status in UNCACHED_STATUSES \
                or task.proof is not None:
            return run
        tracer = get_tracer()
        for attempt in range(1, _STORE_ATTEMPTS + 1):
            try:
                self.store.put(fingerprint, run, seed=task.seed())
                return run
            except (StoreError, OSError) as exc:
                tracer.metrics.counter("resilience.store_errors").inc()
                if attempt == _STORE_ATTEMPTS:
                    tracer.event("store_give_up", task=fingerprint[:16],
                                 error=repr(exc))
                    logger.error(
                        "result for %s could not be persisted "
                        "(%d attempts): %r", fingerprint[:16], attempt, exc)
                else:
                    tracer.event("store_retry", task=fingerprint[:16],
                                 attempt=attempt, error=repr(exc))
                    time.sleep(0.01 * attempt)
        return run
