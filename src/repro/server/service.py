"""The solve service: admission control, scheduling and pool supervision.

:class:`SolveService` is the transport-independent heart of ``repro
serve``.  It owns a persistent :class:`~concurrent.futures.
ProcessPoolExecutor` (the batch runner's worker model, kept warm across
requests) and an asyncio scheduler multiplexing accepted jobs onto it.

Robustness properties, in the order a request meets them:

* **Admission control** — a draining server refuses work (503); each
  client spends a token-bucket quota (429 + ``Retry-After`` when empty);
  the bounded queue rejects at ``shed_at`` occupancy ("overloaded") and
  hard-rejects when full ("queue-full"), both with a ``Retry-After``
  derived from recent service times.
* **Dedup / memoization** — submissions are keyed by the job's
  content-hash fingerprint: a result already in the attached store is
  returned without costing a pool slot, and a duplicate of a job
  currently queued or running attaches to that job instead of spawning a
  second execution.  Proof-bearing jobs bypass both directions, matching
  the batch runner's cache semantics.
* **Supervision** — a worker death (OOM kill, segfault, chaos) breaks
  the pool; the service rebuilds it and requeues the victim under a
  bounded :class:`repro.resilience.Supervisor` budget.  A job whose
  retries are exhausted ends as a terminal ``ERROR`` result — an
  accepted job always reaches a terminal state, it is never silently
  lost.
* **Load-shedding ladder** — (1) new work is shed at high occupancy;
  (2) when the queue is full *and* its head has waited longer than
  ``queue_wait_limit``, queued jobs are cancelled newest-first to shed
  real load; (3) :meth:`shutdown` (SIGTERM) stops intake, cancels the
  queue, and drains in-flight jobs within a grace budget before
  terminating what remains.

Counters (``server.accepted`` / ``server.shed`` / ``server.dedup_hits``
/ ``server.active`` …) land in the :mod:`repro.obs` metrics registry and
are exposed by the HTTP layer's ``/metricsz``.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.results import UNCACHED_STATUSES
from repro.errors import ReproError
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.resilience.chaos import get_chaos
from repro.resilience.policy import RetryPolicy, Supervisor
from repro.resilience.watchdog import install_worker_limits
from repro.runner.store import StoreError
from repro.runner.task import SCHEMA_VERSION, Task, default_hard_timeout
from repro.server.jobs import execute_job

__all__ = [
    "AdmissionError",
    "Job",
    "SolveService",
    "TokenBucket",
]

logger = logging.getLogger(__name__)

#: Worker-death retry budget per job (mirrors the batch runner's policy).
_CRASH_POLICY = RetryPolicy(max_attempts=3, backoff_base=0.1,
                            backoff_max=2.0)

#: Attempts at persisting one result before dropping it visibly.
_STORE_ATTEMPTS = 3

#: Version tag inside server store records (next to the task schema).
SERVER_RECORD_VERSION = 1

#: Terminal job states.
TERMINAL_STATES = ("done", "cancelled")


def _warm_worker() -> None:
    """Pool warm-up task (must be a picklable module-level function)."""
    return None


class AdmissionError(ReproError):
    """A submission was refused at the door (429/503)."""

    def __init__(self, message: str, reason: str, status: int = 429,
                 retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.reason = reason
        self.status = status
        self.retry_after = retry_after


class TokenBucket:
    """Per-client quota: ``rate`` tokens/s, bursting to ``burst``."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._stamp = clock()

    def take(self) -> float:
        """Spend one token; return 0.0, or the seconds until one exists."""
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        if self.rate <= 0:
            return float("inf")
        return (1.0 - self._tokens) / self.rate


@dataclass(eq=False)  # identity semantics: jobs live in sets/dicts
class Job:
    """One accepted submission, from admission to terminal state."""

    id: str
    task: Task
    fingerprint: str
    client: str
    state: str = "queued"                    # queued | running | done | cancelled
    cached: bool = False                     # served from store / live dedup
    result: dict | None = None
    reason: str | None = None                # cancellation reason
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class SolveService:
    """Admission control + scheduler + supervised pool, transport-free.

    ``clock`` is injectable so quota and queue-age tests run instantly;
    everything observable (metrics, job states) is exercised without a
    single real sleep.
    """

    def __init__(self, jobs: int = 2, *, max_queue: int = 64,
                 shed_at: float = 0.75, queue_wait_limit: float = 30.0,
                 quota_rate: float = 50.0, quota_burst: float = 100.0,
                 time_limit: float = 60.0, hard_timeout: float | None = None,
                 mem_limit_mb: float | None = None, store=None,
                 max_finished: int = 4096,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.jobs = max(1, jobs)
        self.max_queue = max_queue
        self.shed_at = shed_at
        self.queue_wait_limit = queue_wait_limit
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.default_time_limit = time_limit
        self.default_hard_timeout = hard_timeout
        self.default_mem_limit_mb = mem_limit_mb
        self.store = store
        self.clock = clock
        self.draining = False
        tracer = get_tracer()
        self.metrics = tracer.metrics if tracer.enabled else MetricsRegistry()
        self.supervisor = Supervisor(_CRASH_POLICY, sleep=lambda _s: None)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_generation = 0
        self._pool_lock: asyncio.Lock | None = None
        self._queue: deque[Job] = deque()
        self._queue_kick: asyncio.Event | None = None
        self._active: set[Job] = set()
        self._tasks: dict[str, asyncio.Task] = {}
        self._inflight: dict[str, Job] = {}
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._buckets: dict[str, TokenBucket] = {}
        self._max_finished = max_finished
        self._counter = 0
        self._scheduler: asyncio.Task | None = None
        self._service_times: deque[float] = deque(maxlen=32)

    # ------------------------------------------------------------------ #
    # Lifecycle

    async def start(self) -> None:
        """Build the pool and start the scheduler (idempotent)."""
        if self._scheduler is not None:
            return
        self._pool_lock = asyncio.Lock()
        self._queue_kick = asyncio.Event()
        if self._queue:  # submissions accepted before start
            self._queue_kick.set()
        self._build_pool()
        self._scheduler = asyncio.get_running_loop().create_task(
            self._schedule(), name="repro-server-scheduler")

    def _build_pool(self) -> None:
        initializer = None
        initargs: tuple = ()
        if self.default_mem_limit_mb:
            initializer = install_worker_limits
            initargs = (self.default_mem_limit_mb,)
        self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                         initializer=initializer,
                                         initargs=initargs)
        self._pool_generation += 1
        # Fork the workers NOW, not lazily on first submit: a worker forked
        # mid-request inherits every open fd — including accepted client
        # sockets, which then never see EOF when the server closes them.
        for _ in range(self.jobs):
            self._pool.submit(_warm_worker)

    async def _ensure_pool(self, broken_generation: int) -> None:
        """Replace a broken pool exactly once per generation."""
        assert self._pool_lock is not None
        async with self._pool_lock:
            if self._pool_generation != broken_generation:
                return  # someone else already rebuilt it
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            self._build_pool()
            self.metrics.counter("server.pool_rebuilds").inc()
            logger.warning("worker pool died; rebuilt (generation %d)",
                           self._pool_generation)

    async def shutdown(self, grace: float = 10.0) -> None:
        """Graceful drain: stop intake, cancel queued, bound in-flight.

        The final rung of the shedding ladder and the SIGTERM handler.
        Every queued job becomes terminal ``CANCELLED``; in-flight jobs
        get ``grace`` seconds to finish before being force-cancelled.
        Always leaves the pool stopped.
        """
        self.draining = True
        for job in list(self._queue):
            self._cancel_job(job, "shutdown")
        self._queue.clear()
        if self._queue_kick is not None:
            self._queue_kick.set()
        pending = [task for task in self._tasks.values() if not task.done()]
        forced = False
        if pending:
            done, not_done = await asyncio.wait(pending, timeout=grace)
            forced = bool(not_done)
            for task in not_done:
                task.cancel()
            if not_done:
                await asyncio.wait(not_done, timeout=1.0)
        for job in list(self._active):
            # A job still active past the grace budget is force-terminated.
            self._cancel_job(job, "shutdown-deadline")
        self._active.clear()
        if forced and self._pool is not None:
            # Workers may still be grinding on force-cancelled jobs; they
            # must not block process exit past the grace budget.
            try:
                for proc in list(getattr(self._pool, "_processes",
                                         {}).values()):
                    proc.terminate()
            except Exception:  # pragma: no cover - interpreter differences
                pass
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except (asyncio.CancelledError, Exception):
                pass
            self._scheduler = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        logger.info("service drained: %d jobs served",
                    self._counter)

    # ------------------------------------------------------------------ #
    # Admission

    def _effective(self, task: Task) -> Task:
        """Apply the server's default budgets to an incoming task."""
        time_limit = task.time_limit
        if time_limit is None:
            time_limit = self.default_time_limit
        hard_timeout = task.hard_timeout
        if hard_timeout is None:
            hard_timeout = self.default_hard_timeout
        if hard_timeout is None:
            hard_timeout = default_hard_timeout(time_limit)
        mem_limit = task.mem_limit_mb
        if mem_limit is None:
            mem_limit = self.default_mem_limit_mb
        # replace() would copy the fingerprint cached before the budgets.
        return replace(task, time_limit=time_limit,
                       hard_timeout=hard_timeout, mem_limit_mb=mem_limit,
                       _fingerprint=None)

    def _retry_after(self) -> float:
        """Backpressure hint: roughly one queue drain at recent speed."""
        if not self._service_times:
            return 1.0
        mean = sum(self._service_times) / len(self._service_times)
        backlog = max(1, len(self._queue))
        return round(min(30.0, max(0.1, mean * backlog / self.jobs)), 3)

    def submit(self, task: Task, client: str = "anonymous") -> tuple[Job, str]:
        """Admit one task; returns ``(job, outcome)`` or raises.

        ``outcome`` is ``"accepted"`` (job queued), ``"cached"`` (store
        memo hit — the returned job is already terminal), or ``"dedup"``
        (attached to an identical queued/running job).  Raises
        :class:`AdmissionError` (429/503) when the door is closed.

        Synchronous on purpose — admission never awaits, so tests drive
        the whole door (quota, dedup, ladder) without an event loop, and
        the HTTP layer can wrap it in a span with no interleaving.
        Submissions made before :meth:`start` simply wait in the queue.
        """
        if self.draining:
            raise AdmissionError("server is draining", reason="draining",
                                 status=503, retry_after=5.0)
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.quota_rate, self.quota_burst,
                                 clock=self.clock)
            self._buckets[client] = bucket
        wait = bucket.take()
        if wait > 0:
            self.metrics.counter("server.shed").inc()
            raise AdmissionError(
                f"quota exhausted for client {client!r}", reason="quota",
                retry_after=round(min(wait, 30.0), 3))
        task = self._effective(task)
        fingerprint = task.fingerprint()
        if task.proof is None:
            record = self._lookup(fingerprint)
            if record is not None:
                job = self._new_job(task, fingerprint, client)
                job.cached = True
                self._settle(job, "done", dict(record["result"]))
                self.metrics.counter("server.dedup_hits").inc()
                return job, "cached"
            live = self._inflight.get(fingerprint)
            if live is not None and not live.terminal:
                self.metrics.counter("server.dedup_hits").inc()
                return live, "dedup"
        occupancy = len(self._queue) + len(self._active)
        if occupancy >= self.max_queue:
            self._shed_stale_queue()
            occupancy = len(self._queue) + len(self._active)
        if occupancy >= self.max_queue:
            self.metrics.counter("server.shed").inc()
            raise AdmissionError("admission queue full", reason="queue-full",
                                 retry_after=self._retry_after())
        if occupancy >= self.shed_at * self.max_queue:
            self.metrics.counter("server.shed").inc()
            raise AdmissionError("server overloaded", reason="overloaded",
                                 retry_after=self._retry_after())
        job = self._new_job(task, fingerprint, client)
        if task.proof is None:
            self._inflight[fingerprint] = job
        self._queue.append(job)
        self.metrics.counter("server.accepted").inc()
        self.metrics.gauge("server.queued").set(len(self._queue))
        if self._queue_kick is not None:
            self._queue_kick.set()
        return job, "accepted"

    def _new_job(self, task: Task, fingerprint: str, client: str) -> Job:
        self._counter += 1
        job = Job(id=f"j{self._counter:06d}-{fingerprint[:8]}", task=task,
                  fingerprint=fingerprint, client=client,
                  submitted_at=self.clock())
        self._jobs[job.id] = job
        while len(self._jobs) > self._max_finished:
            stale_id, stale = next(iter(self._jobs.items()))
            if not stale.terminal:
                break  # never evict a live job
            del self._jobs[stale_id]
        return job

    def _lookup(self, fingerprint: str) -> dict | None:
        """A cacheable server record for ``fingerprint``, if stored."""
        if self.store is None:
            return None
        record = self.store.get_record(fingerprint)
        if (record is None or "result" not in record
                or record.get("server") != SERVER_RECORD_VERSION):
            return None
        return record

    def get_job(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    # ------------------------------------------------------------------ #
    # Shedding ladder, rung 2: cancel queued work that cannot be served

    def _shed_stale_queue(self) -> None:
        """When full and the head has waited past ``queue_wait_limit``,
        cancel from the *newest* end down to the shed threshold."""
        if not self._queue:
            return
        head_wait = self.clock() - self._queue[0].submitted_at
        if head_wait <= self.queue_wait_limit:
            return
        keep = max(1, int(self.shed_at * self.max_queue) - len(self._active))
        while len(self._queue) > keep:
            job = self._queue.pop()
            self._cancel_job(job, "shed")
            self.metrics.counter("server.shed").inc()
        self.metrics.gauge("server.queued").set(len(self._queue))

    def _cancel_job(self, job: Job, reason: str) -> None:
        if job.terminal:
            return
        job.reason = reason
        self._settle(job, "cancelled",
                     {"kind": job.task.kind, "status": "CANCELLED",
                      "error": f"cancelled: {reason}"})
        self.metrics.counter("server.cancelled").inc()

    # ------------------------------------------------------------------ #
    # Scheduling and execution

    async def _schedule(self) -> None:
        assert self._queue_kick is not None
        loop = asyncio.get_running_loop()
        while True:
            while self._queue and len(self._active) < self.jobs:
                job = self._queue.popleft()
                if job.terminal:
                    continue
                job.state = "running"
                job.started_at = self.clock()
                self._active.add(job)
                self.metrics.gauge("server.active").set(len(self._active))
                self.metrics.gauge("server.queued").set(len(self._queue))
                self._tasks[job.id] = loop.create_task(
                    self._run_job(job), name=f"repro-job-{job.id}")
            self._queue_kick.clear()
            if not self._queue or len(self._active) >= self.jobs:
                await self._queue_kick.wait()

    async def _run_job(self, job: Job) -> None:
        """Execute one job on the pool, surviving worker death.

        Exhausting the retry budget produces a terminal ``ERROR`` result;
        nothing accepted ever goes unanswered.
        """
        tracer = get_tracer()
        try:
            while True:
                generation = self._pool_generation
                try:
                    get_chaos().on_pool_submit()
                    assert self._pool is not None
                    future = self._pool.submit(execute_job, job.task)
                    result = await asyncio.wrap_future(future)
                    self._finish_job(job, result)
                    return
                except (BrokenProcessPool, OSError, RuntimeError) as error:
                    if job.terminal:  # cancelled while we were running
                        return
                    self.metrics.counter("server.worker_retries").inc()
                    tracer.event("server_retry", job=job.id,
                                 error=type(error).__name__)
                    retry = self.supervisor.note_failure(
                        job.fingerprint, error, transient=True, wait=False)
                    if isinstance(error, BrokenProcessPool):
                        await self._ensure_pool(generation)
                    if not retry:
                        logger.error("job %s exhausted retries: %s",
                                     job.id, error)
                        self._finish_job(job, {
                            "kind": job.task.kind, "status": "ERROR",
                            "error": f"retries exhausted: {error}"})
                        return
                    attempt = self.supervisor.attempts(job.fingerprint)
                    await asyncio.sleep(
                        self.supervisor.policy.delay(attempt,
                                                     job.fingerprint))
        except asyncio.CancelledError:
            self._cancel_job(job, "shutdown")
            raise
        except Exception:  # noqa: BLE001 - scheduler must survive anything
            logger.exception("job %s failed unexpectedly", job.id)
            self._finish_job(job, {"kind": job.task.kind, "status": "ERROR",
                                   "error": "internal scheduler error"})

    def _finish_job(self, job: Job, result: dict) -> None:
        if job.terminal:
            return
        self._persist(job, result)
        self._settle(job, "done", result)

    def _settle(self, job: Job, state: str, result: dict) -> None:
        """Transition ``job`` to a terminal state and release its slots."""
        job.state = state
        job.result = result
        job.finished_at = self.clock()
        if job.started_at is not None:
            self._service_times.append(job.finished_at - job.started_at)
            self.metrics.histogram("server.latency_ms").observe(
                1000.0 * (job.finished_at - job.submitted_at))
        self._active.discard(job)
        self._tasks.pop(job.id, None)
        if self._inflight.get(job.fingerprint) is job:
            del self._inflight[job.fingerprint]
        self.metrics.gauge("server.active").set(len(self._active))
        if state == "done":
            self.metrics.counter("server.completed").inc()
        job.done_event.set()
        if self._queue_kick is not None:
            self._queue_kick.set()

    def _persist(self, job: Job, result: dict) -> None:
        """Best-effort memoization; a failing store never fails the job."""
        if (self.store is None or job.task.proof is not None
                or result.get("status") in UNCACHED_STATUSES):
            return
        record = {"schema": SCHEMA_VERSION, "task": job.fingerprint,
                  "server": SERVER_RECORD_VERSION, "kind": job.task.kind,
                  "result": result}
        tracer = get_tracer()
        for attempt in range(1, _STORE_ATTEMPTS + 1):
            try:
                self.store.put_record(job.fingerprint, record)
                return
            except (StoreError, OSError) as error:
                self.metrics.counter("server.store_errors").inc()
                if attempt == _STORE_ATTEMPTS:
                    tracer.event("store_give_up", job=job.id,
                                 error=str(error))
                    logger.error("dropping result of %s after %d store "
                                 "attempts: %s", job.id, attempt, error)
                else:
                    tracer.event("store_retry", job=job.id, attempt=attempt)

    # ------------------------------------------------------------------ #
    # Introspection

    def health(self) -> dict:
        """The ``/healthz`` body: one look at the service's vital signs."""
        return {
            "status": "draining" if self.draining else "serving",
            "queued": len(self._queue),
            "active": len(self._active),
            "capacity": self.max_queue,
            "workers": self.jobs,
            "jobs_total": self._counter,
            "pool_generation": self._pool_generation,
        }

    def metrics_snapshot(self) -> dict:
        """The ``/metricsz`` body: the full metrics registry snapshot."""
        return self.metrics.snapshot()
