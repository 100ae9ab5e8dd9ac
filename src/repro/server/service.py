"""The solve service: admission control, dispatch and worker supervision.

:class:`SolveService` is the transport-independent heart of ``repro
serve``.  It owns ``jobs`` forked worker processes, kept warm across
requests, and dispatches accepted jobs to them from the asyncio event
loop.

**Worker model.**  The workers are a
:class:`repro.resilience.pool.WorkerPool`, the one worker model of the
batch runner and the portfolio too: each owns one duplex pipe and loops:
receive a :class:`~repro.runner.task.Task`, run it through
:func:`repro.server.jobs.run_job`, send back the run, which the event
loop stores and answers with.  A worker is either idle or owns exactly
one job, so dispatch is a synchronous "start queued jobs while a worker
is idle", run whenever a job is queued or settles.  The event loop
watches every pipe with ``loop.add_reader``: a job costs one pickle each
way and no executor thread.  Workers are forked in
:meth:`SolveService.start`, before any client socket exists.

Robustness properties, in the order a request meets them:

* **Admission control** — a draining server refuses work (503); each
  client spends a token-bucket quota (429 + ``Retry-After`` when empty);
  the bounded queue rejects at ``shed_at`` occupancy ("overloaded") and
  hard-rejects when full ("queue-full"), both with a ``Retry-After``
  derived from recent service times.  Buckets that have refilled are
  dropped once the map grows past a fixed size, so client ids cannot
  grow it without bound.
* **Dedup / memoization** — submissions are keyed by the job's
  content-hash fingerprint: a run already in the attached store (the
  batch runner's, record for record) is answered like a fresh run
  without costing a worker, and a duplicate of a job currently queued or
  running attaches to that job instead of spawning a second execution.
  Proof-bearing jobs bypass both directions, as in the batch runner.
* **Crash isolation** — EOF or an error on a worker's pipe means that
  worker died (OOM kill, segfault, chaos), even mid-message.  The
  service reaps it, forks one replacement and retries only the victim's
  job under a bounded :class:`repro.resilience.Supervisor` budget; other
  in-flight jobs are untouched.  A job whose retries are exhausted ends
  as a terminal ``ERROR`` result — an accepted job always reaches a
  terminal state, it is never silently lost.
* **Load-shedding ladder** — (1) new work is shed at high occupancy;
  (2) when the queue is full *and* its head has waited longer than
  ``queue_wait_limit``, queued jobs are cancelled newest-first to shed
  real load; (3) :meth:`shutdown` (SIGTERM) stops intake, cancels the
  queue, and drains in-flight jobs within a grace budget before
  force-cancelling what remains.
* **Reaping** — :meth:`shutdown` kills, then joins, every worker,
  including one still running a force-cancelled job, so no worker
  outlives the service and its CPU time is accounted to the server.

Counters (``server.accepted`` / ``server.shed`` / ``server.dedup_hits``
/ ``server.active`` …) and the per-stage latency histograms
(``server.queue_wait_ms`` / ``server.execute_ms`` / ``server.persist_ms``,
which add up to ``server.latency_ms``) land in the :mod:`repro.obs`
metrics registry and are exposed by the HTTP layer's ``/metricsz``.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.results import InstanceRun
from repro.errors import ReproError
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.resilience.chaos import get_chaos
from repro.resilience.policy import Supervisor
from repro.resilience.pool import CRASH_POLICY, Worker, WorkerPool
from repro.runner.batch import aborted_run
from repro.runner.store import put_with_retry, record_to_run
from repro.runner.task import Task, default_hard_timeout
from repro.server.jobs import job_result, run_job

__all__ = [
    "AdmissionError",
    "Job",
    "SolveService",
    "TokenBucket",
]

logger = logging.getLogger(__name__)

#: Terminal job states.
TERMINAL_STATES = ("done", "cancelled")

#: Client quota buckets kept before refilled ones are dropped.
_MAX_BUCKETS = 1024

def _run_job(task: Task) -> InstanceRun:
    """A worker's answer to one task: its run, never an exception."""
    try:
        return run_job(task)
    except Exception as error:  # noqa: BLE001 - answer, never die
        logger.exception("job %s failed in its worker", task.instance_name)
        return aborted_run(task, "ERROR", 0.0,
                           error=f"internal worker error: {error}")


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

    def full(self) -> bool:
        """True once the bucket has refilled: it equals a fresh one."""
        refilled = self._tokens + (self._clock() - self._stamp) * self.rate
        return refilled >= self.burst

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
    _callbacks: list[Callable[["Job"], None]] = field(
        default_factory=list, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_done_callback(self, callback: Callable[["Job"], None]) -> None:
        """Call ``callback(job)`` once, when the job settles."""
        self._callbacks.append(callback)

    def remove_done_callback(self, callback: Callable[["Job"], None]) -> None:
        if callback in self._callbacks:
            self._callbacks.remove(callback)


class SolveService:
    """Admission control + dispatch + supervised workers, transport-free.

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
        self.supervisor = Supervisor(CRASH_POLICY, sleep=lambda _s: None)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool = WorkerPool(_run_job, mem_limit_mb=mem_limit_mb)
        self._pool_generation = 0
        self._queue: deque[Job] = deque()
        self._active: set[Job] = set()
        self._inflight: dict[str, Job] = {}
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._buckets: dict[str, TokenBucket] = {}
        self._bucket_limit = _MAX_BUCKETS
        self._max_finished = max_finished
        self._counter = 0
        self._service_times: deque[float] = deque(maxlen=32)

    # ------------------------------------------------------------------ #
    # Lifecycle

    async def start(self) -> None:
        """Fork the workers and start dispatching (idempotent).

        The workers are forked now, not lazily on first submit: a worker
        forked mid-request inherits every open fd — including accepted
        client sockets, which then never see EOF when the server closes
        them.
        """
        if self._workers:
            return
        self._loop = asyncio.get_running_loop()
        for _ in range(self.jobs):
            self._fork_worker()
        self._pool_generation += 1
        self._dispatch()  # submissions accepted before start

    async def shutdown(self, grace: float = 10.0) -> None:
        """Graceful drain: stop intake, cancel queued, bound in-flight.

        The final rung of the shedding ladder and the SIGTERM handler.
        Every queued job becomes terminal ``CANCELLED``; in-flight jobs
        get ``grace`` seconds to finish before being force-cancelled.
        Always leaves every worker terminated and reaped.
        """
        self.draining = True
        queued, self._queue = self._queue, deque()
        for job in queued:
            self._cancel_job(job, "shutdown")
        if self._active:
            waiters = [asyncio.ensure_future(job.done_event.wait())
                       for job in self._active]
            _done, late = await asyncio.wait(waiters, timeout=grace)
            for waiter in late:
                waiter.cancel()
        for job in list(self._active):
            # Past the grace budget: stopping the workers below
            # terminates the one still running this job.
            self._cancel_job(job, "shutdown-deadline")
        self._stop_workers()
        logger.info("service drained: %d jobs served", self._counter)

    # ------------------------------------------------------------------ #
    # Workers

    @property
    def _workers(self) -> list[Worker]:
        return self._pool.workers

    def _fork_worker(self) -> Worker:
        """Fork one worker and watch its pipe from the event loop."""
        assert self._loop is not None
        worker = self._pool.fork()
        self._loop.add_reader(worker.conn.fileno(), self._on_reply, worker)
        return worker

    def _replace(self, worker: Worker, error: BaseException) -> None:
        """A worker died: reap it, fork its successor, retry its job."""
        assert self._loop is not None
        self._loop.remove_reader(worker.conn.fileno())
        self._pool.reap(worker)
        fresh = self._fork_worker()
        self._pool_generation += 1
        self.metrics.counter("server.pool_rebuilds").inc()
        logger.warning("worker %d died (%s); replaced (generation %d)",
                       worker.process.pid, type(error).__name__,
                       self._pool_generation)
        job = worker.job
        if job is not None and not job.terminal:
            self._retry(fresh, job, error)

    def _stop_workers(self) -> None:
        """Reap every worker: none outlives the service."""
        for worker in self._workers:
            assert self._loop is not None
            self._loop.remove_reader(worker.conn.fileno())
        self._pool.stop()

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

        ``outcome`` is ``"accepted"`` (job queued, or already sent to an
        idle worker), ``"cached"`` (store
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
            if len(self._buckets) >= self._bucket_limit:
                self._drop_full_buckets()
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
            run = record_to_run(self.store.get_record(fingerprint)) \
                if self.store is not None else None
            if run is not None:
                job = self._new_job(task, fingerprint, client)
                job.cached = True
                self._settle(job, "done", job_result(task, run))
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
        self._dispatch()
        return job, "accepted"

    def _drop_full_buckets(self) -> None:
        """Forget every client whose bucket has refilled to ``burst``.

        Client ids are client-controlled, so the map must not keep one
        bucket per id forever; a full bucket is indistinguishable from
        the fresh one a returning client would get.  The next sweep
        waits until the map doubles, so one burst of many active clients
        costs linear, not quadratic, time.
        """
        self._buckets = {client: bucket for client, bucket
                         in self._buckets.items() if not bucket.full()}
        self._bucket_limit = max(_MAX_BUCKETS, 2 * len(self._buckets))

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
    # Dispatch and execution

    def _dispatch(self) -> None:
        """Start queued jobs while a worker is idle."""
        while self._queue:
            worker = next((w for w in self._workers if w.job is None), None)
            if worker is None:
                break
            job = self._queue.popleft()
            if job.terminal:
                continue
            job.state = "running"
            job.started_at = self.clock()
            worker.job = job
            self._active.add(job)
            self.metrics.gauge("server.active").set(len(self._active))
            self.metrics.gauge("server.queued").set(len(self._queue))
            self._send(worker)

    def _send(self, worker: Worker) -> None:
        """Hand ``worker`` its job: one pickle down the pipe."""
        if worker not in self._workers:
            return  # stopped or replaced during a retry's backoff
        job = worker.job
        assert job is not None
        try:
            get_chaos().on_pool_submit()
        except OSError as error:
            self._retry(worker, job, error)
            return
        try:
            worker.conn.send(job.task)
        except OSError as error:
            self._replace(worker, error)

    def _on_reply(self, worker: Worker) -> None:
        """``worker``'s pipe is readable: its job's result, or its death."""
        try:
            run = worker.conn.recv()
        except (EOFError, OSError) as error:  # dead, even mid-message
            self._replace(worker, error)
            return
        job, worker.job = worker.job, None
        assert job is not None
        self._finish_job(job, run)

    def _retry(self, worker: Worker, job: Job, error: BaseException) -> None:
        """Resend ``job`` on ``worker`` after a backoff, within budget.

        Exhausting the retry budget produces a terminal ``ERROR`` result;
        nothing accepted ever goes unanswered.
        """
        self.metrics.counter("server.worker_retries").inc()
        get_tracer().event("server_retry", job=job.id,
                           error=type(error).__name__)
        if not self.supervisor.note_failure(job.fingerprint, error,
                                            transient=True, wait=False):
            logger.error("job %s exhausted retries: %s", job.id, error)
            worker.job = None
            self._finish_job(job, aborted_run(
                job.task, "ERROR", 0.0, error=f"retries exhausted: {error}"))
            return
        worker.job = job  # held for the job while it backs off
        attempt = self.supervisor.attempts(job.fingerprint)
        assert self._loop is not None
        self._loop.call_later(
            self.supervisor.policy.delay(attempt, job.fingerprint),
            self._send, worker)

    def _finish_job(self, job: Job, run: InstanceRun) -> None:
        """Store ``job``'s run (best effort), then answer with its body."""
        if job.terminal:
            return
        executed_at = self.clock()
        put_with_retry(self.store, job.task, run,
                       self.metrics.counter("server.store_errors"))
        self._settle(job, "done", job_result(job.task, run), executed_at)

    def _settle(self, job: Job, state: str, result: dict,
                executed_at: float | None = None) -> None:
        """Transition ``job`` to a terminal state and release its slots.

        A job that ran is timed by stage: ``server.queue_wait_ms`` (submit
        to dispatch), ``server.execute_ms`` (dispatch to its result, or to
        its cancellation) and ``server.persist_ms`` (the store write after
        a result, ``executed_at``), which add up to ``server.latency_ms``.
        Its done-callbacks run last, once the service is consistent again.
        """
        job.state = state
        job.result = result
        job.finished_at = self.clock()
        if job.started_at is not None:
            self._service_times.append(job.finished_at - job.started_at)
            if executed_at is None:
                executed_at = job.finished_at
            else:
                self._observe_ms("server.persist_ms",
                                 job.finished_at - executed_at)
            self._observe_ms("server.queue_wait_ms",
                             job.started_at - job.submitted_at)
            self._observe_ms("server.execute_ms",
                             executed_at - job.started_at)
            self._observe_ms("server.latency_ms",
                             job.finished_at - job.submitted_at)
        self._active.discard(job)
        if self._inflight.get(job.fingerprint) is job:
            del self._inflight[job.fingerprint]
        self.metrics.gauge("server.active").set(len(self._active))
        if state == "done":
            self.metrics.counter("server.completed").inc()
        job.done_event.set()
        self._dispatch()
        callbacks, job._callbacks = job._callbacks, []
        for callback in callbacks:
            try:
                callback(job)
            except Exception:  # noqa: BLE001 - one waiter, not the service
                logger.exception("done-callback of job %s failed", job.id)

    def _observe_ms(self, name: str, seconds: float) -> None:
        self.metrics.histogram(name).observe(1000.0 * seconds)

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
