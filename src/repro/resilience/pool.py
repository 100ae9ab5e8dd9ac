"""Pre-forked workers, one pipe each: the one worker model of the repo.

Every worker process in ``repro`` is forked here.  The batch runner
(:class:`repro.runner.batch.BatchRunner`), the solve server
(:class:`repro.server.service.SolveService`) and the parallel portfolio
(:mod:`repro.sat.portfolio`) each run their work on a
:class:`WorkerPool`.  Each worker owns one duplex pipe and loops:
receive a message, send back ``target(message)``.  A worker is either
idle or owns exactly one job, so EOF on its pipe names the one job that
was lost when it died (SIGKILL, OOM killer, segfault); the owner reaps
that worker and decides what the loss costs: the runner and the server
fork one replacement and retry only that job under its supervisor
(:data:`CRASH_POLICY` by default), the portfolio races on with the
survivors.  Every other worker runs on untouched.

Workers are forked, so they inherit the registered pipelines and the
chaos and trace state of their parent.  They are not daemonic, because a
task may fork portfolio workers of its own; :meth:`WorkerPool.stop`
therefore kills and joins them, and also runs at interpreter exit so a
parent that dies between ``fork`` and ``stop`` still exits.
"""

from __future__ import annotations

import atexit
import multiprocessing
import signal
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Callable

from repro.resilience.policy import RetryPolicy
from repro.resilience.watchdog import install_worker_limits

__all__ = ["CRASH_POLICY", "FORK_CONTEXT", "Worker", "WorkerPool"]

#: Retry budget for the job of a worker that died, when the caller does
#: not supply its own supervisor.
CRASH_POLICY = RetryPolicy(max_attempts=3, backoff_base=0.1, backoff_max=2.0)

#: The start method of every worker; also builds the queues that workers
#: share (the portfolio's clause bus).
FORK_CONTEXT = multiprocessing.get_context("fork")


def _worker_main(conn: Connection, inherited: list[Connection],
                 target: Callable[[Any], Any],
                 mem_limit_mb: float | None) -> None:
    """A worker's life: receive a message, send back its result, repeat.

    Runs in the forked child.  It closes the copies of the parent's pipe
    ends it inherited, so it sees EOF, and exits, once the parent is gone.
    It also takes back the signal dispositions its parent may have
    replaced: SIGTERM stops it, and SIGINT is left to the parent, which
    then kills its workers.
    """
    for other in inherited:
        other.close()
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    install_worker_limits(mem_limit_mb)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        conn.send(target(message))


@dataclass(eq=False)  # identity semantics: workers are found by identity
class Worker:
    """One forked worker process and the parent's end of its pipe."""

    process: BaseProcess
    conn: Connection
    job: Any = None     # what the worker runs, or is held for; None = idle


class WorkerPool:
    """Forks, reaps and stops the workers that run ``target``.

    ``mem_limit_mb`` arms every worker's memory watchdog and hard rlimit
    (:func:`repro.resilience.watchdog.install_worker_limits`).  The pool
    only manages processes; its owner decides what each worker runs.
    """

    def __init__(self, target: Callable[[Any], Any], *,
                 mem_limit_mb: float | None = None) -> None:
        self.target = target
        self.mem_limit_mb = mem_limit_mb
        self.workers: list[Worker] = []

    def fork(self) -> Worker:
        """Fork one more worker and return it, idle."""
        ours, theirs = FORK_CONTEXT.Pipe()
        inherited = [ours] + [worker.conn for worker in self.workers]
        process = FORK_CONTEXT.Process(
            target=_worker_main, name="repro-worker",
            args=(theirs, inherited, self.target, self.mem_limit_mb))
        process.start()
        theirs.close()
        if not self.workers:
            # Runs before multiprocessing's own exit hook, which would
            # join workers still blocked on a pipe this process holds.
            atexit.register(self.stop)
        worker = Worker(process, ours)
        self.workers.append(worker)
        return worker

    def reap(self, worker: Worker) -> None:
        """Kill ``worker``, close its pipe and wait for its exit.

        SIGKILL, not SIGTERM: a worker forked after its parent took over
        SIGTERM ignores it until it has reset the disposition.
        """
        self.workers.remove(worker)
        worker.process.kill()
        worker.conn.close()
        worker.process.join()

    def stop(self) -> None:
        """Reap every worker: none outlives the pool."""
        atexit.unregister(self.stop)
        for worker in list(self.workers):
            self.reap(worker)
