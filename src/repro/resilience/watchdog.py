"""Per-process resource watchdogs: soft memory ceilings and deadlines.

A :class:`Watchdog` converts resource exhaustion into *clean statuses*
instead of pool-level failures: its :meth:`~Watchdog.check` raises
:class:`repro.errors.ResourceLimitExceeded` carrying ``"MEMOUT"`` (RSS over
the soft ceiling) or ``"TIMEOUT"`` (wall-clock deadline passed), which the
solver catches at its progress hook and returns as a terminal
:class:`~repro.sat.solver.SolveResult` status.

The soft RSS check is the primary mechanism; :func:`set_rlimit_mb`
additionally installs a *hard* ``RLIMIT_AS`` ceiling with headroom above
the soft limit, so a runaway allocation between two progress samples
surfaces as a catchable :class:`MemoryError` rather than an OOM kill.

Like the tracer, the active watchdog is process-global
(:func:`set_watchdog` / :func:`get_watchdog`) — but deliberately *without*
a pid check: portfolio workers are forked from the parent and are exactly
the processes the limit is meant to police, so inheritance is the point.
Pool workers given a ``mem_limit_mb`` (:mod:`repro.resilience.pool`; the
runner's and the server's, which do not fork per task) install their own
via :func:`install_worker_limits` as they start.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable

from repro.errors import ResourceLimitExceeded

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

__all__ = [
    "WATCHDOG_PROGRESS_INTERVAL",
    "Watchdog",
    "current_rss_mb",
    "set_rlimit_mb",
    "get_watchdog",
    "set_watchdog",
    "use_watchdog",
    "install_worker_limits",
]

_MB = 1024 * 1024

#: Hard RLIMIT_AS is set this factor above the soft RSS ceiling, so the
#: soft watchdog (clean MEMOUT) normally trips first.
RLIMIT_HEADROOM = 1.5

#: Conflict interval for solver progress sampling while a watchdog is
#: armed: tighter than the tracing default so a ceiling trips within a
#: fraction of a second of the violation.
WATCHDOG_PROGRESS_INTERVAL = 256


def current_rss_mb() -> float:
    """Resident set size of this process in MiB (best effort).

    Reads ``/proc/self/statm`` where available (Linux); falls back to
    ``getrusage`` peak RSS; returns 0.0 when neither works, which disables
    memory ceilings rather than killing healthy runs.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE") / _MB
    except (OSError, ValueError, IndexError):
        pass
    if resource is not None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return rss / _MB if rss > 1 << 30 else rss / 1024
    return 0.0


def set_rlimit_mb(mem_limit_mb: float,
                  headroom: float = RLIMIT_HEADROOM) -> bool:
    """Install a hard ``RLIMIT_AS`` ceiling above the soft limit.

    Best effort: returns False (and changes nothing) where rlimits are
    unsupported or the current hard limit is already lower.
    """
    if resource is None or mem_limit_mb <= 0:
        return False
    ceiling = int(mem_limit_mb * headroom * _MB)
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY and hard < ceiling:
            ceiling = hard
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, hard))
        return True
    except (OSError, ValueError):  # pragma: no cover - platform dependent
        return False


class Watchdog:
    """Periodic resource check raising clean MEMOUT/TIMEOUT trips.

    Designed to be called from the solver's progress hook (every few
    thousand conflicts): cheap enough to run often, frequent enough that a
    trip lands within a fraction of a second of the violation.
    """

    def __init__(self, mem_limit_mb: float | None = None,
                 deadline_s: float | None = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 rss_fn: Callable[[], float] = current_rss_mb) -> None:
        if mem_limit_mb is None and deadline_s is None:
            raise ValueError("Watchdog needs a memory limit or a deadline")
        self.mem_limit_mb = mem_limit_mb
        self._clock = clock
        self._rss_fn = rss_fn
        self.deadline = clock() + deadline_s if deadline_s is not None else None

    def check(self) -> None:
        """Raise :class:`ResourceLimitExceeded` if a ceiling is crossed."""
        if self.mem_limit_mb is not None:
            rss = self._rss_fn()
            if rss > self.mem_limit_mb:
                raise ResourceLimitExceeded(
                    f"RSS {rss:.0f} MiB over soft ceiling "
                    f"{self.mem_limit_mb:.0f} MiB", status="MEMOUT")
        if self.deadline is not None and self._clock() > self.deadline:
            raise ResourceLimitExceeded("wall-clock deadline passed",
                                        status="TIMEOUT")

    def hook(self, snapshot=None) -> None:
        """Progress-callback adapter: ignores the snapshot, just checks."""
        self.check()


#: Process-global active watchdog (None = no limits).  Inherited by forked
#: children on purpose — see module docstring.
_active: Watchdog | None = None


def get_watchdog() -> Watchdog | None:
    return _active


def set_watchdog(watchdog: Watchdog | None) -> Watchdog | None:
    """Install ``watchdog`` process-globally; return the previous one."""
    global _active
    previous = _active
    _active = watchdog
    return previous


@contextmanager
def use_watchdog(watchdog: Watchdog | None):
    """Install ``watchdog`` for the duration of the ``with`` block."""
    previous = set_watchdog(watchdog)
    try:
        yield watchdog
    finally:
        set_watchdog(previous)


def install_worker_limits(mem_limit_mb: float | None) -> None:
    """Pool-worker setup: arm the rlimit and the soft watchdog."""
    if mem_limit_mb is None or mem_limit_mb <= 0:
        return
    set_rlimit_mb(mem_limit_mb)
    set_watchdog(Watchdog(mem_limit_mb=mem_limit_mb))
