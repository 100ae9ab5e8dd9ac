"""Retry policy and supervision for the execution layers.

A :class:`RetryPolicy` is a frozen description of *how much* failure to
tolerate: attempts per task, a shared budget per batch, and an exponential
backoff curve with deterministic jitter (derived from ``(seed, key,
attempt)`` rather than a global RNG, so reruns reproduce byte-identical
schedules).  A :class:`Supervisor` applies one policy to a stream of
failures: callers report each failure with :meth:`Supervisor.note_failure`
and get back the retry decision, already classified through
:func:`repro.errors.is_transient` and already slept through the backoff.

Every granted retry and every give-up is emitted on the active
:mod:`repro.obs` tracer (``resilience.retries`` counter, ``retry`` /
``give_up`` events) so degraded runs stay visible in ``repro trace report``.
"""

from __future__ import annotations

import hashlib
import logging
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.errors import is_transient
from repro.obs import get_tracer

__all__ = ["RetryPolicy", "Supervisor", "no_retry"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """How much failure to tolerate, and how fast to come back.

    ``max_attempts`` counts total tries per key (1 = never retry).
    ``batch_budget`` caps retries *granted across all keys* by one
    supervisor, bounding the worst case of a batch where everything fails.
    Backoff for attempt *n* is ``base * factor**(n-1)`` clamped to
    ``backoff_max``, scaled by a deterministic jitter in
    ``[1-jitter, 1+jitter]``.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    batch_budget: int | None = 64
    seed: int = 0

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``key``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** (attempt - 1))
        if not self.jitter:
            return base
        digest = hashlib.sha256(
            f"{self.seed}/{key}/{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF  # [0, 1]
        return max(0.0, base * (1.0 + self.jitter * (2.0 * unit - 1.0)))


def no_retry() -> RetryPolicy:
    """A policy that classifies but never retries."""
    return RetryPolicy(max_attempts=1, batch_budget=0)


class Supervisor:
    """Apply one :class:`RetryPolicy` to a stream of keyed failures.

    Not thread-safe; intended to live in the coordinating (parent) process.
    ``sleep`` is injectable so tests can run backoff schedules instantly.
    """

    def __init__(self, policy: RetryPolicy | None = None, *,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        self._attempts: Counter[str] = Counter()
        self.retries_granted = 0
        self.gave_up: list[str] = []

    def attempts(self, key: str) -> int:
        """Failures recorded so far for ``key``."""
        return self._attempts[key]

    @property
    def budget_left(self) -> int | None:
        if self.policy.batch_budget is None:
            return None
        return max(0, self.policy.batch_budget - self.retries_granted)

    def note_failure(self, key: str, error: BaseException | None = None, *,
                     transient: bool | None = None, wait: bool = True) -> bool:
        """Record one failure of ``key``; return True iff a retry is granted.

        When granted, the backoff delay has already been slept by the time
        this returns, so the caller can re-execute immediately.  ``transient``
        overrides classification for failures with no exception object
        (e.g. a silently dead worker — transient by definition).  Callers
        that must not block (the server's event loop) pass ``wait=False``
        and schedule the retry after ``policy.delay(attempt, key)``
        themselves.
        """
        self._attempts[key] += 1
        attempt = self._attempts[key]
        if transient is None:
            transient = True if error is None else is_transient(error)
        tracer = get_tracer()
        if (not transient or attempt >= self.policy.max_attempts
                or (self.policy.batch_budget is not None
                    and self.retries_granted >= self.policy.batch_budget)):
            reason = ("permanent" if not transient
                      else "attempts" if attempt >= self.policy.max_attempts
                      else "budget")
            self.gave_up.append(key)
            tracer.event("give_up", key=key, attempt=attempt, reason=reason,
                         error=repr(error) if error is not None else None)
            return False
        self.retries_granted += 1
        tracer.metrics.counter("resilience.retries").inc()
        delay = self.policy.delay(attempt, key)
        tracer.event("retry", key=key, attempt=attempt, delay=round(delay, 4),
                     error=repr(error) if error is not None else None)
        logger.warning("retrying %s (attempt %d/%d) after %.2fs: %r",
                       key, attempt + 1, self.policy.max_attempts, delay,
                       error)
        if wait and delay > 0:
            self._sleep(delay)
        return True

    def call(self, fn: Callable[[], object], key: str):
        """Run ``fn`` under this supervisor, retrying transient failures."""
        while True:
            try:
                return fn()
            except Exception as error:
                if not self.note_failure(key, error):
                    raise
