"""Fault tolerance for the execution layers.

``repro.resilience`` is the supervision substrate under the batch runner,
the portfolio racer and the solver backends:

* :mod:`~repro.resilience.policy` — :class:`RetryPolicy` (bounded retries,
  exponential backoff with deterministic jitter, per-batch budgets) and
  :class:`Supervisor`, which applies one policy to a stream of classified
  failures;
* :mod:`~repro.resilience.watchdog` — per-process memory ceilings and
  wall-clock deadlines that convert OOM/hang into clean ``MEMOUT`` /
  ``TIMEOUT`` statuses;
* :mod:`~repro.resilience.pool` — :class:`WorkerPool`, the forked
  one-pipe workers of the batch runner, the solve server and the
  portfolio (imported from its module, not re-exported here);
* :mod:`~repro.resilience.chaos` — deterministic fault injection
  (``REPRO_CHAOS``) used by ``tests/resilience`` and the chaos CI jobs to
  prove every recovery path.

Error classification lives in :mod:`repro.errors`
(:class:`~repro.errors.TransientError` / :class:`~repro.errors.PermanentError`
mixins, :func:`~repro.errors.is_transient`); everything here emits its
retries, fallbacks and worker deaths as :mod:`repro.obs` events and
``resilience.*`` counters so degraded runs are visible in
``repro trace report``.
"""

from repro.errors import (PermanentError, ResourceLimitExceeded,
                          TransientError, is_transient)
from repro.resilience.chaos import (CHAOS_ENV, NULL_CHAOS, ChaosMonkey,
                                    ChaosSpec, format_spec, get_chaos,
                                    parse_spec, set_chaos, use_chaos)
from repro.resilience.policy import RetryPolicy, Supervisor, no_retry
from repro.resilience.watchdog import (Watchdog, current_rss_mb, get_watchdog,
                                       install_worker_limits, set_rlimit_mb,
                                       set_watchdog, use_watchdog)

__all__ = [
    "RetryPolicy",
    "Supervisor",
    "no_retry",
    "Watchdog",
    "current_rss_mb",
    "set_rlimit_mb",
    "get_watchdog",
    "set_watchdog",
    "use_watchdog",
    "install_worker_limits",
    "ChaosSpec",
    "ChaosMonkey",
    "NULL_CHAOS",
    "CHAOS_ENV",
    "parse_spec",
    "format_spec",
    "get_chaos",
    "set_chaos",
    "use_chaos",
    "TransientError",
    "PermanentError",
    "ResourceLimitExceeded",
    "is_transient",
]
