"""Tests for the retry policy and supervisor (repro.resilience.policy)."""

import pytest

from repro.errors import (
    BackendError,
    BackendUnavailableError,
    CnfError,
    ResourceLimitExceeded,
    is_transient,
)
from repro.resilience import RetryPolicy, Supervisor, no_retry


class TestClassification:
    def test_domain_errors_are_permanent(self):
        assert not is_transient(CnfError("bad clause"))
        assert not is_transient(ValueError("nonsense"))

    def test_infrastructure_errors_are_transient(self):
        assert is_transient(OSError("pipe broke"))
        assert is_transient(MemoryError())
        assert is_transient(BackendError("binary crashed"))
        assert is_transient(ResourceLimitExceeded("rss over ceiling"))

    def test_permanent_mixin_wins_over_transient_base(self):
        # BackendUnavailableError subclasses BackendError (transient) but is
        # marked permanent: a missing binary never fixes itself by retrying.
        assert not is_transient(BackendUnavailableError("no such binary"))

    def test_unknown_exceptions_default_to_permanent(self):
        class Weird(Exception):
            pass

        assert not is_transient(Weird())


class TestRetryPolicy:
    def test_backoff_grows_and_clamps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.5, jitter=0.0)
        delays = [policy.delay(attempt) for attempt in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0,
                             backoff_max=10.0, jitter=0.25, seed=7)
        first = policy.delay(1, "task.x")
        assert first == policy.delay(1, "task.x")  # same inputs, same delay
        assert 0.75 <= first <= 1.25
        assert policy.delay(1, "task.y") != first  # keyed jitter

    def test_delay_rejects_nonpositive_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_no_retry_policy(self):
        supervisor = Supervisor(no_retry(), sleep=lambda _: None)
        assert not supervisor.note_failure("k", OSError("transient"))


class TestSupervisor:
    def _supervisor(self, **kwargs):
        slept = []
        policy = RetryPolicy(max_attempts=3, backoff_base=0.01,
                             jitter=0.0, **kwargs)
        return Supervisor(policy, sleep=slept.append), slept

    def test_grants_then_exhausts_attempts(self):
        supervisor, slept = self._supervisor()
        assert supervisor.note_failure("k", OSError())
        assert supervisor.note_failure("k", OSError())
        assert not supervisor.note_failure("k", OSError())  # 3rd attempt
        assert supervisor.retries_granted == 2
        assert supervisor.gave_up == ["k"]
        assert len(slept) == 2

    def test_denies_permanent_errors_immediately(self):
        supervisor, slept = self._supervisor()
        assert not supervisor.note_failure("k", ValueError("permanent"))
        assert supervisor.retries_granted == 0
        assert slept == []

    def test_batch_budget_is_shared_across_keys(self):
        supervisor, _ = self._supervisor(batch_budget=2)
        assert supervisor.note_failure("a", OSError())
        assert supervisor.note_failure("b", OSError())
        assert not supervisor.note_failure("c", OSError())  # budget spent
        assert supervisor.budget_left == 0

    def test_transient_override_for_silent_deaths(self):
        # A SIGKILLed worker leaves no exception object; callers assert
        # transience explicitly.
        supervisor, _ = self._supervisor()
        assert supervisor.note_failure("k", transient=True)

    def test_wait_false_defers_sleep_to_backoff(self):
        supervisor, slept = self._supervisor()
        assert supervisor.note_failure("k", OSError(), wait=False)
        assert slept == []

    def test_call_retries_then_reraises(self):
        supervisor, _ = self._supervisor()
        calls = []

        def flaky():
            calls.append(1)
            raise OSError("still broken")

        with pytest.raises(OSError):
            supervisor.call(flaky, "k")
        assert len(calls) == 3  # max_attempts

    def test_call_returns_on_success_after_retry(self):
        supervisor, _ = self._supervisor()
        attempts = []

        def flaky_once():
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("first time fails")
            return "ok"

        assert supervisor.call(flaky_once, "k") == "ok"
        assert len(attempts) == 2
