"""SolveService: admission, quotas, shedding ladder, supervision."""

import asyncio
from dataclasses import replace

import pytest

from repro.cnf import write_dimacs
from repro.benchgen import random_cnf
from repro.resilience.chaos import ChaosSpec, use_chaos
from repro.runner.store import ShardedResultStore, StoreError
from repro.server.jobs import parse_job
from repro.server.service import AdmissionError, SolveService, TokenBucket


def _spec(seed=1, **extra):
    data = {"payload": write_dimacs(random_cnf(10, 34, seed)),
            "name": extra.pop("name", f"cnf-{seed}")}
    data.update(extra)
    return parse_job(data)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


async def _serve(service, coro_fn, grace=10.0):
    """start → body → drain, returning the body's result."""
    await service.start()
    try:
        return await coro_fn()
    finally:
        await service.shutdown(grace=grace)


async def _finish(job, timeout=60.0):
    await asyncio.wait_for(job.done_event.wait(), timeout)
    return job


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.take() == 0.0
        assert bucket.take() == 0.0
        wait = bucket.take()
        assert wait == pytest.approx(1.0)
        clock.now += 1.5
        assert bucket.take() == 0.0

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=FakeClock())
        assert bucket.take() == 0.0
        assert bucket.take() == float("inf")


class TestAdmission:
    """The door is synchronous: no event loop needed to test it."""

    def test_quota_exhaustion_is_a_429_with_retry_after(self):
        clock = FakeClock()
        service = SolveService(quota_rate=1.0, quota_burst=2.0, clock=clock)
        service.submit(_spec(1), client="alice")
        service.submit(_spec(2), client="alice")
        with pytest.raises(AdmissionError) as info:
            service.submit(_spec(3), client="alice")
        assert info.value.reason == "quota"
        assert info.value.status == 429
        assert info.value.retry_after > 0
        # Quotas are per client: bob is unaffected.
        service.submit(_spec(3), client="bob")
        # And they refill with the clock.
        clock.now += 2.0
        service.submit(_spec(4), client="alice")
        assert service.metrics.counter("server.shed").value == 1

    def test_overload_shed_below_hard_queue_limit(self):
        service = SolveService(max_queue=4, shed_at=0.5, quota_burst=100)
        service.submit(_spec(1))
        service.submit(_spec(2))
        with pytest.raises(AdmissionError) as info:
            service.submit(_spec(3))
        assert info.value.reason == "overloaded"
        assert info.value.retry_after > 0

    def test_queue_full_when_shed_threshold_rounds_past_capacity(self):
        service = SolveService(max_queue=4, shed_at=0.9, quota_burst=100)
        for seed in range(4):
            service.submit(_spec(seed))
        with pytest.raises(AdmissionError) as info:
            service.submit(_spec(9))
        assert info.value.reason == "queue-full"

    def test_ladder_rung_two_sheds_newest_queued_first(self):
        clock = FakeClock()
        service = SolveService(max_queue=4, shed_at=0.9, quota_burst=100,
                               queue_wait_limit=10.0, clock=clock)
        jobs = [service.submit(_spec(seed))[0] for seed in range(4)]
        clock.now += 20.0  # the head has now waited past the limit
        fresh, outcome = service.submit(_spec(9))
        assert outcome == "accepted"
        # The *newest* queued job was sacrificed, not the old head.
        assert jobs[3].state == "cancelled"
        assert jobs[3].reason == "shed"
        assert jobs[3].result["status"] == "CANCELLED"
        assert all(not job.terminal for job in jobs[:3])
        assert not fresh.terminal

    def test_live_dedup_attaches_to_inflight_job(self):
        service = SolveService(quota_burst=100)
        job1, outcome1 = service.submit(_spec(7))
        job2, outcome2 = service.submit(_spec(7))
        assert outcome1 == "accepted" and outcome2 == "dedup"
        assert job1 is job2
        assert service.metrics.counter("server.dedup_hits").value == 1

    def test_draining_rejects_with_503(self):
        async def main():
            service = SolveService(jobs=1)
            await service.start()
            await service.shutdown(grace=1.0)
            with pytest.raises(AdmissionError) as info:
                service.submit(_spec(1))
            assert info.value.status == 503
            assert info.value.reason == "draining"
            assert service.health()["status"] == "draining"
        asyncio.run(main())


class TestExecution:
    def test_submit_executes_and_memoizes(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")

        async def main():
            service = SolveService(jobs=1, store=store, quota_burst=100)

            async def body():
                job, outcome = service.submit(_spec(21))
                assert outcome == "accepted"
                await _finish(job)
                assert job.state == "done"
                assert job.result["status"] in ("SAT", "UNSAT")
                # Second submission is a pure store read: terminal at once.
                rerun, outcome2 = service.submit(_spec(21))
                assert outcome2 == "cached"
                assert rerun.terminal and rerun.cached
                assert rerun.result["status"] == job.result["status"]
                return job.fingerprint

            return await _serve(service, body)

        fingerprint = asyncio.run(main())
        # The memo survives the service: a fresh one hits the same store.
        assert store.get_record(fingerprint)["result"]["status"] \
            in ("SAT", "UNSAT")

        async def second_life():
            service = SolveService(jobs=1, store=store, quota_burst=100)

            async def body():
                job, outcome = service.submit(_spec(21))
                assert outcome == "cached"
                assert job.terminal

            await _serve(service, body)

        asyncio.run(second_life())

    def test_worker_crash_recovery(self, tmp_path, monkeypatch):
        """A SIGKILLed pool worker breaks the pool; the job still lands."""
        flags = tmp_path / "flags"
        flags.mkdir()
        monkeypatch.setenv("REPRO_CHAOS",
                           f"kill_task=victim,flags={flags}")

        async def main():
            service = SolveService(jobs=1, quota_burst=100)

            async def body():
                job, _ = service.submit(_spec(31, name="victim-1"))
                await _finish(job)
                return job

            return await _serve(service, body), service

        job, service = asyncio.run(main())
        assert job.state == "done"
        assert job.result["status"] in ("SAT", "UNSAT")
        assert service.metrics.counter("server.worker_retries").value >= 1
        assert service.metrics.counter("server.pool_rebuilds").value >= 1
        assert service.health()["pool_generation"] >= 2

    def test_reject_spawn_is_retried(self):
        async def main():
            service = SolveService(jobs=1, quota_burst=100)

            async def body():
                with use_chaos(ChaosSpec(reject_spawn=1)):
                    job, _ = service.submit(_spec(41))
                    await _finish(job)
                return job

            return await _serve(service, body), service

        job_and_service = asyncio.run(main())
        job, service = job_and_service
        assert job.state == "done"
        assert job.result["status"] in ("SAT", "UNSAT")
        assert service.metrics.counter("server.worker_retries").value == 1

    def test_store_failure_never_fails_the_job(self):
        class ExplodingStore:
            def get_record(self, fingerprint):
                return None

            def put_record(self, fingerprint, record):
                raise StoreError("disk on fire")

        async def main():
            service = SolveService(jobs=1, store=ExplodingStore(),
                                   quota_burst=100)

            async def body():
                job, _ = service.submit(_spec(51))
                await _finish(job)
                return job

            return await _serve(service, body), service

        job, service = asyncio.run(main())
        assert job.state == "done"
        assert job.result["status"] in ("SAT", "UNSAT")
        assert service.metrics.counter("server.store_errors").value == 3

    def test_shutdown_cancels_queued_jobs(self):
        async def main():
            service = SolveService(jobs=1, quota_burst=100)
            jobs = [service.submit(_spec(seed))[0]
                    for seed in range(60, 63)]
            await service.shutdown(grace=1.0)
            return jobs

        jobs = asyncio.run(main())
        for job in jobs:
            assert job.state == "cancelled"
            assert job.reason == "shutdown"
            assert job.result["status"] == "CANCELLED"
            assert job.done_event.is_set()

    def test_budget_defaults_are_applied(self):
        service = SolveService(time_limit=7.5, mem_limit_mb=256,
                               quota_burst=100)
        task = _spec(71)
        bare_key = task.fingerprint()
        job, _ = service.submit(task)
        assert job.task.time_limit == 7.5
        assert job.task.mem_limit_mb == 256
        assert job.task.hard_timeout is not None
        # The budgets are part of the key: a key cached before they were
        # applied must not survive.
        assert job.fingerprint != bare_key
        assert job.fingerprint == replace(job.task,
                                          _fingerprint=None).fingerprint()

    def test_health_shape(self):
        service = SolveService(jobs=3, max_queue=10, quota_burst=100)
        service.submit(_spec(81))
        health = service.health()
        assert health["status"] == "serving"
        assert health["queued"] == 1
        assert health["workers"] == 3
        assert health["capacity"] == 10
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["server.accepted"]["value"] == 1
