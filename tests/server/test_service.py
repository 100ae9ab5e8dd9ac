"""SolveService: admission, quotas, shedding ladder, supervision."""

import asyncio
import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cnf import write_dimacs
from repro.benchgen import random_cnf
from repro.resilience.chaos import ChaosSpec, use_chaos
from repro.runner.store import ResultStore, StoreError, open_store
from repro.server.jobs import parse_job
from repro.server.service import (
    _MAX_BUCKETS,
    AdmissionError,
    SolveService,
    TokenBucket,
)


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

    def test_quota_buckets_of_many_clients_stay_bounded(self):
        clock = FakeClock()
        service = SolveService(quota_rate=50.0, quota_burst=100.0,
                               clock=clock)
        task = _spec(1)
        for index in range(10_000):
            clock.now += 0.05  # every earlier bucket has refilled by now
            service.submit(task, client=f"client-{index}")
        assert len(service._buckets) <= _MAX_BUCKETS

    def test_dropping_full_buckets_keeps_an_active_clients_quota(self):
        clock = FakeClock()
        service = SolveService(quota_rate=1.0, quota_burst=2.0, clock=clock)
        task = _spec(1)
        service.submit(task, client="alice")
        service.submit(task, client="alice")
        # 10 000 other clients arrive over 1.5 s; each spends one token,
        # so the early ones refill to burst and are dropped, while
        # alice, drained to zero, is still 0.5 tokens short.
        for index in range(10_000):
            clock.now += 0.00015
            service.submit(task, client=f"client-{index}")
        assert len(service._buckets) < 10_000
        service.submit(task, client="alice")  # 1.5 tokens -> 0.5
        with pytest.raises(AdmissionError) as info:
            service.submit(task, client="alice")
        assert info.value.status == 429
        assert info.value.reason == "quota"
        assert info.value.retry_after == pytest.approx(0.5)

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
        store = ResultStore(tmp_path / "store.jsonl")

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
        assert store.get_record(fingerprint)["status"] in ("SAT", "UNSAT")

        async def second_life():
            service = SolveService(jobs=1, store=store, quota_burst=100)

            async def body():
                job, outcome = service.submit(_spec(21))
                assert outcome == "cached"
                assert job.terminal

            await _serve(service, body)

        asyncio.run(second_life())

    def test_sharded_store_directory_keeps_hitting(self, tmp_path):
        """A memo written in the older ``shard-<hex>.jsonl`` directory
        layout answers the same job as cached after ``open_store``."""
        first = ResultStore(tmp_path / "first.jsonl")

        async def first_life():
            service = SolveService(jobs=1, store=first, quota_burst=100)

            async def body():
                job, _ = service.submit(_spec(22))
                await _finish(job)
                return job.fingerprint

            return await _serve(service, body)

        fingerprint = asyncio.run(first_life())
        root = tmp_path / "store"
        root.mkdir()
        (root / f"shard-{fingerprint[0]}.jsonl").write_text(
            first.path.read_text())

        async def second_life():
            service = SolveService(jobs=1, store=open_store(root),
                                   quota_burst=100)

            async def body():
                job, outcome = service.submit(_spec(22))
                assert outcome == "cached"
                assert job.terminal

            await _serve(service, body)

        asyncio.run(second_life())
        assert (root / "results.jsonl").exists()

    def test_latency_splits_into_queue_wait_execute_and_persist(self):
        clock = FakeClock()

        class SlowStore:
            """A store whose writes take 0.5 s on the injected clock."""

            def __init__(self):
                self.records = {}

            def get_record(self, key):
                return self.records.get(key)

            def put_record(self, key, record):
                clock.now += 0.5
                self.records[key] = record

        async def main():
            service = SolveService(jobs=1, store=SlowStore(),
                                   quota_burst=100, clock=clock)
            job, _ = service.submit(_spec(22))  # queued: not started yet
            clock.now += 2.0
            await service.start()               # dispatched at +2 s
            clock.now += 3.0                    # the result comes at +5 s
            try:
                await _finish(job)
            finally:
                await service.shutdown(grace=5.0)
            return service.metrics_snapshot()["histograms"]

        histograms = asyncio.run(main())
        stages = {name: histograms[f"server.{name}"]["total"]
                  for name in ("queue_wait_ms", "execute_ms", "persist_ms",
                               "latency_ms")}
        assert stages == pytest.approx({"queue_wait_ms": 2000.0,
                                        "execute_ms": 3000.0,
                                        "persist_ms": 500.0,
                                        "latency_ms": 5500.0})
        assert (stages["queue_wait_ms"] + stages["execute_ms"]
                + stages["persist_ms"]) == pytest.approx(
                    stages["latency_ms"])

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


def _worker_pids(service):
    return [worker.process.pid for worker in service._workers]


def _reaped(pid):
    """True iff ``pid`` has exited and been waited for already."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestDispatch:
    def test_sequential_jobs_reuse_one_worker(self):
        async def main():
            service = SolveService(jobs=1, quota_burst=100)

            async def body():
                pids = _worker_pids(service)
                for seed in range(20):
                    job, _ = service.submit(_spec(100 + seed))
                    await _finish(job)
                    assert job.result["status"] in ("SAT", "UNSAT")
                    assert _worker_pids(service) == pids
                return pids

            return await _serve(service, body), service

        pids, service = asyncio.run(main())
        assert service.health()["pool_generation"] == 1
        assert service.metrics.counter("server.pool_rebuilds").value == 0
        assert all(_reaped(pid) for pid in pids)

    def test_worker_death_replaces_one_worker_and_retries_one_job(
            self, tmp_path, monkeypatch):
        flags = tmp_path / "flags"
        flags.mkdir()
        monkeypatch.setenv("REPRO_CHAOS", f"kill_task=victim,flags={flags}")

        async def main():
            service = SolveService(jobs=2, quota_burst=100)

            async def body():
                before = _worker_pids(service)
                victim, _ = service.submit(_spec(131, name="victim-1"))
                other, _ = service.submit(_spec(132, name="bystander-1"))
                assert victim.state == other.state == "running"
                await _finish(victim)
                await _finish(other)
                return victim, other, before, _worker_pids(service)

            return await _serve(service, body), service

        (victim, other, before, after), service = asyncio.run(main())
        for job in (victim, other):
            assert job.state == "done"
            assert job.result["status"] in ("SAT", "UNSAT")
        assert service.supervisor.attempts(victim.fingerprint) == 1
        assert service.supervisor.attempts(other.fingerprint) == 0
        assert service.metrics.counter("server.worker_retries").value == 1
        assert service.metrics.counter("server.pool_rebuilds").value == 1
        assert service.health()["pool_generation"] == 2
        assert len(set(before) & set(after)) == 1  # one worker replaced
        assert all(_reaped(pid) for pid in set(before) | set(after))

    def test_idle_worker_death_is_replaced_without_a_retry(self):
        async def main():
            service = SolveService(jobs=1, quota_burst=100)

            async def body():
                [pid] = _worker_pids(service)
                os.kill(pid, signal.SIGKILL)
                for _ in range(200):  # until the loop reads the EOF
                    if _worker_pids(service) != [pid]:
                        break
                    await asyncio.sleep(0.05)
                job, _ = service.submit(_spec(151))
                await _finish(job)
                return pid, job

            return await _serve(service, body), service

        (pid, job), service = asyncio.run(main())
        assert job.result["status"] in ("SAT", "UNSAT")
        assert service.metrics.counter("server.pool_rebuilds").value == 1
        assert service.metrics.counter("server.worker_retries").value == 0
        assert _reaped(pid)

    def test_shutdown_reaps_every_worker(self):
        async def main():
            service = SolveService(jobs=2, quota_burst=100)
            await service.start()
            pids = _worker_pids(service)
            await service.shutdown(grace=1.0)
            return pids, service

        pids, service = asyncio.run(main())
        assert len(pids) == 2
        assert all(_reaped(pid) for pid in pids)
        assert service._workers == []

    def test_shutdown_reaps_a_worker_whose_job_outlives_grace(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "delay=60")

        async def main():
            service = SolveService(jobs=1, quota_burst=100)
            await service.start()
            pids = _worker_pids(service)
            job, _ = service.submit(_spec(141))
            assert job.state == "running"
            await service.shutdown(grace=0.2)
            return pids, job

        pids, job = asyncio.run(main())
        assert job.state == "cancelled"
        assert job.reason == "shutdown-deadline"
        assert job.result["status"] == "CANCELLED"
        assert all(_reaped(pid) for pid in pids)

    def test_a_failed_startup_exits_without_waiting_on_workers(self):
        """A server that dies between start and shutdown still exits:
        its workers, blocked on pipes it holds open, are reaped at exit."""
        code = textwrap.dedent("""\
            import asyncio
            from repro.server.service import SolveService

            async def main():
                service = SolveService(jobs=2)
                await service.start()
                raise OSError("address already in use")

            asyncio.run(main())
            """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert "address already in use" in done.stderr
