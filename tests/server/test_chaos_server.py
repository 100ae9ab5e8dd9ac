"""Chaos coverage for the solve server.

The unmarked smoke runs in tier-1 (seconds); the ``@pytest.mark.chaos``
acceptance test is the ISSUE's sustained-load scenario: mixed traffic
with killed pool workers, dropped client connections, slow-loris clients
and store faults — every accepted request must still reach a terminal
state with a verdict that matches an undisturbed direct run.
"""

import asyncio

import pytest

from repro.resilience.chaos import ChaosSpec, use_chaos
from repro.runner.store import ResultStore
from repro.server.http import HttpServer
from repro.server.jobs import execute_job, parse_job
from repro.server.loadgen import build_workload, run_load
from repro.server.service import AdmissionError, SolveService


def test_shedding_ladder_quick_smoke():
    """Tier-1: overload a tiny server and walk all three ladder rungs."""
    clock_now = [100.0]
    service = SolveService(jobs=1, max_queue=4, shed_at=0.9,
                           quota_burst=100, queue_wait_limit=5.0,
                           clock=lambda: clock_now[0])

    def spec(seed):
        return parse_job(
            {"payload": f"p cnf 2 2\n1 {1 + seed % 2} 0\n-1 -2 0\n",
             "name": f"rung-{seed}", "time_limit": 1 + seed})

    # Rung 1: the full queue rejects new work with backpressure advice.
    jobs = [service.submit(spec(seed))[0] for seed in range(4)]
    with pytest.raises(AdmissionError) as info:
        service.submit(spec(9))
    assert info.value.reason == "queue-full"
    assert info.value.retry_after > 0

    # Rung 2: once the head is stale, queued work is shed newest-first
    # to make room for fresh work.
    clock_now[0] += 10.0
    fresh, outcome = service.submit(spec(9))
    assert outcome == "accepted"
    assert jobs[3].state == "cancelled" and jobs[3].reason == "shed"

    # Rung 3: drain cancels everything still queued, terminally.
    asyncio.run(service.shutdown(grace=1.0))
    for job in jobs[:3] + [fresh]:
        assert job.terminal
        assert job.result["status"] == "CANCELLED"
    assert service.health()["status"] == "draining"
    with pytest.raises(AdmissionError) as info:
        service.submit(spec(10))
    assert info.value.status == 503


def test_loadgen_survives_dropped_responses():
    """Tier-1: a dropped connection costs one client, never the server."""
    workload = build_workload(10, seed=3, mix=("cnf",), dup_fraction=0.2)

    async def main():
        service = SolveService(jobs=1, max_queue=4, quota_burst=1000,
                               quota_rate=1000)
        await service.start()
        http = HttpServer(service, port=0)
        await http.start()
        try:
            with use_chaos(ChaosSpec(drop_client=1)):
                report = await run_load("127.0.0.1", http.port, workload,
                                        concurrency=8, sync_wait=30.0)
        finally:
            await http.stop()
            await service.shutdown(grace=30.0)
        return service, report

    service, report = asyncio.run(main())
    assert report.requests == 10
    assert report.errors <= 1          # only the chaos-dropped client
    assert report.ok >= 9
    # The tiny queue forced real backpressure, and clients survived it.
    assert service.metrics.counter("server.shed").value > 0
    assert report.retries > 0
    for job in service._jobs.values():
        assert job.terminal


@pytest.mark.chaos
def test_sustained_mixed_load_acceptance(tmp_path, monkeypatch):
    """ISSUE acceptance: sustained mixed load under compound chaos.

    Faults: pool workers SIGKILLed on every aig solve (once each, via the
    flags latch), two client connections aborted mid-response, two
    slow-loris clients, three store append failures.  Required outcome:
    every accepted job reaches a terminal state server-side, every
    verdict a client received matches an undisturbed direct computation,
    and the server drains cleanly.
    """
    flags = tmp_path / "flags"
    monkeypatch.setenv(
        "REPRO_CHAOS",
        f"kill_task=lg-aig,drop_client=2,slow_client=2,store_errors=3,"
        f"flags={flags}")
    workload = build_workload(48, seed=11, dup_fraction=0.35)

    async def main():
        service = SolveService(
            jobs=1,  # one worker: each kill hits only the matching task
            max_queue=max(64, len(workload)), quota_rate=10_000.0,
            quota_burst=10_000.0,
            store=ResultStore(tmp_path / "store.jsonl"))
        await service.start()
        http = HttpServer(service, port=0)
        await http.start()
        try:
            report = await run_load("127.0.0.1", http.port, workload,
                                    concurrency=8, sync_wait=30.0)
        finally:
            await http.stop()
            await service.shutdown(grace=60.0)
        return service, report

    service, report = asyncio.run(main())

    # Client view: at most the chaos-disturbed connections failed
    # (2 dropped + 2 slow-loris cut off), and dedup still worked.
    assert report.requests == len(workload)
    assert report.errors <= 4
    assert report.dedup_hits > 0

    # Server view: nothing accepted was lost, the pool was rebuilt after
    # worker kills, and the failed store appends were counted.
    for job in service._jobs.values():
        assert job.terminal, f"{job.id} stuck in {job.state}"
        assert job.result is not None
    assert service.metrics.counter("server.pool_rebuilds").value >= 1
    assert service.metrics.counter("server.worker_retries").value >= 1
    assert service.metrics.counter("server.store_errors").value == 3
    assert service.health()["status"] == "draining"
    assert service.health()["active"] == 0

    # Verdict cross-check: recompute every ok verdict directly, without
    # chaos, and demand agreement (dedup/memo must never change answers).
    monkeypatch.delenv("REPRO_CHAOS")
    expected: dict[str, str] = {}
    for spec_dict, outcome in zip(workload, report.outcomes):
        if not outcome.ok:
            continue
        task = parse_job(spec_dict)
        fingerprint = task.fingerprint()
        if fingerprint not in expected:
            expected[fingerprint] = execute_job(task)["status"]
        assert outcome.status == expected[fingerprint], \
            f"{spec_dict.get('name')}: {outcome.status} != " \
            f"{expected[fingerprint]}"
