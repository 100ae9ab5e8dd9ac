"""Satellite: dedup/memoization semantics, including the proof bypass."""

import asyncio
import json

from repro.runner.store import ResultStore
from repro.server.http import HttpServer
from repro.server.jobs import parse_job
from repro.server.service import SolveService

UNSAT_CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def _spec(**extra):
    return parse_job({"payload": UNSAT_CNF, **extra})


async def _drive(service, body):
    await service.start()
    try:
        return await body()
    finally:
        await service.shutdown(grace=10.0)


async def _post_wait(port, body, client):
    """POST ?wait=30, return (status, decoded body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode()
        writer.write((f"POST /v1/jobs?wait=30 HTTP/1.1\r\nhost: t\r\n"
                      f"connection: close\r\nx-client-id: {client}\r\n"
                      f"content-length: {len(payload)}\r\n\r\n").encode()
                     + payload)
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 60)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        blob = await asyncio.wait_for(reader.readexactly(length), 60)
    finally:
        writer.close()
    return status, json.loads(blob)


def test_concurrent_identical_submissions_run_once():
    """Two clients race the same payload: one execution, two verdicts."""
    async def main():
        service = SolveService(jobs=1, quota_burst=100)

        async def body():
            job1, outcome1 = service.submit(_spec(), client="alice")
            job2, outcome2 = service.submit(_spec(), client="bob")
            assert outcome1 == "accepted"
            assert outcome2 == "dedup"
            assert job1 is job2  # bob attached to alice's live job
            await asyncio.wait_for(job1.done_event.wait(), 60)
            assert job1.result["status"] == "UNSAT"
            return service.metrics.counter("server.completed").value

        completed = await _drive(service, body)
        assert completed == 1  # one pool execution served both clients

    asyncio.run(main())


def test_concurrent_http_submissions_share_one_execution():
    async def main():
        service = SolveService(jobs=1, quota_burst=100)
        http = HttpServer(service, port=0)
        await service.start()
        await http.start()
        try:
            results = await asyncio.gather(
                _post_wait(http.port, {"payload": UNSAT_CNF}, "alice"),
                _post_wait(http.port, {"payload": UNSAT_CNF}, "bob"),
            )
            outcomes = sorted(payload["outcome"] for _, payload in results)
            for status, payload in results:
                assert status == 200
                assert payload["result"]["status"] == "UNSAT"
            # One request won the race; the other deduped onto it (or hit
            # the memo if it lost the race entirely).
            assert outcomes[0] == "accepted"
            assert outcomes[1] in ("dedup", "cached")
            assert service.metrics.counter("server.completed").value == 1
        finally:
            await http.stop()
            await service.shutdown(grace=10.0)

    asyncio.run(main())


def test_memo_hit_marks_job_cached(tmp_path):
    async def main():
        service = SolveService(jobs=1, quota_burst=100,
                               store=ResultStore(tmp_path / "s.jsonl"))

        async def body():
            job, _ = service.submit(_spec())
            await asyncio.wait_for(job.done_event.wait(), 60)
            rerun, outcome = service.submit(_spec(), client="later")
            assert outcome == "cached"
            assert rerun.cached and rerun.terminal
            assert rerun.result["status"] == "UNSAT"
            assert rerun is not job

        await _drive(service, body)

    asyncio.run(main())


def test_proof_requests_bypass_the_cache_in_both_directions(tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")

    async def main():
        service = SolveService(jobs=1, quota_burst=100, store=store)

        async def body():
            # Seed the memo with a plain solve.
            plain, _ = service.submit(_spec())
            await asyncio.wait_for(plain.done_event.wait(), 60)
            assert store.get_record(plain.fingerprint) is not None

            # Read bypass: a proof request must re-run (the memo has no
            # proof to give), and must come back carrying one.
            proved, outcome = service.submit(_spec(proof=True))
            assert outcome == "accepted"
            await asyncio.wait_for(proved.done_event.wait(), 60)
            assert proved.result["status"] == "UNSAT"
            assert proved.result["proof"].strip()
            assert proved.result["proof_cnf"].startswith("p cnf")
            return plain.fingerprint

        return await _drive(service, body)

    fingerprint = asyncio.run(main())
    # Write bypass: the proof run must not have touched the memo record
    # (same fingerprint, and proof results are never persisted).
    record = store.get_record(fingerprint)
    assert "proof" not in record["output"]

    async def second():
        service = SolveService(jobs=1, quota_burst=100,
                               store=ResultStore(tmp_path / "empty.jsonl"))

        async def body():
            # A proof-first service never seeds the cache either.
            proved, _ = service.submit(_spec(proof=True))
            await asyncio.wait_for(proved.done_event.wait(), 60)
            assert proved.result["status"] == "UNSAT"
            follow, outcome = service.submit(_spec())
            assert outcome == "accepted"  # nothing was cached by the proof
            await asyncio.wait_for(follow.done_event.wait(), 60)

        await _drive(service, body)

    asyncio.run(second())
