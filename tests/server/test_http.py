"""HTTP transport: routes, status codes, and socket-edge protection."""

import asyncio
import json

from repro.benchgen import random_cnf
from repro.cnf import write_dimacs
from repro.resilience.chaos import ChaosSpec, use_chaos
from repro.server.http import HttpServer
from repro.server.service import SolveService


def _body(seed=1, **extra):
    data = {"payload": write_dimacs(random_cnf(8, 28, seed))}
    data.update(extra)
    return data


async def _request(port, method, path, body=None, headers=None,
                   timeout=30.0):
    """One connection-per-request HTTP exchange; returns (status,
    headers, decoded-JSON-or-None)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        lines = [f"{method} {path} HTTP/1.1", "host: t", "connection: close"]
        if payload:
            lines.append(f"content-length: {len(payload)}")
        for key, value in (headers or {}).items():
            lines.append(f"{key}: {value}")
        writer.write("\r\n".join(lines).encode() + b"\r\n\r\n" + payload)
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                      timeout)
        head_lines = head.decode("latin-1").split("\r\n")
        status = int(head_lines[0].split(" ")[1])
        response_headers = {}
        for line in head_lines[1:]:
            if not line:
                continue
            key, _, value = line.partition(":")
            response_headers[key.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0") or "0")
        rest = await asyncio.wait_for(reader.readexactly(length), timeout) \
            if length else b""
    finally:
        writer.close()
    decoded = json.loads(rest) if rest else None
    return status, response_headers, decoded


async def _with_server(body_fn, *, start_service=True, grace=5.0,
                       **service_kwargs):
    service_kwargs.setdefault("jobs", 1)
    service_kwargs.setdefault("quota_burst", 100)
    service = SolveService(**service_kwargs)
    http = HttpServer(service, port=0)
    if start_service:
        await service.start()
    await http.start()
    try:
        return await body_fn(http.port, service)
    finally:
        await http.stop()
        await service.shutdown(grace=grace)


def test_healthz_and_metricsz():
    async def body(port, service):
        status, _, health = await _request(port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "serving"
        status, _, metrics = await _request(port, "GET", "/metricsz")
        assert status == 200
        assert "counters" in metrics

    asyncio.run(_with_server(body))


def test_metricsz_reports_the_per_stage_latency_histograms():
    async def body(port, service):
        status, _, _ = await _request(port, "POST", "/v1/jobs?wait=30",
                                      body=_body(15))
        assert status == 200
        status, _, metrics = await _request(port, "GET", "/metricsz")
        assert status == 200
        for name in ("queue_wait_ms", "execute_ms", "persist_ms",
                     "latency_ms"):
            assert metrics["histograms"][f"server.{name}"]["count"] == 1

    asyncio.run(_with_server(body))


def test_synchronous_fast_path_returns_200_with_result():
    async def body(port, service):
        status, _, payload = await _request(
            port, "POST", "/v1/jobs?wait=30", body=_body(1))
        assert status == 200
        assert payload["state"] == "done"
        assert payload["outcome"] == "accepted"
        assert payload["result"]["status"] in ("SAT", "UNSAT")

    asyncio.run(_with_server(body))


def test_submit_poll_fetch_lifecycle():
    async def body(port, service):
        status, _, accepted = await _request(
            port, "POST", "/v1/jobs", body=_body(2))
        assert status == 202
        assert accepted["poll"].startswith("/v1/jobs/")
        # Long-poll until terminal, then fetch the durable result.
        status, _, polled = await _request(
            port, "GET", accepted["poll"] + "?wait=30")
        assert status == 200
        assert polled["state"] == "done"
        status, _, result = await _request(
            port, "GET", accepted["poll"] + "/result")
        assert status == 200
        assert result["result"]["status"] in ("SAT", "UNSAT")

    asyncio.run(_with_server(body))


def test_result_conflicts_while_job_is_queued():
    async def body(port, service):
        # The service is never started: the job stays queued forever.
        status, _, accepted = await _request(
            port, "POST", "/v1/jobs", body=_body(3))
        assert status == 202
        status, _, payload = await _request(
            port, "GET", accepted["poll"] + "/result")
        assert status == 409
        assert payload["state"] == "queued"

    asyncio.run(_with_server(body, start_service=False, grace=0.5))


def test_client_errors():
    async def body(port, service):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"POST /v1/jobs HTTP/1.1\r\nhost: t\r\n"
                     b"connection: close\r\ncontent-length: 7\r\n\r\n"
                     b"not json")
        # (8 bytes sent, 7 declared: the eighth is ignored)
        await writer.drain()
        raw = await reader.read(-1)
        writer.close()
        assert b" 400 " in raw.split(b"\r\n", 1)[0]

        status, _, payload = await _request(
            port, "POST", "/v1/jobs", body={"kind": "nope", "payload": "x"})
        assert status == 400
        assert "kind" in payload["error"]

        status, _, _ = await _request(port, "GET", "/v1/jobs/ghost")
        assert status == 404
        status, _, _ = await _request(port, "GET", "/nowhere")
        assert status == 404
        status, _, _ = await _request(port, "GET", "/v1/jobs")
        assert status == 405
        status, _, _ = await _request(port, "POST", "/healthz", body={})
        assert status == 405

    asyncio.run(_with_server(body))


def test_quota_answers_429_with_retry_after_header():
    async def body(port, service):
        first, _, _ = await _request(
            port, "POST", "/v1/jobs?wait=30", body=_body(4),
            headers={"x-client-id": "greedy"})
        assert first == 200
        status, headers, payload = await _request(
            port, "POST", "/v1/jobs", body=_body(5),
            headers={"x-client-id": "greedy"})
        assert status == 429
        assert payload["reason"] == "quota"
        assert float(headers["retry-after"]) > 0

    asyncio.run(_with_server(body, quota_burst=1, quota_rate=0.01))


def test_payload_too_large_is_413():
    async def body(port, service):
        big = {"payload": "p cnf 1 1\n" + "1 0\n" * 40000}
        status, _, _ = await _request(port, "POST", "/v1/jobs", body=big)
        assert status == 413

    async def run():
        service = SolveService(jobs=1, quota_burst=100)
        http = HttpServer(service, port=0, max_body=1024)
        await http.start()
        try:
            await body(http.port, service)
        finally:
            await http.stop()
            await service.shutdown(grace=0.5)

    asyncio.run(run())


def test_invalid_content_length_is_400_and_server_survives():
    async def body(port, service):
        for value in ("abc", "-5"):
            status, _, payload = await _request(
                port, "POST", "/v1/jobs", headers={"content-length": value})
            assert status == 400, value
            assert payload == {"error": "invalid content-length"}
        status, _, health = await _request(port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "serving"
        status, _, job = await _request(port, "POST", "/v1/jobs?wait=30",
                                        body=_body(5))
        assert status == 200 and job["state"] == "done"

    asyncio.run(_with_server(body))


def test_slow_loris_is_cut_off_and_server_survives():
    async def run():
        service = SolveService(jobs=1, quota_burst=100)
        await service.start()
        http = HttpServer(service, port=0, header_timeout=0.2)
        await http.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", http.port)
            writer.write(b"GET /he")  # ...and then never finish the headers
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), 10)
            writer.close()
            # Either a polite 408 or a summary disconnect — never a hang.
            assert raw == b"" or b" 408 " in raw.split(b"\r\n", 1)[0]
            status, _, _ = await _request(http.port, "GET", "/healthz")
            assert status == 200
        finally:
            await http.stop()
            await service.shutdown(grace=5.0)

    asyncio.run(run())


def test_drop_client_chaos_aborts_the_connection():
    async def body(port, service):
        with use_chaos(ChaosSpec(drop_client=1)):
            try:
                status, _, payload = await _request(
                    port, "GET", "/healthz", timeout=10)
                dropped = payload is None
            except (ConnectionResetError, asyncio.IncompleteReadError,
                    IndexError):  # RST, torn read, or empty response
                dropped = True
        assert dropped  # the one chaos-armed response never arrived
        status, _, health = await _request(port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "serving"

    asyncio.run(_with_server(body))


# ---------------------------------------------------------------------- #
# The callback edge: framing, pipelining, read budgets, Expect, waiters

def _raw_request(method, path, body=b"", headers=None):
    lines = [f"{method} {path} HTTP/1.1", "host: t"]
    if body:
        lines.append(f"content-length: {len(body)}")
    for key, value in (headers or {}).items():
        lines.append(f"{key}: {value}")
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


async def _read_response(reader, timeout=30.0):
    """(status, headers, body bytes) of one response, read by length."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    headers = {}
    for line in head_lines[1:]:
        if line:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body = await asyncio.wait_for(reader.readexactly(length), timeout) \
        if length else b""
    return status, headers, body


async def _read_to_eof(reader, timeout=10.0):
    return await asyncio.wait_for(reader.read(-1), timeout)


def test_pipelined_requests_in_one_segment_are_answered_in_order():
    async def body(port, service):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        job = json.dumps(_body(11)).encode()
        writer.write(_raw_request("POST", "/v1/jobs?wait=30", job)
                     + _raw_request("GET", "/healthz")
                     + _raw_request("GET", "/nowhere"))
        await writer.drain()
        first = await _read_response(reader)
        second = await _read_response(reader)
        third = await _read_response(reader)
        writer.close()
        assert first[0] == 200
        assert json.loads(first[2])["state"] == "done"
        assert second[0] == 200 and json.loads(second[2])["status"] == \
            "serving"
        assert third[0] == 404

    asyncio.run(_with_server(body))


def test_a_request_sent_a_byte_at_a_time_is_served():
    async def body(port, service):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        raw = _raw_request("POST", "/v1/jobs?wait=30",
                           json.dumps(_body(12)).encode())
        for index in range(len(raw)):
            writer.write(raw[index:index + 1])
            await writer.drain()
        status, _, payload = await _read_response(reader)
        writer.close()
        assert status == 200
        assert json.loads(payload)["result"]["status"] in ("SAT", "UNSAT")

    asyncio.run(_with_server(body))


def test_header_bytes_past_64_kib_are_431():
    async def body(port, service):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /healthz HTTP/1.1\r\nx-big: "
                     + b"a" * (70 << 10) + b"\r\n\r\n")
        await writer.drain()
        status, headers, _ = await _read_response(reader)
        assert status == 431
        assert headers["connection"] == "close"
        writer.close()
        status, _, _ = await _request(port, "GET", "/healthz")
        assert status == 200

    asyncio.run(_with_server(body))


def test_stalled_body_is_408_and_server_survives():
    async def run():
        service = SolveService(jobs=1, quota_burst=100)
        await service.start()
        http = HttpServer(service, port=0, body_timeout=0.2)
        await http.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", http.port)
            writer.write(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 50"
                         b"\r\n\r\n{\"payload\":")  # ...and the rest never
            await writer.drain()
            raw = await _read_to_eof(reader)
            writer.close()
            assert b" 408 " in raw.split(b"\r\n", 1)[0]
            assert b"body read timed out" in raw
            status, _, _ = await _request(http.port, "GET", "/healthz")
            assert status == 200
        finally:
            await http.stop()
            await service.shutdown(grace=5.0)

    asyncio.run(run())


def test_connection_close_is_honoured_and_keep_alive_is_default():
    async def body(port, service):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_raw_request("GET", "/healthz"))
        await writer.drain()
        status, headers, _ = await _read_response(reader)
        assert status == 200 and headers["connection"] == "keep-alive"
        writer.write(_raw_request("GET", "/healthz",
                                  headers={"connection": "close"}))
        await writer.drain()
        status, headers, _ = await _read_response(reader)
        assert status == 200 and headers["connection"] == "close"
        assert await _read_to_eof(reader) == b""  # the server closed
        writer.close()

    asyncio.run(_with_server(body))


def test_disconnect_during_wait_keeps_the_job_and_the_server(tmp_path):
    from repro.runner.store import open_store

    async def run():
        store = open_store(tmp_path / "store.jsonl")
        service = SolveService(jobs=1, quota_burst=100, store=store)
        http = HttpServer(service, port=0)
        await http.start()
        try:
            # The service is not started yet, so the job waits in the
            # queue while its client hangs up.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", http.port)
            writer.write(_raw_request("POST", "/v1/jobs?wait=30",
                                      json.dumps(_body(13)).encode()))
            await writer.drain()
            for _ in range(200):
                if service.health()["jobs_total"]:
                    break
                await asyncio.sleep(0.01)
            (job,) = list(service._jobs.values())
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            await service.start()
            await asyncio.wait_for(job.done_event.wait(), 30)
            assert job.state == "done"
            assert store.get_record(job.fingerprint) is not None
            status, _, polled = await _request(http.port, "GET",
                                               f"/v1/jobs/{job.id}")
            assert status == 200 and polled["state"] == "done"
        finally:
            await http.stop()
            await service.shutdown(grace=5.0)

    asyncio.run(run())


def test_expect_100_continue_is_answered_before_the_body():
    async def body(port, service):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        job = json.dumps(_body(14)).encode()
        head = _raw_request("POST", "/v1/jobs?wait=30", job,
                            headers={"expect": "100-continue"})
        writer.write(head[:-len(job)])  # hold the body back, as curl does
        await writer.drain()
        interim = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        writer.write(job)
        await writer.drain()
        status, _, payload = await _read_response(reader)
        writer.close()
        assert status == 200
        assert json.loads(payload)["state"] == "done"

    asyncio.run(_with_server(body))


def test_expect_with_an_oversized_length_is_413_at_once():
    async def run():
        service = SolveService(jobs=1, quota_burst=100)
        http = HttpServer(service, port=0, max_body=1024)
        await http.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", http.port)
            writer.write(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 5000"
                         b"\r\nexpect: 100-continue\r\n\r\n")
            await writer.drain()
            status, _, payload = await _read_response(reader, timeout=5)
            writer.close()
            assert status == 413
            assert json.loads(payload) == {"error": "payload too large"}
        finally:
            await http.stop()
            await service.shutdown(grace=0.5)

    asyncio.run(run())
