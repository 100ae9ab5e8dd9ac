"""Zero-dependency asyncio HTTP/1.1 transport for the solve service.

One deliberately small HTTP surface over :class:`repro.server.service.
SolveService` — stdlib only, JSON bodies, keep-alive:

========  ==========================  =========================================
Method    Path                        Meaning
========  ==========================  =========================================
POST      ``/v1/jobs``                Submit a job spec.  ``?wait=S`` holds the
                                      request up to ``S`` seconds for a result
                                      (the synchronous small-job fast path):
                                      ``200`` with the result when terminal,
                                      ``202`` with a poll URL otherwise.
POST      ``/v1/solve``               Alias of ``POST /v1/jobs``.
GET       ``/v1/jobs/<id>``           Job status.  ``?wait=S`` long-polls until
                                      terminal or the budget expires.
GET       ``/v1/jobs/<id>/result``    The terminal result (``409`` while the
                                      job is still queued/running).
GET       ``/healthz``                Liveness + queue/worker vital signs.
GET       ``/metricsz``               The metrics registry snapshot.
========  ==========================  =========================================

Protection at the socket edge (the service protects its workers; this
layer protects the *event loop*):

* header and body read budgets (``header_timeout`` / ``body_timeout``) —
  a slow-loris client is disconnected, never parked indefinitely;
* ``max_body`` caps payload bytes (HTTP 413), a malformed or negative
  ``Content-Length`` is refused (400), and ``readuntil`` overruns cap
  header bytes (431);
* admission refusals surface as HTTP 429/503 with a ``Retry-After``
  header, so well-behaved clients back off instead of hammering;
* the chaos hook ``take_drop_client`` aborts connections mid-response to
  prove clients of a dying server never receive a *wrong* answer — only
  a closed socket.
"""

from __future__ import annotations

import asyncio
import json
import logging
from urllib.parse import parse_qs, urlsplit

from repro.obs import get_tracer
from repro.resilience.chaos import get_chaos
from repro.server.jobs import BadRequest, parse_job
from repro.server.service import AdmissionError, Job, SolveService

__all__ = ["HttpServer"]

logger = logging.getLogger(__name__)

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Hard ceiling on ``?wait=`` budgets, so a client cannot park a
#: connection (and its server-side task) forever.
MAX_WAIT_S = 120.0


def _job_payload(job: Job, include_result: bool) -> dict:
    body = {
        "job": job.id,
        "state": job.state,
        "kind": job.task.kind,
        "cached": job.cached,
        "status": job.result.get("status") if job.result else None,
    }
    if job.reason:
        body["reason"] = job.reason
    if include_result and job.terminal:
        body["result"] = job.result
    if not job.terminal:
        body["poll"] = f"/v1/jobs/{job.id}"
    return body


class HttpServer:
    """Serve a :class:`SolveService` over asyncio HTTP/1.1."""

    def __init__(self, service: SolveService, host: str = "127.0.0.1",
                 port: int = 0, *, max_body: int = 8 << 20,
                 header_timeout: float = 10.0,
                 body_timeout: float = 30.0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_body = max_body
        self.header_timeout = header_timeout
        self.body_timeout = body_timeout
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        """Bind and listen; ``self.port`` reflects the bound port."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("listening on http://%s:%d", self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Connection handling

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        peer_label = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) \
            else str(peer)
        try:
            while True:
                try:
                    raw = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), self.header_timeout)
                except asyncio.IncompleteReadError:
                    return  # client closed between requests
                except asyncio.TimeoutError:
                    await self._respond(writer, 408,
                                        {"error": "header read timed out"})
                    return
                except asyncio.LimitOverrunError:
                    await self._respond(writer, 431,
                                        {"error": "headers too large"})
                    return
                request = self._parse_request(raw)
                if request is None:
                    await self._respond(writer, 400,
                                        {"error": "malformed request"})
                    return
                method, path, query, headers = request
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0:
                    await self._respond(writer, 400,
                                        {"error": "invalid content-length"})
                    return
                if length > self.max_body:
                    await self._respond(writer, 413,
                                        {"error": "payload too large"})
                    return
                body = b""
                if length:
                    try:
                        body = await asyncio.wait_for(
                            reader.readexactly(length), self.body_timeout)
                    except (asyncio.IncompleteReadError,
                            asyncio.TimeoutError):
                        await self._respond(
                            writer, 408, {"error": "body read timed out"})
                        return
                status, payload, extra = await self._route(
                    method, path, query, headers, body, peer_label)
                if get_chaos().take_drop_client():
                    writer.transport.abort()
                    return
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, extra,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        except Exception:  # noqa: BLE001 - one connection, not the server
            logger.exception("connection handler failed (%s)", peer_label)
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    @staticmethod
    def _parse_request(raw: bytes):
        try:
            head = raw.decode("latin-1")
            request_line, *header_lines = head.split("\r\n")
            method, target, _version = request_line.split(" ", 2)
            parts = urlsplit(target)
            query = {key: values[-1] for key, values
                     in parse_qs(parts.query).items()}
            headers = {}
            for line in header_lines:
                if not line:
                    continue
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
            return method.upper(), parts.path, query, headers
        except ValueError:
            return None

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict, extra: dict | None = None,
                       keep_alive: bool = True) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                "content-type: application/json",
                f"content-length: {len(body)}",
                f"connection: {'keep-alive' if keep_alive else 'close'}"]
        for key, value in (extra or {}).items():
            head.append(f"{key}: {value}")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n"
                     + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing

    async def _route(self, method: str, path: str, query: dict,
                     headers: dict, body: bytes, peer: str):
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}, {}
            return 200, self.service.health(), {}
        if path == "/metricsz":
            if method != "GET":
                return 405, {"error": "GET only"}, {}
            return 200, self.service.metrics_snapshot(), {}
        if path in ("/v1/jobs", "/v1/solve"):
            if method != "POST":
                return 405, {"error": "POST only"}, {}
            return await self._submit(query, headers, body, peer)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return 405, {"error": "GET only"}, {}
            tail = path[len("/v1/jobs/"):]
            job_id, _, sub = tail.partition("/")
            job = self.service.get_job(job_id)
            if job is None:
                return 404, {"error": f"unknown job {job_id!r}"}, {}
            if sub == "result":
                if not job.terminal:
                    return 409, _job_payload(job, False), {}
                return 200, _job_payload(job, True), {}
            if sub:
                return 404, {"error": "not found"}, {}
            await self._maybe_wait(job, query)
            return 200, _job_payload(job, True), {}
        return 404, {"error": "not found"}, {}

    @staticmethod
    def _wait_budget(query: dict) -> float:
        try:
            return max(0.0, min(float(query.get("wait", 0.0)), MAX_WAIT_S))
        except (TypeError, ValueError):
            return 0.0

    async def _maybe_wait(self, job: Job, query: dict) -> None:
        wait = self._wait_budget(query)
        if wait <= 0 or job.terminal:
            return
        try:
            await asyncio.wait_for(job.done_event.wait(), wait)
        except asyncio.TimeoutError:
            pass

    async def _submit(self, query: dict, headers: dict, body: bytes,
                      peer: str):
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"error": f"invalid JSON body: {error}"}, {}
        client = headers.get("x-client-id") or peer.rsplit(":", 1)[0]
        tracer = get_tracer()
        # Admission is synchronous, so the span cleanly covers validation,
        # quota, dedup and enqueue without interleaving other requests.
        with tracer.span("request", client=client) as span:
            try:
                task = parse_job(data)
                span.set(kind=task.kind)
                job, outcome = self.service.submit(task, client=client)
                span.set(outcome=outcome, job=job.id)
            except BadRequest as error:
                span.set(outcome="bad-request")
                return 400, {"error": str(error)}, {}
            except AdmissionError as error:
                span.set(outcome=error.reason)
                extra = {}
                if error.retry_after:
                    extra["retry-after"] = f"{error.retry_after:.3f}"
                return error.status, \
                    {"error": str(error), "reason": error.reason}, extra
        await self._maybe_wait(job, query)
        body = _job_payload(job, job.terminal)
        body["outcome"] = outcome
        return (200 if job.terminal else 202), body, {}
