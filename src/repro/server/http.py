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

**Transport.**  Each connection is one :class:`asyncio.Protocol` object
that answers from callbacks, with no task per request: it buffers bytes,
parses a head at the blank line, takes exactly ``Content-Length`` body
bytes, routes synchronously and writes the answer to the transport.  A
``?wait=`` request registers a done-callback on its
:class:`~repro.server.service.Job`, which the service runs when the job
settles, plus one timer for the wait budget.  Pipelined requests are
answered in order: request N+1 is not parsed before request N is
answered.  A client that disconnects mid-wait drops only its answer; the
job still completes and is stored.

Protection at the socket edge (the service protects its workers; this
layer protects the *event loop*):

* header and body read budgets (``header_timeout`` / ``body_timeout``,
  one re-armed timer per connection) — a slow-loris client gets a 408
  and is disconnected, never parked indefinitely;
* ``max_body`` caps payload bytes (HTTP 413, before any body byte is
  read), a malformed head or a malformed or negative ``Content-Length``
  is refused (400), and header bytes past 64 KiB are refused (431);
* a refused connection closes its write side and drains what the client
  still sends for a moment before closing, so the error response is not
  lost to a TCP reset;
* ``Expect: 100-continue`` is answered with ``100 Continue`` before a
  body the client holds back is read (an oversized one gets its 413 at
  once), so such clients do not stall for their expect timeout;
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
from dataclasses import dataclass
from typing import Callable, Union
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
#: connection (and its server-side wait) forever.
MAX_WAIT_S = 120.0

#: Header bytes allowed before the blank line that ends them (HTTP 431).
_MAX_HEAD = 1 << 16

#: Seconds a refused connection keeps draining client bytes before it
#: closes, so its error response is not lost to a TCP reset.
_LINGER_S = 2.0

_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


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


@dataclass(frozen=True, slots=True)
class _Pending:
    """A routed request whose answer waits for ``job`` (``?wait=``)."""

    job: Job
    wait: float
    answer: Callable[[], tuple[int, dict, dict]]


#: What routing returns: an answer now, or one once a job settles.
_Routed = Union[tuple[int, dict, dict], _Pending]


def _parse_head(raw: bytes):
    """``(method, path, query, headers)`` of a request head, or None."""
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


def _response(status: int, payload: dict, extra: dict | None,
              keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "content-type: application/json",
            f"content-length: {len(body)}",
            f"connection: {'keep-alive' if keep_alive else 'close'}"]
    for key, value in (extra or {}).items():
        head.append(f"{key}: {value}")
    return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body


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
        self._stopping = False
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()

    async def start(self) -> None:
        """Bind and listen; ``self.port`` reflects the bound port."""
        loop = asyncio.get_running_loop()
        self._stopping = False
        self._server = await loop.create_server(
            lambda: _Connection(self, loop), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("listening on http://%s:%d", self.host, self.port)

    async def stop(self) -> None:
        """Stop listening and close idle connections.

        A connection still reading or answering a request finishes it
        and then closes; a waiting one at the latest when the service
        drains, which settles its job.  So this does not wait for them
        (``Server.wait_closed`` would, on Python 3.12+), or a drain that
        follows would never start.
        """
        self._stopping = True
        for connection in list(self._connections):
            connection.close_if_idle()
        if self._server is not None:
            self._server.close()
            self._server = None

    # ------------------------------------------------------------------ #
    # Routing

    def _route(self, method: str, path: str, query: dict, headers: dict,
               body: bytes, peer: str) -> _Routed:
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
            return self._submit(query, headers, body, peer)
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
            return self._maybe_wait(
                job, query, lambda: (200, _job_payload(job, True), {}))
        return 404, {"error": "not found"}, {}

    @staticmethod
    def _wait_budget(query: dict) -> float:
        try:
            return max(0.0, min(float(query.get("wait", 0.0)), MAX_WAIT_S))
        except (TypeError, ValueError):
            return 0.0

    def _maybe_wait(self, job: Job, query: dict,
                    answer: Callable[[], tuple[int, dict, dict]]) -> _Routed:
        wait = self._wait_budget(query)
        if wait <= 0 or job.terminal:
            return answer()
        return _Pending(job, wait, answer)

    def _submit(self, query: dict, headers: dict, body: bytes,
                peer: str) -> _Routed:
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

        def answer() -> tuple[int, dict, dict]:
            payload = _job_payload(job, job.terminal)
            payload["outcome"] = outcome
            return (200 if job.terminal else 202), payload, {}

        return self._maybe_wait(job, query, answer)


class _Connection(asyncio.Protocol):
    """One client connection: parse, route and answer requests in order.

    Reading is the only state that needs a deadline, so one timer per
    connection carries it: :meth:`_arm_read` moves the deadline, and the
    timer, when it fires before a deadline that moved later, re-schedules
    itself for it (an earlier deadline re-schedules the timer at once).
    """

    def __init__(self, server: HttpServer,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.server = server
        self.loop = loop
        self.transport: asyncio.Transport | None = None
        self.peer = "?"
        self.buffer = bytearray()
        self.request: tuple | None = None   # head read, body still due
        self.keep_alive = True
        self.pending: _Pending | None = None
        self.wait_timer: asyncio.TimerHandle | None = None
        self.read_deadline: float | None = None
        self.read_error = ""
        self.read_timer: asyncio.TimerHandle | None = None
        self.eof = False
        self.closing = False
        self.paused = False

    # ---------------------------------------------------------------- #
    # asyncio.Protocol callbacks

    def connection_made(self, transport) -> None:
        self.transport = transport
        peer = transport.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) \
            else str(peer)
        self.server._connections.add(self)
        self._arm_read(self.server.header_timeout, "header read timed out")

    def connection_lost(self, exc) -> None:
        self.closing = True
        self.server._connections.discard(self)
        self.read_deadline = None
        if self.read_timer is not None:
            self.read_timer.cancel()
            self.read_timer = None
        if self.pending is not None:
            # The client is gone: drop its answer, never its job.
            self.pending.job.remove_done_callback(self._on_job_done)
            self.wait_timer.cancel()
            self.pending = None

    def data_received(self, data: bytes) -> None:
        if self.closing:
            return  # lingering after a refusal: discard
        self.buffer += data
        if self.pending is None:
            self._advance()
        elif (not self.paused
              and len(self.buffer) > _MAX_HEAD + self.server.max_body):
            self.transport.pause_reading()  # a pipelining client, held
            self.paused = True

    def eof_received(self) -> bool:
        self.eof = True
        if self.closing:
            return False  # the lingering client is done: close
        if self.pending is None:
            self._advance()
        return True  # keep the write side open for a pending answer

    # ---------------------------------------------------------------- #
    # Reading

    def _advance(self) -> None:
        """Answer buffered requests until one waits or the bytes run out."""
        while self.pending is None and not self.closing:
            if self.request is None:
                end = self.buffer.find(b"\r\n\r\n")
                if end > _MAX_HEAD or (end < 0 and
                                       len(self.buffer) - 3 > _MAX_HEAD):
                    self._refuse(431, "headers too large")
                    return
                if end < 0:
                    if self.eof:  # closed between (or inside) requests
                        self._close()
                    return
                head = _parse_head(bytes(self.buffer[:end]))
                del self.buffer[:end + 4]
                if head is None:
                    self._refuse(400, "malformed request")
                    return
                headers = head[3]
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0:
                    self._refuse(400, "invalid content-length")
                    return
                if length > self.server.max_body:
                    self._refuse(413, "payload too large")
                    return
                self.request = (*head, length)
                if len(self.buffer) < length:
                    if headers.get("expect", "").lower() == "100-continue":
                        self.transport.write(_CONTINUE)
                    self._arm_read(self.server.body_timeout,
                                   "body read timed out")
            length = self.request[4]
            if len(self.buffer) < length:
                if self.eof:
                    self._refuse(408, "body read timed out")
                return
            body = bytes(self.buffer[:length])
            del self.buffer[:length]
            method, path, query, headers, _ = self.request
            self.request = None
            self.read_deadline = None
            self.keep_alive = headers.get("connection", "").lower() != "close"
            self._serve(method, path, query, headers, body)

    def _arm_read(self, timeout: float, error: str) -> None:
        self.read_deadline = self.loop.time() + timeout
        self.read_error = error
        if self.read_timer is not None:
            if self.read_timer.when() <= self.read_deadline:
                return  # fires first and re-schedules itself
            self.read_timer.cancel()
        self.read_timer = self.loop.call_at(self.read_deadline,
                                            self._on_read_timer)

    def _on_read_timer(self) -> None:
        self.read_timer = None
        if self.read_deadline is None or self.closing:
            return  # not reading now; the next _arm_read re-arms
        if self.loop.time() < self.read_deadline:
            self.read_timer = self.loop.call_at(self.read_deadline,
                                                self._on_read_timer)
            return
        self._refuse(408, self.read_error)

    # ---------------------------------------------------------------- #
    # Answering

    def _serve(self, method: str, path: str, query: dict, headers: dict,
               body: bytes) -> None:
        try:
            routed = self.server._route(method, path, query, headers,
                                        body, self.peer)
        except Exception:  # noqa: BLE001 - one connection, not the server
            logger.exception("request handler failed (%s)", self.peer)
            self._abort()
            return
        if isinstance(routed, _Pending):
            self.pending = routed
            routed.job.add_done_callback(self._on_job_done)
            self.wait_timer = self.loop.call_later(routed.wait,
                                                   self._on_wait_expired)
            return
        self._answer(routed)

    def _on_job_done(self, _job: Job) -> None:
        self.wait_timer.cancel()
        self._end_wait()

    def _on_wait_expired(self) -> None:
        self.pending.job.remove_done_callback(self._on_job_done)
        self._end_wait()

    def _end_wait(self) -> None:
        pending, self.pending = self.pending, None
        self.wait_timer = None
        self._answer(pending.answer())
        if self.paused and not self.closing:
            self.transport.resume_reading()
            self.paused = False
        if (self.buffer or self.eof) and not self.closing:
            # Not inline: this runs inside the service's settle step,
            # which the next request's admission must not re-enter.
            self.loop.call_soon(self._advance)

    def _answer(self, routed: tuple[int, dict, dict]) -> None:
        if get_chaos().take_drop_client():
            self._abort()
            return
        status, payload, extra = routed
        keep_alive = self.keep_alive and not self.server._stopping
        self.transport.write(_response(status, payload, extra, keep_alive))
        if keep_alive:
            self._arm_read(self.server.header_timeout,
                           "header read timed out")
        else:
            self._close()

    def _refuse(self, status: int, error: str) -> None:
        """Answer ``status`` and close, draining what the client still
        sends for a moment so the answer is not lost to a TCP reset."""
        self.transport.write(_response(status, {"error": error}, None,
                                       keep_alive=False))
        self.closing = True
        self.read_deadline = None
        self.buffer.clear()
        if self.eof or not self.transport.can_write_eof():
            self.transport.close()
            return
        self.transport.write_eof()
        self.loop.call_later(_LINGER_S, self.transport.close)

    def _close(self) -> None:
        self.closing = True
        self.transport.close()

    def _abort(self) -> None:
        self.closing = True
        self.transport.abort()

    def close_if_idle(self) -> None:
        """Close now unless a request is being read or answered."""
        if (self.pending is None and self.request is None
                and not self.buffer and not self.closing):
            self._close()
