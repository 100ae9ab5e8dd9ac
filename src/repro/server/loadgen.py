"""Load generator for the solve server: mixed workloads, honest clients.

``python -m repro.server.loadgen`` drives a running server (or spawns an
in-process one) with a seeded mix of solve / preprocess / sweep requests,
a tunable fraction of which are deliberate duplicates — exercising the
dedup/memo path the way real traffic would.  Clients are *well-behaved by
default*: they honour ``Retry-After`` on 429 with bounded retries and
poll 202 jobs to a terminal state, so the report can assert the server's
core promise (every accepted request reaches a terminal status) from the
outside.

The chaos hook ``take_slow_client`` turns individual clients into
slow-loris senders (bytes trickled one at a time), which a hardened
server must disconnect rather than absorb.

The same module is the engine of the ``server_throughput`` perf
benchmark: :func:`run_load` returns a :class:`LoadReport` with sustained
req/s, p50/p99 latency and dedup hit counts.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from dataclasses import dataclass, field

from repro.aig.aiger import write_aiger
from repro.benchgen import adder_equivalence_miter, random_aig, random_cnf
from repro.cnf import write_dimacs
from repro.resilience.chaos import get_chaos

__all__ = ["LoadReport", "RequestOutcome", "build_workload", "run_load",
           "main"]

#: Socket/read budget per HTTP exchange — loadgen must never hang.
_REQUEST_TIMEOUT = 60.0


@dataclass
class RequestOutcome:
    """What one submitted request came to."""

    kind: str
    ok: bool
    status: str | None = None      # terminal verdict (SAT/UNSAT/DONE/...)
    http: int = 0
    latency_s: float = 0.0
    cached: bool = False
    retries: int = 0
    error: str | None = None


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class LoadReport:
    """Aggregate view of one load run."""

    outcomes: list[RequestOutcome] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def errors(self) -> int:
        return self.requests - self.ok

    @property
    def dedup_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    @property
    def rps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    def _latencies(self) -> list[float]:
        return [o.latency_s for o in self.outcomes if o.ok]

    @property
    def p50_ms(self) -> float:
        return 1000.0 * _percentile(self._latencies(), 0.50)

    @property
    def p99_ms(self) -> float:
        return 1000.0 * _percentile(self._latencies(), 0.99)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "dedup_hits": self.dedup_hits,
            "retries": self.retries,
            "wall_s": round(self.wall_s, 3),
            "rps": round(self.rps, 1),
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
        }

    def summary(self) -> str:
        return (f"{self.requests} requests: {self.ok} ok, "
                f"{self.errors} errors, {self.dedup_hits} dedup hits, "
                f"{self.retries} retries | {self.rps:.1f} req/s, "
                f"p50 {self.p50_ms:.1f} ms, p99 {self.p99_ms:.1f} ms")


# ---------------------------------------------------------------------- #
# Workload construction

def build_workload(num_requests: int, seed: int = 0,
                   mix: tuple[str, ...] = ("cnf", "aig", "preprocess",
                                           "sweep"),
                   dup_fraction: float = 0.35) -> list[dict]:
    """A seeded list of job-spec dicts with deliberate duplicates.

    ``dup_fraction`` of the requests resubmit an earlier payload
    verbatim, so a healthy server shows a nonzero dedup hit-rate under
    this workload.  Instances are small on purpose: the load generator
    measures the *service*, not the solver.
    """
    rng = random.Random(seed)
    fresh: list[dict] = []
    index = 0
    while len(fresh) < num_requests:
        family = mix[index % len(mix)]
        index += 1
        if family == "cnf":
            cnf = random_cnf(num_vars=24 + rng.randrange(12),
                             num_clauses=100 + rng.randrange(60),
                             seed=rng.randrange(1 << 30))
            fresh.append({"kind": "solve", "payload": write_dimacs(cnf),
                          "name": f"lg-cnf-{index}"})
        elif family == "aig":
            aig = adder_equivalence_miter(3 + index % 2)
            fresh.append({"kind": "solve", "payload": write_aiger(aig),
                          "fmt": "aig", "pipeline": "baseline",
                          "name": f"lg-aig-{index}",
                          # tiny seed-salt via config keeps specs distinct
                          "config": ("kissat_like", "cadical_like",
                                     "default")[index % 3]})
        elif family == "preprocess":
            aig = random_aig(num_pis=4 + index % 3,
                             num_nodes=30 + rng.randrange(30),
                             seed=rng.randrange(1 << 30))
            fresh.append({"kind": "preprocess", "payload": write_aiger(aig),
                          "fmt": "aig", "pipeline": "baseline",
                          "name": f"lg-pre-{index}"})
        else:
            aig = random_aig(num_pis=5, num_nodes=40 + rng.randrange(20),
                             seed=rng.randrange(1 << 30))
            fresh.append({"kind": "sweep", "payload": write_aiger(aig),
                          "fmt": "aig", "name": f"lg-sweep-{index}"})
    workload: list[dict] = []
    issued: list[dict] = []
    pending = list(fresh)
    for _ in range(num_requests):
        if issued and rng.random() < dup_fraction:
            workload.append(dict(rng.choice(issued)))
        else:
            spec = pending.pop(0) if pending else dict(rng.choice(fresh))
            issued.append(spec)
            workload.append(dict(spec))
    return workload


# ---------------------------------------------------------------------- #
# Minimal asyncio HTTP client

async def _http_request(host: str, port: int, method: str, path: str,
                        body: bytes | None = None,
                        client_id: str | None = None,
                        slow: bool = False) -> tuple[int, dict, dict]:
    """One HTTP exchange; returns (status, headers, decoded JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = [f"{method} {path} HTTP/1.1", f"host: {host}:{port}",
                "connection: close"]
        if client_id:
            head.append(f"x-client-id: {client_id}")
        if body is not None:
            head.append("content-type: application/json")
            head.append(f"content-length: {len(body)}")
        request = "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" \
            + (body or b"")
        if slow:
            # Slow-loris: trickle the request one byte at a time.  A
            # hardened server times the read out and disconnects.
            for offset in range(0, len(request)):
                writer.write(request[offset:offset + 1])
                await writer.drain()
                await asyncio.sleep(0.02)
        else:
            writer.write(request)
            await writer.drain()
        raw = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                     _REQUEST_TIMEOUT)
        status_line, *header_lines = raw.decode("latin-1").split("\r\n")
        status = int(status_line.split(" ", 2)[1])
        headers: dict = {}
        for line in header_lines:
            if line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        payload: dict = {}
        if length:
            blob = await asyncio.wait_for(reader.readexactly(length),
                                          _REQUEST_TIMEOUT)
            payload = json.loads(blob.decode("utf-8"))
        return status, headers, payload
    finally:
        try:
            writer.close()
        except Exception:  # pragma: no cover
            pass


# ---------------------------------------------------------------------- #
# The driver

async def run_load(host: str, port: int, workload: list[dict], *,
                   concurrency: int = 8, sync_wait: float = 10.0,
                   poll_wait: float = 2.0, max_retries: int = 8,
                   max_polls: int = 120,
                   client_prefix: str = "loadgen") -> LoadReport:
    """Drive ``workload`` through the server at ``concurrency`` clients."""
    queue: asyncio.Queue = asyncio.Queue()
    for index, spec in enumerate(workload):
        queue.put_nowait((index, spec))
    outcomes: list[RequestOutcome | None] = [None] * len(workload)

    async def _drive_one(worker_id: int, index: int, spec: dict) -> None:
        outcome = RequestOutcome(kind=spec.get("kind", "solve"), ok=False)
        outcomes[index] = outcome
        body = json.dumps(spec).encode("utf-8")
        client_id = f"{client_prefix}-{worker_id}"
        start = time.perf_counter()
        try:
            payload: dict = {}
            while True:
                slow = get_chaos().take_slow_client()
                status, headers, payload = await _http_request(
                    host, port, "POST", f"/v1/jobs?wait={sync_wait}",
                    body=body, client_id=client_id, slow=slow)
                outcome.http = status
                if status == 429 and outcome.retries < max_retries:
                    outcome.retries += 1
                    await asyncio.sleep(
                        min(float(headers.get("retry-after", 0.05)), 2.0))
                    continue
                break
            submit_outcome = payload.get("outcome")
            if status == 202:
                job_id = payload.get("job", "")
                for _ in range(max_polls):
                    status, _, payload = await _http_request(
                        host, port, "GET",
                        f"/v1/jobs/{job_id}?wait={poll_wait}",
                        client_id=client_id)
                    if status != 200 \
                            or payload.get("state") in ("done", "cancelled"):
                        break
                if status == 200 and payload.get("state") == "done":
                    # Exercise the explicit fetch endpoint too.
                    status, _, payload = await _http_request(
                        host, port, "GET", f"/v1/jobs/{job_id}/result",
                        client_id=client_id)
            outcome.latency_s = time.perf_counter() - start
            if status == 200 and payload.get("state") == "done":
                outcome.ok = True
                outcome.status = payload.get("status")
                outcome.cached = (submit_outcome in ("cached", "dedup")
                                  or bool(payload.get("cached")))
            else:
                outcome.error = str(payload.get("error")
                                    or payload.get("state")
                                    or f"http {status}")
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                json.JSONDecodeError) as error:
            outcome.latency_s = time.perf_counter() - start
            outcome.error = f"{type(error).__name__}: {error}"

    async def _worker(worker_id: int) -> None:
        while True:
            try:
                index, spec = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            await _drive_one(worker_id, index, spec)

    started = time.perf_counter()
    await asyncio.gather(*(_worker(i) for i in range(max(1, concurrency))))
    report = LoadReport(
        outcomes=[o for o in outcomes if o is not None],
        wall_s=time.perf_counter() - started)
    return report


async def _run_against_url(url: str, workload: list[dict],
                           **kwargs) -> LoadReport:
    from urllib.parse import urlsplit

    parts = urlsplit(url if "//" in url else f"//{url}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80
    return await run_load(host, port, workload, **kwargs)


async def _run_spawned(workload: list[dict], jobs: int,
                       **kwargs) -> LoadReport:
    """Spawn an in-process server, drive it, drain it."""
    import tempfile

    from repro.runner.store import ResultStore
    from repro.server.http import HttpServer
    from repro.server.service import SolveService

    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        service = SolveService(jobs=jobs, max_queue=max(64, len(workload)),
                               quota_rate=10_000.0, quota_burst=10_000.0,
                               store=ResultStore(f"{tmp}/store.jsonl"))
        await service.start()
        http = HttpServer(service)
        await http.start()
        try:
            return await run_load(http.host, http.port, workload, **kwargs)
        finally:
            await http.stop()
            await service.shutdown(grace=30.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.loadgen",
        description="Drive a repro solve server with a mixed workload.")
    parser.add_argument("--url", default=None,
                        help="server base URL (e.g. http://127.0.0.1:8080); "
                             "omit to spawn an in-process server")
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dup-fraction", type=float, default=0.35)
    parser.add_argument("--mix", default="cnf,aig,preprocess,sweep",
                        help="comma-separated families to include")
    parser.add_argument("--sync-wait", type=float, default=10.0,
                        help="seconds a submission may block for a result")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count for the spawned server")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON")
    args = parser.parse_args(argv)

    mix = tuple(part.strip() for part in args.mix.split(",") if part.strip())
    workload = build_workload(args.requests, seed=args.seed, mix=mix,
                              dup_fraction=args.dup_fraction)
    kwargs = dict(concurrency=args.concurrency, sync_wait=args.sync_wait)
    if args.url:
        report = asyncio.run(_run_against_url(args.url, workload, **kwargs))
    else:
        report = asyncio.run(_run_spawned(workload, args.jobs, **kwargs))
    print(report.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if report.errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
