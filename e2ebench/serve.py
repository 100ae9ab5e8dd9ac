"""Workload ``serve_mixed``: ``repro serve`` under a closed-loop client.

Each pass boots the server with one worker as a subprocess on a cold
sharded store, drives a fixed, seeded list of small requests through it
with one client that waits for each verdict before sending the next
request, reads ``/metricsz`` and stops the server with SIGTERM, which must
exit 0.  The HTTP client is written here, not taken from the program, so
that a change to the server cannot change the instrument.

Every pass sends the same requests to a cold store, so each request is
timed once per pass and its latency is the median over the passes.  A
vCPU taken away by the host for a few milliseconds inflates the requests
it lands on in one pass, not in most, so the median filters it out.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (ROOT, TMP_DIR, Tally, check_default_digest, digest,
                    median, percentile, timed_setup)

from repro.aig.aiger import read_aiger, write_aiger
from repro.aig.simulate import po_truth_tables
from repro.benchgen import adder_equivalence_miter, random_aig, random_cnf
from repro.cnf import read_dimacs, write_dimacs
from repro.sat.dpll import dpll_solve

DEFAULT_SEED = 0
#: Requests in one pass; at least 1 000 so that the p99 has ten samples
#: above it.
REQUESTS = 2000
#: Share of requests that resubmit an earlier payload verbatim.
DUP_SHARE = 1.0 / 3.0
KINDS = ("solve_cnf", "solve_aig", "preprocess", "sweep")
#: A request is given up after the submission and ``MAX_POLLS`` polls,
#: each waiting at most ``WAIT_S``, so one run stays well inside its limit.
WAIT_S = 10.0
MAX_POLLS = 3
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def input_digest(seed: int) -> str:
    return digest(make_requests(seed))


def _fresh(kind: str, index: int, rng: random.Random) -> dict:
    seed = rng.randrange(1 << 30)
    if kind == "solve_cnf":
        num_vars = 14 + rng.randrange(8)
        num_clauses = round(num_vars * (3.8 + 0.9 * rng.random()))
        cnf = random_cnf(num_vars, num_clauses, seed=seed, min_width=3,
                         max_width=3)
        return {"kind": "solve", "fmt": "cnf", "payload": write_dimacs(cnf),
                "name": f"cnf-{index}"}
    if kind == "solve_aig":
        aig = adder_equivalence_miter(3 + rng.randrange(3), mutated=True,
                                      seed=seed)
        return {"kind": "solve", "fmt": "aig", "payload": write_aiger(aig),
                "pipeline": "baseline", "name": f"aig-{index}"}
    if kind == "preprocess":
        aig = random_aig(num_pis=4 + rng.randrange(3),
                         num_nodes=30 + rng.randrange(30), seed=seed)
        return {"kind": "preprocess", "fmt": "aig",
                "payload": write_aiger(aig), "pipeline": "baseline",
                "name": f"pre-{index}"}
    aig = random_aig(num_pis=5, num_nodes=40 + rng.randrange(20), seed=seed)
    return {"kind": "sweep", "fmt": "aig", "payload": write_aiger(aig),
            "name": f"sweep-{index}"}


def make_requests(seed: int) -> list[tuple[str, dict]]:
    """A seeded list of (kind, job spec); about a third are resubmissions."""
    rng = random.Random(seed)
    requests: list[tuple[str, dict]] = []
    issued: list[tuple[str, dict]] = []
    for index in range(REQUESTS):
        if issued and rng.random() < DUP_SHARE:
            requests.append(rng.choice(issued))
            continue
        kind = KINDS[len(issued) % len(KINDS)]
        request = (kind, _fresh(kind, index, rng))
        issued.append(request)
        requests.append(request)
    return requests


@dataclass
class Outcome:
    index: int
    latency: float = 0.0
    ok: bool = False
    cached: bool = False
    status: str | None = None
    result: dict = field(default_factory=dict)
    error: str = ""


class Client:
    """One closed-loop client on a keep-alive connection."""

    def __init__(self, port: int, name: str) -> None:
        self.port = port
        self.name = name
        self.conn: http.client.HTTPConnection | None = None

    def _exchange(self, method: str, path: str,
                  body: bytes | None = None) -> tuple[int, dict]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=WAIT_S + 5.0)
        headers = {"x-client-id": self.name}
        if body is not None:
            headers["content-type"] = "application/json"
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, json.loads(data.decode("utf-8"))

    def run(self, index: int, body: bytes) -> Outcome:
        outcome = Outcome(index=index)
        start = time.perf_counter()
        try:
            status, payload = self._exchange("POST", f"/v1/jobs?wait={WAIT_S}",
                                             body)
            submitted = payload.get("outcome")
            polls = 0
            while status in (200, 202) and payload.get("state") not in (
                    "done", "cancelled") and polls < MAX_POLLS:
                polls += 1
                status, payload = self._exchange(
                    "GET", f"/v1/jobs/{payload['job']}?wait={WAIT_S}")
            outcome.latency = time.perf_counter() - start
            if status == 200 and payload.get("state") == "done":
                outcome.ok = True
                outcome.cached = submitted in ("cached", "dedup")
                outcome.status = payload.get("status")
                outcome.result = payload.get("result") or {}
            else:
                outcome.error = (f"http {status}, state "
                                 f"{payload.get('state')}: "
                                 f"{payload.get('error', '')}")
        except (OSError, http.client.HTTPException, ValueError,
                KeyError) as error:
            outcome.latency = time.perf_counter() - start
            outcome.error = f"{type(error).__name__}: {error}"
        return outcome

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def get(self, path: str) -> dict:
        return self._exchange("GET", path)[1]


class Server:
    """``python -m repro serve`` in a subprocess with its own store."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.boot_s = 0.0
        self.boot_cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.cpu_s = 0.0

    def start(self) -> None:
        self.workdir.mkdir(parents=True)
        ready = self.workdir / "url.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        # One client keeps one request in flight, which one worker serves.
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--jobs", "1", "--quota-rate", "1000000",
                   "--quota-burst", "1000000", "--store",
                   str(self.workdir / "store"), "--ready-file", str(ready),
                   "-q"]
        start = time.perf_counter()
        with open(self.workdir / "server.log", "wb") as log:
            self.proc = subprocess.Popen(command, cwd=self.workdir, env=env,
                                         stdin=subprocess.DEVNULL,
                                         stdout=log, stderr=log)
        while not (ready.exists() and ready.read_text().endswith("\n")):
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f" during boot: {self.log_tail()}")
            if time.perf_counter() - start > BOOT_TIMEOUT_S:
                raise RuntimeError("server did not become ready")
            time.sleep(0.005)
        self.boot_s = time.perf_counter() - start
        self.boot_cpu_s = _proc_cpu_s(self.proc.pid)
        self.port = int(ready.read_text().strip().rsplit(":", 1)[1])

    def note_memory(self) -> None:
        """Peak resident memory of the server and its workers, summed.

        Read from ``/proc`` while they run: the ``ru_maxrss`` that
        reaping reports would include this process's memory, which the
        server's pre-exec copy of it held.
        """
        assert self.proc is not None
        pids = [self.proc.pid, *_proc_children(self.proc.pid)]
        self.peak_rss_mb = sum(_proc_peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> int:
        """SIGTERM and reap; returns the exit code.

        Reaping with ``wait4`` gives the CPU time of the server and of the
        workers it reaped; what the server spent booting is left out.
        """
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while time.perf_counter() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.cpu_s = usage.ru_utime + usage.ru_stime - self.boot_cpu_s
                return self.proc.returncode
            time.sleep(0.01)
        self.kill()
        return -1

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def log_tail(self) -> str:
        path = self.workdir / "server.log"
        return path.read_text(errors="replace")[-2000:] if path.exists() \
            else ""

    def store_records(self) -> int:
        """Whole JSON lines across the store's shard files."""
        count = 0
        for path in (self.workdir / "store").glob("**/shard-*.jsonl"):
            for line in path.read_text(encoding="utf-8").splitlines():
                try:
                    json.loads(line)
                except json.JSONDecodeError:
                    continue
                count += 1
        return count


def _proc_stat(pid: int) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` from the state on (field 3)."""
    text = Path(f"/proc/{pid}/stat").read_text()
    # The command name before the state is in parentheses and may hold
    # spaces or parentheses of its own.
    return text.rsplit(")", 1)[1].split()


def _proc_cpu_s(pid: int) -> float:
    """User plus system time of a running process and its reaped children."""
    utime, stime, cutime, cstime = _proc_stat(pid)[11:15]
    ticks = int(utime) + int(stime) + int(cutime) + int(cstime)
    return ticks / os.sysconf("SC_CLK_TCK")


def _proc_children(pid: int) -> list[int]:
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if int(_proc_stat(int(entry.name))[1]) == pid:
                children.append(int(entry.name))
        except (OSError, IndexError, ValueError):
            continue
    return children


def _proc_peak_rss_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def drive(port: int, requests: list[tuple[str, dict]]) -> list[Outcome]:
    """Send every request, in order, through one closed-loop client."""
    bodies = [json.dumps(spec).encode("utf-8") for _, spec in requests]
    client = Client(port, "bench-0")
    try:
        return [client.run(index, body) for index, body in enumerate(bodies)]
    finally:
        client.close()


class Checker:
    """Verdicts from references that do not come from the server."""

    def __init__(self) -> None:
        self._memo: dict[str, object] = {}

    def _once(self, key: str, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _aig_verdict(self, text: str) -> str:
        def compute() -> str:
            tables = po_truth_tables(read_aiger(text))
            return "SAT" if any(tables) else "UNSAT"
        return self._once("sim:" + text, compute)

    def check(self, kind: str, spec: dict, outcome: Outcome) -> str:
        """An empty string when the result is right, else the reason.

        Resubmissions and later passes return the same verdict and
        artefact for the same payload, so each distinct pair is checked
        once.
        """
        artefact = {"solve_cnf": "model", "preprocess": "dimacs",
                    "sweep": "aiger"}.get(kind)
        key = json.dumps([kind, spec["payload"], outcome.status,
                          outcome.result.get(artefact) if artefact else None],
                         sort_keys=True)
        return self._once("check:" + key,
                          lambda: self._check(kind, spec["payload"], outcome))

    def _check(self, kind: str, payload: str, outcome: Outcome) -> str:
        result = outcome.result
        if kind == "solve_cnf":
            cnf = read_dimacs(payload)
            expected = self._once("dpll:" + payload,
                                  lambda: dpll_solve(cnf)[0])
            if outcome.status != expected:
                return f"verdict {outcome.status}, dpll says {expected}"
            if expected == "SAT":
                model = {int(var): value
                         for var, value in result.get("model", {}).items()}
                if not cnf.evaluate(model):
                    return "returned model does not satisfy the CNF"
            return ""
        if kind == "solve_aig":
            expected = self._aig_verdict(payload)
            return "" if outcome.status == expected else \
                f"verdict {outcome.status}, simulation says {expected}"
        if outcome.status != "DONE":
            return f"status {outcome.status}"
        if kind == "preprocess":
            cnf = read_dimacs(result.get("dimacs", ""))
            got = dpll_solve(cnf, max_variables=cnf.num_vars)[0]
            expected = self._aig_verdict(payload)
            return "" if got == expected else \
                f"preprocessed CNF is {got}, circuit is {expected}"
        same = po_truth_tables(read_aiger(result.get("aiger", ""))) \
            == po_truth_tables(read_aiger(payload))
        return "" if same else "swept AIG is not equivalent to its input"


def _counter(snapshot: dict, name: str) -> float:
    entry = snapshot.get("counters", {}).get(name, {})
    return float(entry.get("value", 0)) if isinstance(entry, dict) else 0.0


def measure(seed: int, seconds: float, traced: bool):
    """Run the workload; returns (tally, metrics, notes)."""
    tally = Tally()
    gen_s, digests = timed_setup("serve", "input_digest", seed)
    requests = make_requests(seed)
    if digests != {digest(requests)}:
        tally.problem("input generation is not deterministic")
    check_default_digest("serve_mixed", DEFAULT_SEED,
                         input_digest(DEFAULT_SEED))
    # Neither the name nor an AIGER comment is part of the computation.
    dup_share = 1.0 - len({json.dumps({**spec, "name": "", "payload": spec[
        "payload"].split("\nc\n")[0]}, sort_keys=True)
        for _, spec in requests}) / len(requests)

    run_dir = TMP_DIR / f"serve-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    passes: list[dict] = []
    started = time.perf_counter()
    try:
        while True:
            pass_start = time.perf_counter()
            passes.append(_one_pass(run_dir / f"pass-{len(passes)}",
                                    requests, tally))
            last = time.perf_counter() - pass_start
            if time.perf_counter() - started + last > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checker = Checker()
    for record in passes:
        for outcome in record["outcomes"]:
            kind, spec = requests[outcome.index]
            problem = outcome.error if not outcome.ok else \
                checker.check(kind, spec, outcome)
            tally.record(not problem, f"request {outcome.index} ({kind}): "
                                      f"{problem}")
        if record["exit_code"] != 0:
            tally.problem(f"server exited with {record['exit_code']} on "
                          f"SIGTERM")

    latencies = request_latencies(passes)
    # The client sends one request at a time, so the sum is a pass's wall
    # time with every request at its median latency.
    overall = sum(latencies)
    p99 = percentile(latencies, 0.99)
    above = sum(1 for value in latencies if value > p99)
    notes = [f"workload serve_mixed seed {seed}: {len(requests)} requests "
             f"per pass, 1 closed-loop client, duplicate share "
             f"{dup_share:.3f}",
             f"passes {len(passes)}, latency samples {len(latencies)} (one "
             f"per request, its median over the passes), above p99 {above}",
             f"overall_s {overall:.4f}, latency_p99_ms {1000.0 * p99:.4f}, "
             f"requests per second {len(latencies) / overall:.1f}"]
    if traced:
        metrics = _layer_metrics(passes, requests, latencies)
        metrics["overall_s"] = (overall, "s")
        metrics["latency_p99_ms"] = (1000.0 * p99, "ms")
    else:
        metrics = {
            "setup_s": (gen_s + median([r["boot"] for r in passes]), "s"),
            "overall_cpu_s": (median([r["cpu"] for r in passes]), "s"),
            "peak_rss_mb": (median([r["rss"] for r in passes]), "MB"),
        }
    return tally, metrics, notes


def request_latencies(passes: list[dict]) -> list[float]:
    """Each request's median latency over the passes that completed it."""
    by_index: dict[int, list[float]] = {}
    for record in passes:
        for outcome in record["outcomes"]:
            if outcome.ok:
                by_index.setdefault(outcome.index, []).append(outcome.latency)
    return [median(values) for _, values in sorted(by_index.items())]


def _one_pass(workdir: Path, requests: list[tuple[str, dict]],
              tally: Tally) -> dict:
    server = Server(workdir)
    try:
        server.start()
        outcomes = drive(server.port, requests)
        client = Client(server.port, "bench-metrics")
        try:
            snapshot = client.get("/metricsz")
        finally:
            client.close()
        server.note_memory()
        exit_code = server.stop()
        if exit_code != 0:
            tally.problem(f"server log: {server.log_tail()}")
        records = server.store_records()
    finally:
        server.kill()
    return {
        "outcomes": outcomes, "boot": server.boot_s,
        "rss": server.peak_rss_mb, "cpu": server.cpu_s,
        "snapshot": snapshot, "exit_code": exit_code, "records": records,
    }


def _layer_metrics(passes: list[dict], requests: list[tuple[str, dict]],
                   latencies: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer server figures: latency by path and kind, and counters."""
    by_path: dict[str, list[float]] = {"cached": [], "executed": []}
    by_kind: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for record in passes:
        for outcome in record["outcomes"]:
            if outcome.ok:
                by_path["cached" if outcome.cached else "executed"].append(
                    outcome.latency)
                by_kind[requests[outcome.index][0]].append(outcome.latency)

    def p50(values: list[float]) -> float:
        return 1000.0 * percentile(values, 0.5) if values else 0.0

    requests_total = sum(len(record["outcomes"]) for record in passes)
    metrics: dict[str, tuple[float, str]] = {
        "latency_p50_ms": (p50(latencies), "ms"),
        "server.cached.p50_ms": (p50(by_path["cached"]), "ms"),
        "server.executed.p50_ms": (p50(by_path["executed"]), "ms"),
        "server.dedup_ratio": (len(by_path["cached"]) / requests_total,
                               "ratio"),
        "server.latency_samples": (float(len(by_path["cached"])
                                         + len(by_path["executed"])),
                                   "count"),
        "runner.store.records": (median([r["records"] for r in passes]),
                                 "count"),
    }
    for kind in KINDS:
        metrics[f"server.{kind}.p50_ms"] = (p50(by_kind[kind]), "ms")
    for name in ("server.accepted", "server.completed",
                 "server.worker_retries", "server.store_errors"):
        metrics[name] = (median([_counter(r["snapshot"], name)
                                 for r in passes]), "count")
    return metrics
