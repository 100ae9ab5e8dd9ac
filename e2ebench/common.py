"""Helpers shared by the benchmark workloads: statistics, files, checks."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Spans and the work ledger land here; scratch stores and server files
#: under ``TMP_DIR``.  Both stay inside the checkout.
OUT_DIR = ROOT / ".e2ebench_out"
TMP_DIR = ROOT / ".e2ebench_tmp"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 3


def percentile(values: list[float], q: float) -> float:
    """Percentile (``q`` in 0..1) of a non-empty list, interpolating
    linearly between the closest ranks."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children.

    The kernel does not charge a task for time the hypervisor gives its
    vCPU to another guest, so on a busy shared host this grows with the
    work done while wall time grows with the host's load as well.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def digest(data: object) -> str:
    blob = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def timed_setup(module: str, function: str, *args) -> tuple[float, set[str]]:
    """Median wall time of fresh processes that import and make the inputs.

    Set-up as a user meets it: interpreter start, importing the program
    and building the inputs.  ``function`` returns the digest of what it
    built; more than one digest means input generation is not
    deterministic.
    """
    code = (f"import sys; sys.path[:0] = {[str(BENCH_DIR), str(ROOT / 'src')]!r}; "
            f"import {module}; print({module}.{function}(*{list(args)!r}))")
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=False)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"e2ebench: set-up failed: {done.stderr[-2000:]}")
        digests.add(done.stdout.strip())
    return median(times), digests


def check_default_digest(workload: str, default_seed: int,
                         inputs_digest: str) -> None:
    """Fail loudly when the default-seed inputs are not the recorded ones.

    A change to input generation silently changes what the workload
    measures; the recorded digest turns that into an error to be resolved
    by re-recording the digest in a change of the benchmark itself.
    """
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = recorded.get(workload, {}).get("sha256")
    if expected != inputs_digest:
        raise SystemExit(
            f"e2ebench: inputs of {workload} at its default seed "
            f"{default_seed} have digest {inputs_digest}, but "
            f"{DIGESTS.name} records {expected}: input generation changed")


@dataclass
class Tally:
    """Attempted and failed operations, with a line per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def problem(self, what: str) -> None:
        """A check that failed outside any single operation."""
        self.problems.append(what)


def source_digest() -> str:
    """Digest of the program source: every file under ``src/`` but caches."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
            sha.update(path.read_bytes() + b"\0")
    return sha.hexdigest()


class WorkLedger:
    """Per-(instance, pipeline) work counts that must repeat exactly.

    The ledger persists across runs in the same checkout, one file per
    workload and program source, keyed by seed inside.  Every run compares
    its counts against every earlier run of the same inputs on the same
    source, so a change to the program starts a ledger of its own instead
    of being reported as a mismatch.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.path = OUT_DIR / f"work-{workload}-{source_digest()[:16]}.json"
        self.key = str(seed)
        self.seen: dict[str, dict] = {}
        if self.path.exists():
            try:
                stored = json.loads(self.path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                stored = {}
            self.seen = stored.get(self.key, {}) if isinstance(stored, dict) \
                else {}
        self.current: dict[str, dict] = {}

    def note(self, pair: str, counts: dict, tally: Tally) -> None:
        """Compare ``counts`` with what this pair produced before."""
        for source in (self.current.get(pair, {}), self.seen.get(pair, {})):
            for name, value in counts.items():
                if name in source and source[name] != value:
                    tally.problem(f"work mismatch on {pair}: {name} "
                                  f"{source[name]} then {value}")
        self.current.setdefault(pair, {}).update(counts)

    def save(self) -> None:
        stored: dict = {}
        if self.path.exists():
            try:
                stored = json.loads(self.path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                stored = {}
        merged = dict(self.seen)
        for pair, counts in self.current.items():
            merged[pair] = {**merged.get(pair, {}), **counts}
        stored[self.key] = merged
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(stored, sort_keys=True) + "\n",
                           encoding="utf-8")
        os.replace(scratch, self.path)


def emit(tally: Tally, metrics: dict[str, tuple[float, str]],
         notes: list[str]) -> None:
    """Print the notes, the failures, then the result as the last line."""
    for line in notes:
        print(line)
    for line in tally.problems:
        print(f"FAILED: {line}", file=sys.stderr)
        print(f"FAILED: {line}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate {error_rate:.6f} ({tally.failed}/{tally.attempted})")
    result = {
        "correct": not tally.problems and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
