"""Persistent JSONL result store with content-hash cache lookup.

Each completed task appends one JSON line keyed by the task fingerprint, so

* a sweep interrupted at any point resumes by skipping every task whose
  fingerprint is already on disk (a torn line from a killed process is
  detected and ignored);
* re-running the same suite spec is a pure cache read that reproduces the
  original aggregate numbers exactly;
* stores are append-only and human-greppable — one run, one line, in
  the one layout the batch runner and the solve server both read.

The store is hardened for concurrent writers and crashes:

* appends are guarded by ``flock`` (where available) and issued as a
  *single* ``os.write`` of the fully-encoded line on an ``O_APPEND``
  descriptor, so two processes sharing a store cannot interleave
  half-lines and a process killed between "write" and "flush" cannot
  leave a user-space-buffered torn record behind;
* loading tolerates corruption *anywhere* in the file, not just the tail —
  a torn first line, or a partial record with a complete record glued
  behind it (the signature of an unlocked concurrent append), still yields
  every intact record;
* unusable fragments are quarantined to a ``.corrupt`` sidecar file next to
  the store instead of being silently forgotten, so data loss is visible
  and diagnosable after the fact;
* :func:`put_with_retry` is the one persist rule of the batch runner and
  the solve server: a failed append is retried, and a record that still
  cannot be written is dropped visibly, never raised.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path

from repro.core.results import UNCACHED_STATUSES, InstanceRun
from repro.errors import ReproError, TransientError
from repro.obs import get_tracer
from repro.obs.metrics import Counter
from repro.resilience.chaos import get_chaos
from repro.runner.task import SCHEMA_VERSION, Task
from repro.sat.stats import SolverStats

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)

#: Attempts at persisting one record before it is (visibly) dropped.
_STORE_ATTEMPTS = 3

#: How many embedded-record start markers a corrupt line is probed at
#: before the whole line is quarantined (bounds worst-case work on
#: pathological garbage).
_RECOVERY_PROBES = 8


class StoreError(ReproError, TransientError):
    """Raised when a result store file cannot be used.

    Transient: store failures are I/O failures (full disk, lost mount,
    revoked handle), which the supervision layer may retry.
    """


def run_to_record(run: InstanceRun, fingerprint: str,
                  seed: int | None = None) -> dict:
    """Serialise one run into a JSON-able store record."""
    return {
        "schema": SCHEMA_VERSION,
        "task": fingerprint,
        "instance": run.instance_name,
        "pipeline": run.pipeline_name,
        "status": run.status,
        "transform_time": run.transform_time,
        "solve_time": run.solve_time,
        "num_vars": run.num_vars,
        "num_clauses": run.num_clauses,
        "seed": seed,
        "stats": run.stats.as_dict(),
        "output": run.output,
    }


def record_to_run(record: dict | None) -> InstanceRun | None:
    """The :class:`InstanceRun` stored in ``record``, output included.

    ``None`` (a cache miss) for no record or one lacking a run field, as
    the solve server's old ``{"server": 1, "result": ...}`` records do.
    """
    try:
        return InstanceRun(
            instance_name=record["instance"],
            pipeline_name=record["pipeline"],
            status=record["status"],
            transform_time=record["transform_time"],
            solve_time=record["solve_time"],
            stats=SolverStats(**record["stats"]),
            num_vars=record["num_vars"],
            num_clauses=record["num_clauses"],
            output=record["output"],
        )
    except (KeyError, TypeError):
        return None


def canonical_record(run: InstanceRun) -> dict:
    """The deterministic portion of a run — every field except wall-clock.

    Two executions of the same task (serial or parallel, any worker) must
    agree on this record byte for byte; only the timing fields may differ.
    """
    stats = run.stats.as_dict()
    stats.pop("solve_time", None)
    return {
        "instance": run.instance_name,
        "pipeline": run.pipeline_name,
        "status": run.status,
        "num_vars": run.num_vars,
        "num_clauses": run.num_clauses,
        "stats": stats,
    }


def _parse_store_line(line: str) -> tuple[dict | None, str | None]:
    """Parse one store line, recovering a record glued after a torn prefix.

    Returns ``(record, fragment)``: ``record`` is a parsed JSON object (or
    None), ``fragment`` the unparseable prefix/line to quarantine (or
    None).  A partial record with a complete one appended behind it — the
    signature of an unlocked concurrent append or a crash mid-line — is
    split at successive ``{"`` markers until a valid JSON suffix parses.
    """
    try:
        return json.loads(line), None
    except json.JSONDecodeError:
        pass
    search_from = 1
    for _ in range(_RECOVERY_PROBES):
        marker = line.find('{"', search_from)
        if marker < 0:
            break
        try:
            return json.loads(line[marker:]), line[:marker]
        except json.JSONDecodeError:
            search_from = marker + 1
    return None, line


class ResultStore:
    """Append-only JSONL store of task results, indexed by fingerprint.

    ``durable=True`` additionally ``fsync``\\ s every append — slower, but
    an OS crash then loses at most the line being written (a killed
    *process* never loses acknowledged lines either way).
    """

    def __init__(self, path: str | Path, durable: bool = False) -> None:
        self.path = Path(path)
        self.durable = durable
        self._records: dict[str, dict] = {}
        self._skipped_lines = 0
        self._quarantined = 0
        if self.path.exists():
            self._load()

    @property
    def quarantine_path(self) -> Path:
        """Sidecar file collecting corrupt fragments found while loading."""
        return self.path.with_name(self.path.name + ".corrupt")

    def _load(self) -> None:
        """Index the existing file; tolerate corruption anywhere in it."""
        fragments: list[str] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record, fragment = _parse_store_line(line)
                if fragment is not None:
                    self._skipped_lines += 1
                    fragments.append(fragment)
                if record is None:
                    continue
                if (not isinstance(record, dict)
                        or record.get("schema") != SCHEMA_VERSION
                        or "task" not in record):
                    # Valid JSON of the wrong shape: an old schema, not
                    # corruption — skip it without quarantining.
                    if fragment is None:
                        self._skipped_lines += 1
                    continue
                self._records[record["task"]] = record
        if fragments:
            self._quarantine(fragments)

    def _quarantine(self, fragments: list[str]) -> None:
        """Append corrupt fragments to the ``.corrupt`` sidecar (best
        effort: quarantine must never turn detection into a new crash)."""
        self._quarantined += len(fragments)
        try:
            with self.quarantine_path.open("a", encoding="utf-8") as handle:
                for fragment in fragments:
                    handle.write(fragment + "\n")
        except OSError:  # pragma: no cover - unwritable store directory
            pass

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._records

    @property
    def skipped_lines(self) -> int:
        """Corrupt / incompatible lines ignored while loading (torn writes)."""
        return self._skipped_lines

    @property
    def quarantined(self) -> int:
        """Corrupt fragments moved to :attr:`quarantine_path` while loading."""
        return self._quarantined

    def get_record(self, fingerprint: str) -> dict | None:
        return self._records.get(fingerprint)

    def get(self, fingerprint: str) -> InstanceRun | None:
        """Cache lookup: the stored run for ``fingerprint``, if any."""
        return record_to_run(self._records.get(fingerprint))

    def put(self, fingerprint: str, run: InstanceRun,
            seed: int | None = None) -> dict:
        """Persist one run result; safe against concurrent writers."""
        return self.put_record(fingerprint,
                               run_to_record(run, fingerprint, seed=seed))

    def put_record(self, fingerprint: str, record: dict) -> dict:
        """Append one already-shaped record; safe against concurrent writers.

        The record is encoded up front and issued as a **single**
        ``os.write`` on an ``O_APPEND`` descriptor under an exclusive
        ``flock`` (best effort where the platform lacks it), ``fsync``\\ ed
        when the store is ``durable``.  There is no user-space buffer, so a
        process killed at any instant — including "between write and
        flush" — either lands the whole line or none of it; parallel
        writers never interleave half-lines.

        ``record`` must carry ``schema`` and ``task`` keys or a future
        :meth:`_load` would silently skip it.
        """
        if record.get("schema") != SCHEMA_VERSION \
                or record.get("task") != fingerprint:
            raise StoreError(
                f"record for {fingerprint[:12]} lacks schema/task keys; "
                "it would be unloadable")
        get_chaos().on_store_append(self.path)
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags, 0o644)
        except FileNotFoundError:  # a new directory, or one removed since
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                os.write(fd, data)
                if self.durable:
                    os.fsync(fd)
            finally:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
        self._records[fingerprint] = record
        return record

    def runs(self) -> list[InstanceRun]:
        """All stored runs, in file order."""
        runs = map(record_to_run, self._records.values())
        return [run for run in runs if run is not None]


def open_store(path: str | Path, durable: bool = False) -> ResultStore:
    """Open the result store at ``path``.

    An existing directory holds its store in ``<dir>/results.jsonl``; any
    other path is the store file itself.  A directory still holding the
    ``shard-*.jsonl`` files of the older sharded layout is migrated on open:
    every record each shard loads (with the usual torn-line recovery and
    ``.corrupt`` quarantine) is appended to ``results.jsonl`` first, and
    only then is the shard renamed to ``shard-*.jsonl.migrated``, so an
    interrupted migration loses nothing and the next open finishes it.
    """
    path = Path(path)
    if not path.is_dir():
        return ResultStore(path, durable=durable)
    store = ResultStore(path / "results.jsonl", durable=durable)
    for shard_path in sorted(path.glob("shard-*.jsonl")):
        shard = ResultStore(shard_path)
        for fingerprint, record in shard._records.items():
            if fingerprint not in store:
                store.put_record(fingerprint, record)
        shard_path.rename(shard_path.with_name(shard_path.name + ".migrated"))
        logger.info("migrated shard %s (%d records)", shard_path, len(shard))
    return store


def put_with_retry(store, task: Task, run: InstanceRun,
                   errors: Counter) -> None:
    """Persist ``task``'s fresh ``run``, retrying failed appends.

    No store, an :data:`~repro.core.results.UNCACHED_STATUSES` run or a
    proof-bearing task (a cached verdict has no proof file) writes
    nothing.  Every failed attempt bumps ``errors`` and waits 10 ms times
    the attempt number before the next one; after :data:`_STORE_ATTEMPTS`
    failures the record is dropped with a ``store_give_up`` event and an
    error log.  ``store`` is anything with :meth:`ResultStore.put_record`.
    """
    if store is None or run.status in UNCACHED_STATUSES \
            or task.proof is not None:
        return
    fingerprint = task.fingerprint()
    record = run_to_record(run, fingerprint, seed=task.seed())
    tracer = get_tracer()
    for attempt in range(1, _STORE_ATTEMPTS + 1):
        try:
            store.put_record(fingerprint, record)
            return
        except (StoreError, OSError) as exc:
            errors.inc()
            if attempt == _STORE_ATTEMPTS:
                tracer.event("store_give_up", task=fingerprint[:16],
                             error=repr(exc))
                logger.error("result for %s could not be persisted "
                             "(%d attempts): %r", fingerprint[:16], attempt,
                             exc)
            else:
                tracer.event("store_retry", task=fingerprint[:16],
                             attempt=attempt, error=repr(exc))
                time.sleep(0.01 * attempt)
