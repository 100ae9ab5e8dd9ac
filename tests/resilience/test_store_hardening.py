"""Crash/corruption hardening tests for the JSONL result store."""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.results import InstanceRun
from repro.resilience.chaos import use_chaos
from repro.runner.store import ResultStore, StoreError, open_store, run_to_record
from repro.runner.task import SCHEMA_VERSION
from repro.sat.stats import SolverStats


def make_run(name="inst", status="SAT"):
    return InstanceRun(instance_name=name, pipeline_name="Baseline",
                       status=status, transform_time=0.1, solve_time=0.2,
                       stats=SolverStats(), num_vars=3, num_clauses=2)


def record_line(fingerprint, name="inst"):
    record = run_to_record(make_run(name), fingerprint)
    return json.dumps(record, sort_keys=True)


def generic_record(fingerprint):
    return {"schema": SCHEMA_VERSION, "task": fingerprint,
            "server": 1, "result": {"status": "SAT"}}


class TestCorruptionRecovery:
    def test_torn_first_line_keeps_the_rest(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"schema": ' + "\n"          # torn very first line
                        + record_line("aaa") + "\n"
                        + record_line("bbb", "other") + "\n")
        store = ResultStore(path)
        assert len(store) == 2
        assert "aaa" in store and "bbb" in store
        assert store.skipped_lines == 1
        assert store.quarantined == 1

    def test_torn_tail_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(record_line("aaa") + "\n"
                        + record_line("bbb")[:40])    # killed mid-append
        store = ResultStore(path)
        assert len(store) == 1
        assert store.skipped_lines == 1

    def test_partial_record_glued_to_complete_one(self, tmp_path):
        # The signature of an unlocked concurrent append: writer A's torn
        # prefix with writer B's whole record appended on the same line.
        path = tmp_path / "store.jsonl"
        glued = record_line("aaa")[:25] + record_line("bbb", "other")
        path.write_text(glued + "\n")
        store = ResultStore(path)
        assert "bbb" in store                # the intact record is recovered
        assert "aaa" not in store
        assert store.quarantined == 1        # the torn prefix is not lost

    def test_fragments_land_in_corrupt_sidecar(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("this is not json at all\n" + record_line("aaa") + "\n")
        store = ResultStore(path)
        assert store.quarantine_path.exists()
        assert "not json" in store.quarantine_path.read_text()

    def test_wrong_schema_skipped_but_not_quarantined(self, tmp_path):
        path = tmp_path / "store.jsonl"
        old = json.dumps({"schema": "ancient", "task": "aaa"})
        path.write_text(old + "\n" + record_line("bbb") + "\n")
        store = ResultStore(path)
        assert len(store) == 1
        assert store.skipped_lines == 1
        assert store.quarantined == 0        # valid JSON: old, not corrupt
        assert not store.quarantine_path.exists()

    def test_empty_lines_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("\n\n" + record_line("aaa") + "\n\n")
        store = ResultStore(path)
        assert len(store) == 1
        assert store.skipped_lines == 0


class TestConcurrentWriters:
    def test_two_handles_interleave_whole_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first = ResultStore(path)
        second = ResultStore(path)
        first.put("aaa", make_run("a"))
        second.put("bbb", make_run("b"))
        first.put("ccc", make_run("c"))
        reloaded = ResultStore(path)
        assert len(reloaded) == 3
        assert reloaded.skipped_lines == 0

    def test_durable_append_round_trips(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path, durable=True).put("aaa", make_run())
        assert "aaa" in ResultStore(path)

    def test_generic_records_round_trip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).put_record("cafe" + "0" * 60,
                                     generic_record("cafe" + "0" * 60))
        again = ResultStore(path)
        assert again.get_record("cafe" + "0" * 60)["server"] == 1

    def test_non_hex_fingerprint_round_trips(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).put_record("Zebra", generic_record("Zebra"))
        assert ResultStore(path).get_record("Zebra")["result"] \
            == {"status": "SAT"}

    def test_first_append_creates_the_directory_once(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "a" / "b" / "store.jsonl"
        store = ResultStore(path)
        assert not path.parent.exists()
        store.put("aaa", make_run("a"))
        made = []
        monkeypatch.setattr(type(path), "mkdir",
                            lambda self, *args, **kwargs: made.append(self))
        store.put("bbb", make_run("b"))
        ResultStore(path).put("ccc", make_run("c"))
        assert made == []
        assert len(ResultStore(path)) == 3

    def test_append_recreates_a_removed_directory(self, tmp_path):
        path = tmp_path / "gone" / "store.jsonl"
        store = ResultStore(path)
        store.put("aaa", make_run("a"))
        path.unlink()
        path.parent.rmdir()
        store.put("bbb", make_run("b"))
        assert list(ResultStore(path)._records) == ["bbb"]

    def test_put_record_requires_loadable_shape(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        with pytest.raises(StoreError):
            store.put_record("ab", {"result": {}})  # no schema/task keys


def _hammer(path, worker, count, barrier):
    """Append ``count`` records as fast as possible (concurrency victim)."""
    store = ResultStore(path)
    barrier.wait(timeout=30)
    for index in range(count):
        fp = f"{(worker * count + index) % 16:x}" \
             + f"{worker:02d}{index:04d}".ljust(63, "e")[:63]
        store.put_record(fp, {"schema": SCHEMA_VERSION, "task": fp,
                              "server": 1,
                              "result": {"status": "SAT", "w": worker,
                                         "i": index}})


class TestTornAppends:
    def test_concurrent_writers_never_interleave(self, tmp_path):
        """Many processes, one file, zero torn records."""
        path = tmp_path / "store.jsonl"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        workers = [ctx.Process(target=_hammer,
                               args=(path, w, 40, barrier))
                   for w in range(4)]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(60)
            assert proc.exitcode == 0
        store = ResultStore(path)
        assert len(store) == 4 * 40
        assert store.skipped_lines == 0
        assert store.quarantined == 0

    def test_crash_mid_append_leaves_no_torn_line(self, tmp_path):
        """Kill writers at arbitrary instants: every line whole or absent.

        The append is a single ``os.write`` on an ``O_APPEND`` fd, so a
        SIGKILL 'between write and flush' cannot exist — there is no
        user-space buffer to lose.  This test SIGKILLs busy writers at
        random points and proves the survivors load clean.
        """
        path = tmp_path / "store.jsonl"
        ctx = multiprocessing.get_context("fork")
        # Three writers plus this test wait on the barrier.
        barrier = ctx.Barrier(4)
        workers = [ctx.Process(target=_hammer,
                               args=(path, w, 10_000, barrier))
                   for w in range(3)]
        for proc in workers:
            proc.start()
        barrier.wait(timeout=30)  # writers are mid-hammer right now
        time.sleep(0.05)
        for proc in workers:
            os.kill(proc.pid, signal.SIGKILL)
        for proc in workers:
            proc.join(30)
        store = ResultStore(path)
        assert store.skipped_lines == 0
        assert store.quarantined == 0
        assert len(store) > 0  # they did get some records down first
        for line in path.read_text().splitlines():
            json.loads(line)  # every surviving line parses whole

    def test_torn_store_recovers_and_quarantines(self, tmp_path):
        """A pre-existing torn line is skipped and quarantined, and the
        store keeps accepting appends."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fp = "a" + "b" * 63
        store.put_record(fp, generic_record(fp))
        with path.open("a") as handle:
            handle.write('{"schema": 1, "task": "trunc')  # torn, no newline
        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 1
        assert reloaded.quarantined == 1
        assert reloaded.quarantine_path.exists()
        assert reloaded.get_record(fp) is not None
        reloaded.put_record("a" + "c" * 63, generic_record("a" + "c" * 63))
        assert len(ResultStore(path)) == 2


class TestChaosInjection:
    def test_injected_append_failure_raises_before_writing(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        with use_chaos("store_errors=1"):
            with pytest.raises(OSError):
                store.put("aaa", make_run())
            store.put("bbb", make_run())     # next append is healthy
        assert not ResultStore(path).__contains__("aaa")
        assert "bbb" in ResultStore(path)

    def test_schema_guard(self):
        record = run_to_record(make_run(), "fp")
        assert record["schema"] == SCHEMA_VERSION


def _write_shard_dir(root, torn=False):
    """A store directory in the older sharded layout: one record per
    ``shard-<hex>.jsonl`` file, keyed by the fingerprint's first digit."""
    root.mkdir()
    fingerprints = [f"{digit:x}{'0' * 63}" for digit in range(16)]
    for fp in fingerprints:
        with (root / f"shard-{fp[0]}.jsonl").open("a") as handle:
            handle.write(record_line(fp, name=fp[:4]) + "\n")
    if torn:
        with (root / "shard-3.jsonl").open("a") as handle:
            handle.write('{"schema": 1, "task": "trunc')  # torn, no newline
    return fingerprints


class TestOpenStore:
    def test_path_rule(self, tmp_path):
        assert open_store(tmp_path / "flat.jsonl").path \
            == tmp_path / "flat.jsonl"
        assert open_store(tmp_path / "cache").path == tmp_path / "cache"
        (tmp_path / "dir").mkdir()
        assert open_store(tmp_path / "dir").path \
            == tmp_path / "dir" / "results.jsonl"

    def test_existing_file_opens_in_place(self, tmp_path):
        """A single-file store at a path without a ``.jsonl`` suffix is
        opened as that file, records intact, and is never turned into a
        directory."""
        path = tmp_path / "cache"
        ResultStore(path).put("d" * 64, make_run(name="kept"))
        store = open_store(path, durable=True)
        assert store.path == path and store.durable
        assert store.get("d" * 64).instance_name == "kept"
        store.put("e" * 64, make_run(name="added"))
        assert path.is_file()
        assert not list(tmp_path.glob("cache.*"))
        assert len(open_store(path)) == 2

    def test_shard_directory_migrates_once(self, tmp_path):
        root = tmp_path / "store"
        fingerprints = _write_shard_dir(root, torn=True)
        store = open_store(root)
        assert len(store) == 16
        for fp in fingerprints:
            assert store.get(fp).instance_name == fp[:4]
        assert "trunc" in (root / "shard-3.jsonl.corrupt").read_text()
        assert not list(root.glob("shard-*.jsonl"))
        assert len(list(root.glob("shard-*.jsonl.migrated"))) == 16
        lines = (root / "results.jsonl").read_text().splitlines()
        assert len(lines) == 16
        again = open_store(root)
        assert len(again) == 16
        assert again.skipped_lines == 0
        assert (root / "results.jsonl").read_text().splitlines() == lines

    def test_interrupted_migration_finishes_on_next_open(self, tmp_path):
        """Shards still in place after ``results.jsonl`` was written, as if
        the process died before the renames: nothing is lost or doubled."""
        root = tmp_path / "store"
        fingerprints = _write_shard_dir(root)
        first = ResultStore(root / "results.jsonl")
        for fp in fingerprints:
            first.put(fp, make_run(name=fp[:4]))
        store = open_store(root)
        assert len(store) == 16
        for fp in fingerprints:
            assert store.get(fp).instance_name == fp[:4]
        assert not list(root.glob("shard-*.jsonl"))
        assert len((root / "results.jsonl").read_text().splitlines()) == 16
        assert len(open_store(root)) == 16
