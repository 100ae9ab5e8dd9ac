"""Sharded result store: prefix sharding, migration, crash/concurrency
hardening (the satellite-2 torn-append fix)."""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.results import InstanceRun
from repro.runner.store import (ResultStore, ShardedResultStore, StoreError,
                                open_store)
from repro.runner.task import SCHEMA_VERSION
from repro.sat.stats import SolverStats


def _run(name="inst", status="SAT"):
    return InstanceRun(instance_name=name, pipeline_name="Baseline",
                       status=status, transform_time=0.1, solve_time=0.2,
                       stats=SolverStats(), num_vars=3, num_clauses=5)


def _record(fingerprint):
    return {"schema": SCHEMA_VERSION, "task": fingerprint,
            "server": 1, "result": {"status": "SAT"}}


class TestSharding:
    def test_round_trip_across_shards(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")
        fingerprints = [f"{digit:x}{'0' * 63}" for digit in range(16)]
        for fp in fingerprints:
            store.put(fp, _run(name=fp[:4]))
        assert len(store) == 16
        assert len(store.shard_paths) == 16
        reloaded = ShardedResultStore(tmp_path / "store")
        for fp in fingerprints:
            assert fp in reloaded
            assert reloaded.get(fp).instance_name == fp[:4]

    def test_same_prefix_shares_a_shard(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")
        store.put("a" + "0" * 63, _run())
        store.put("a" + "1" * 63, _run())
        assert len(store.shard_paths) == 1
        assert store.shard_paths[0].name == "shard-a.jsonl"

    def test_non_hex_fingerprint_folds_onto_hex_shards(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")
        store.put_record("Zebra", _record("Zebra"))
        assert "Zebra" in store
        assert ShardedResultStore(tmp_path / "store").get_record(
            "Zebra")["result"] == {"status": "SAT"}

    def test_put_record_requires_loadable_shape(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.put_record("ab", {"result": {}})  # no schema/task keys

    def test_generic_records_round_trip(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store")
        store.put_record("cafe" + "0" * 60, _record("cafe" + "0" * 60))
        again = ShardedResultStore(tmp_path / "store")
        assert again.get_record("cafe" + "0" * 60)["server"] == 1


class TestLegacyMigration:
    def test_single_file_store_migrates_in_place(self, tmp_path):
        path = tmp_path / "results"
        legacy = ResultStore(path)
        for index in range(8):
            legacy.put(f"{index:x}{'b' * 63}", _run(name=f"r{index}"))
        migrated = ShardedResultStore(path)
        assert path.is_dir()
        assert (tmp_path / "results.legacy").is_file()
        assert len(migrated) == 8
        for index in range(8):
            assert migrated.get(f"{index:x}{'b' * 63}").instance_name \
                == f"r{index}"
        # The migrated layout reloads as a normal sharded store.
        assert len(ShardedResultStore(path)) == 8

    def test_migration_preserves_quarantine_sidecar(self, tmp_path):
        path = tmp_path / "results"
        ResultStore(path).put("c" * 64, _run())
        with path.open("a") as handle:
            handle.write("garbage that is not json\n")
        ShardedResultStore(path)
        sidecar = tmp_path / "results.legacy.corrupt"
        assert sidecar.exists()
        assert "garbage" in sidecar.read_text()

    def test_open_store_dispatches_on_shape(self, tmp_path):
        jsonl = tmp_path / "flat.jsonl"
        assert isinstance(open_store(jsonl), ResultStore)
        assert isinstance(open_store(tmp_path / "dir"), ShardedResultStore)
        # An existing legacy file at a non-.jsonl path migrates to sharded.
        legacy = tmp_path / "cache"
        ResultStore(legacy).put("d" * 64, _run())
        assert isinstance(open_store(legacy), ShardedResultStore)


def _hammer(root, worker, count, barrier):
    """Append ``count`` records as fast as possible (concurrency victim)."""
    store = ShardedResultStore(root)
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
        """Satellite 2: many processes, same shards, zero torn records."""
        root = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        workers = [ctx.Process(target=_hammer,
                               args=(root, w, 40, barrier))
                   for w in range(4)]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(60)
            assert proc.exitcode == 0
        store = ShardedResultStore(root)
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
        root = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        # Three writers plus this test wait on the barrier.
        barrier = ctx.Barrier(4)
        workers = [ctx.Process(target=_hammer,
                               args=(root, w, 10_000, barrier))
                   for w in range(3)]
        for proc in workers:
            proc.start()
        barrier.wait(timeout=30)  # writers are mid-hammer right now
        time.sleep(0.05)
        for proc in workers:
            os.kill(proc.pid, signal.SIGKILL)
        for proc in workers:
            proc.join(30)
        store = ShardedResultStore(root)
        assert store.skipped_lines == 0
        assert store.quarantined == 0
        assert len(store) > 0  # they did get some records down first
        for path in store.shard_paths:
            for line in path.read_text().splitlines():
                json.loads(line)  # every surviving line parses whole

    def test_torn_shard_recovers_and_quarantines(self, tmp_path):
        """A pre-existing torn shard line is skipped and quarantined, and
        the shard keeps accepting appends (the ``.corrupt`` path is
        reused for sharded files)."""
        root = tmp_path / "store"
        store = ShardedResultStore(root)
        fp = "a" + "b" * 63
        store.put_record(fp, _record(fp))
        shard = store.shard_paths[0]
        with shard.open("a") as handle:
            handle.write('{"schema": 1, "task": "trunc')  # torn, no newline
        reloaded = ShardedResultStore(root)
        assert reloaded.skipped_lines == 1
        assert reloaded.quarantined == 1
        assert (shard.parent / (shard.name + ".corrupt")).exists()
        assert reloaded.get_record(fp) is not None
        reloaded.put_record("a" + "c" * 63, _record("a" + "c" * 63))
        assert len(ShardedResultStore(root)) == 2
