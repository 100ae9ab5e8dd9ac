"""Tests for the JSONL result store: round trips, persistence, resume."""

import json

import pytest

from repro.core.results import InstanceRun
from repro.runner import ResultStore, canonical_record, record_to_run, run_to_record
from repro.sat.stats import SolverStats


def make_run(instance="adder3", pipeline="Baseline", status="SAT") -> InstanceRun:
    return InstanceRun(
        instance_name=instance,
        pipeline_name=pipeline,
        status=status,
        transform_time=0.125,
        solve_time=0.5,
        stats=SolverStats(decisions=42, conflicts=7, propagations=1234,
                          restarts=1, learned_clauses=5, deleted_clauses=2,
                          max_decision_level=9, solve_time=0.5),
        num_vars=17,
        num_clauses=51,
    )


class TestRecordRoundTrip:
    def test_lossless(self):
        run = make_run()
        record = run_to_record(run, "f" * 64, seed=123)
        assert record_to_run(json.loads(json.dumps(record))) == run

    @pytest.mark.parametrize("output", [
        {"dimacs": "p cnf 1 1\n1 0\n"},
        None,  # a run the guard stopped
    ])
    def test_output_survives(self, output):
        run = make_run()
        run.output = output
        record = run_to_record(run, "f" * 64, seed=123)
        again = record_to_run(json.loads(json.dumps(record)))
        assert again == run
        assert again.output == output

    def test_canonical_record_excludes_timing(self):
        record = canonical_record(make_run())
        text = json.dumps(record)
        assert "transform_time" not in text
        assert "solve_time" not in text
        assert record["stats"]["decisions"] == 42


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        run = make_run()
        assert store.get("a" * 64) is None
        store.put("a" * 64, run, seed=1)
        assert "a" * 64 in store
        assert store.get("a" * 64) == run
        assert len(store) == 1

    def test_persistence_across_instances(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).put("a" * 64, make_run(), seed=1)
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.get("a" * 64) == make_run()
        assert reloaded.runs() == [make_run()]

    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert len(store) == 0
        assert store.skipped_lines == 0

    def test_torn_tail_line_is_skipped(self, tmp_path):
        """An interrupt mid-write must not poison the store on resume."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put("a" * 64, make_run(), seed=1)
        store.put("b" * 64, make_run(instance="adder4"), seed=2)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "task": "cccc", "trunc')
        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert reloaded.skipped_lines == 1
        assert reloaded.get("b" * 64) == make_run(instance="adder4")

    def test_wrong_schema_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = run_to_record(make_run(), "a" * 64)
        record["schema"] = 999
        path.write_text(json.dumps(record) + "\n")
        reloaded = ResultStore(path)
        assert len(reloaded) == 0
        assert reloaded.skipped_lines == 1

    def test_latest_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put("a" * 64, make_run(status="UNKNOWN"))
        store.put("a" * 64, make_run(status="SAT"))
        assert store.get("a" * 64).status == "SAT"
        assert len(store) == 1
