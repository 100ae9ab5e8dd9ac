"""Unit tests for the tracing core: spans, the global tracer, JSONL I/O."""

import json
import time

import pytest

from repro.obs import (
    NULL_TRACER,
    TRACE_SCHEMA,
    Tracer,
    get_tracer,
    read_trace,
    set_tracer,
    use_tracer,
)
from repro.obs.merge import spans_of, validate_tree


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Every test starts and ends with tracing disabled."""
    previous = set_tracer(None)
    try:
        yield
    finally:
        set_tracer(previous)


class TestSpans:
    def test_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", task="t1") as outer:
            with tracer.span("inner") as inner:
                inner.set(found=3)
        tracer.close()
        spans = spans_of(tracer.records)
        # Spans are written on close: inner first, then outer.
        assert [span["name"] for span in spans] == ["inner", "outer"]
        inner_rec, outer_rec = spans
        assert inner_rec["parent"] == outer_rec["id"]
        assert "parent" not in outer_rec
        assert outer_rec["attrs"] == {"task": "t1"}
        assert inner_rec["attrs"] == {"found": 3}
        assert inner_rec["dur"] >= 0 and inner_rec["cpu"] >= 0
        assert validate_tree(tracer.records) == []

    def test_meta_record_comes_first(self):
        tracer = Tracer(meta={"argv": ["solve"]})
        assert tracer.records[0]["type"] == "meta"
        assert tracer.records[0]["schema"] == TRACE_SCHEMA
        assert tracer.records[0]["argv"] == ["solve"]

    def test_exception_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = spans_of(tracer.records)
        assert "ValueError" in span["attrs"]["error"]

    def test_leaked_inner_span_closed_with_parent(self):
        tracer = Tracer()
        outer = tracer.span("outer").__enter__()
        tracer.span("leaky").__enter__()  # never exited
        outer.__exit__(None, None, None)
        names = {span["name"]: span for span in spans_of(tracer.records)}
        assert names["leaky"]["attrs"]["leaked"] is True
        assert names["leaky"]["parent"] == names["outer"]["id"]
        assert validate_tree(tracer.records) == []

    def test_close_finishes_open_spans(self):
        tracer = Tracer()
        tracer.span("dangling").__enter__()
        tracer.close()
        (span,) = spans_of(tracer.records)
        assert span["attrs"]["unfinished"] is True

    def test_events_attach_to_innermost_span(self):
        tracer = Tracer()
        tracer.event("orphan_ok")  # before any span: unparented
        with tracer.span("solve") as span:
            tracer.event("progress", conflicts=128)
            span.event("explicit", x=1)
        events = [r for r in tracer.records if r["type"] == "event"]
        assert "span" not in events[0]
        assert events[1]["span"] == events[2]["span"]
        assert events[1]["attrs"] == {"conflicts": 128}

    def test_metrics_flushed_on_close(self):
        tracer = Tracer()
        tracer.metrics.counter("cache_hits").inc(3)
        tracer.close()
        (metrics,) = [r for r in tracer.records if r["type"] == "metrics"]
        assert metrics["counters"]["cache_hits"] == {"value": 3}

    def test_close_is_idempotent(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.close()
        count = len(tracer.records)
        tracer.close()
        assert len(tracer.records) == count


class TestFileBacked:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path, worker="w0") as tracer:
            with tracer.span("solve", instance="i0"):
                tracer.event("progress", conflicts=1)
        records = read_trace(path)
        assert records[0]["type"] == "meta"
        (span,) = spans_of(records)
        assert span["worker"] == "w0"
        assert span["attrs"] == {"instance": "i0"}

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path) as tracer:
            with tracer.span("kept"):
                pass
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type":"span","name":"torn","ts":1.0,')  # no \n, cut
        records = read_trace(path)
        assert [span["name"] for span in spans_of(records)] == ["kept"]

    def test_read_trace_missing_file_is_empty(self, tmp_path):
        assert read_trace(tmp_path / "nope.jsonl") == []

    def test_absorb_reparents_roots_and_relabels(self, tmp_path):
        worker_path = tmp_path / "w1.jsonl"
        with Tracer(worker_path, worker="tmp") as worker_tracer:
            with worker_tracer.span("worker_solve"):
                with worker_tracer.span("cube_solve"):
                    pass

        parent = Tracer()
        with parent.span("portfolio") as span:
            absorbed = parent.absorb(worker_path, parent_id=span.span_id,
                                     worker="w1")
        parent.close()
        assert absorbed == 2  # meta dropped
        names = {s["name"]: s for s in spans_of(parent.records)}
        assert names["worker_solve"]["parent"] == names["portfolio"]["id"]
        assert names["cube_solve"]["parent"] == names["worker_solve"]["id"]
        assert all(s["worker"] == "w1" for s in spans_of(parent.records)
                   if s["name"] != "portfolio")
        assert validate_tree(parent.records) == []

    def test_absorb_reparents_children_of_a_missing_span(self, tmp_path):
        # A worker terminated inside worker_solve has written its finished
        # cube_solve span and a progress event, but never worker_solve.
        parent = Tracer()
        with parent.span("portfolio") as span:
            now = time.time()
            worker_path = tmp_path / "w2.jsonl"
            worker_path.write_text("\n".join(json.dumps(record) for record in [
                {"type": "meta", "schema": 1, "ts": now},
                {"type": "event", "name": "progress", "ts": now, "pid": 7,
                 "span": "7.1-1", "attrs": {"conflicts": 64}},
                {"type": "span", "name": "cube_solve", "id": "7.1-2",
                 "parent": "7.1-1", "ts": now, "dur": 0.0, "cpu": 0.0,
                 "pid": 7},
            ]) + "\n")
            assert parent.absorb(worker_path, parent_id=span.span_id,
                                 worker="w2") == 2
        parent.close()
        assert validate_tree(parent.records) == []
        (cube,) = [s for s in spans_of(parent.records)
                   if s["name"] == "cube_solve"]
        (progress,) = [r for r in parent.records if r["type"] == "event"]
        assert cube["parent"] == progress["span"] == span.span_id

    def test_absorb_missing_file_absorbs_nothing(self, tmp_path):
        parent = Tracer()
        assert parent.absorb(tmp_path / "gone.jsonl") == 0

    def test_records_are_single_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path) as tracer:
            with tracer.span("s", note="multi\nline"):
                pass
        for line in path.read_text().splitlines():
            json.loads(line)  # every line parses on its own


class TestGlobalTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        # The whole null surface is inert.
        with NULL_TRACER.span("x") as span:
            span.set(a=1)
            span.event("e")
        NULL_TRACER.event("e")
        NULL_TRACER.close()

    def test_set_and_restore(self):
        tracer = Tracer()
        assert set_tracer(tracer) is None
        assert get_tracer() is tracer
        assert set_tracer(None) is tracer
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_scopes_installation(self):
        tracer = Tracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_none_is_noop(self):
        with use_tracer(None):
            assert get_tracer() is NULL_TRACER

    def test_foreign_pid_tracer_not_returned(self):
        # Simulate a fork: the installed tracer carries the parent's pid.
        tracer = Tracer()
        tracer.pid = tracer.pid + 1
        set_tracer(tracer)
        assert get_tracer() is NULL_TRACER
