"""The tracing core: spans, events and the process-global active tracer.

A :class:`Tracer` records a tree of **spans** (named, attributed regions
with wall-clock and CPU time) plus point **events** attached to the
innermost open span.  Records are emitted as JSON lines — events the moment
they happen, spans when they close — so a killed process loses at most the
line being written; readers tolerate the torn tail exactly like
:class:`repro.runner.store.ResultStore`.

The package threads observability through the execution layers with a
process-global *active tracer* (:func:`set_tracer` / :func:`get_tracer`):
instrumented code asks for the current tracer and opens spans on it, and
when none is installed it receives :data:`NULL_TRACER`, whose ``span()``
returns a shared no-op context manager — the disabled path costs one global
read and one identity check, nothing else.

Cross-process rules:

* span ids embed the producing pid, so ids stay unique when several
  processes contribute to one merged trace;
* :func:`get_tracer` compares the installing pid against the current one, so
  a ``fork()``-ed child never writes into its parent's file by accident —
  workers install their *own* tracer (usually via :meth:`Tracer.absorb`
  on the parent side afterwards) or run untraced;
* timestamps are ``time.time()`` (one comparable clock machine-wide) while
  durations come from ``time.perf_counter()`` deltas.

Instances are not thread-safe; the execution model here is one tracer per
process, which matches the runner's process-pool architecture.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = [
    "TRACE_SCHEMA",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "read_trace",
]

#: Bump when the JSONL record layout changes.
TRACE_SCHEMA = 1

#: Per-process tracer instantiation counter: span ids embed it alongside the
#: pid so that records from two tracers — whether in different processes or
#: sequential in one (e.g. trace files later stitched together with
#: :func:`repro.obs.merge.merge_trace_files`) — never collide.
_instances = 0


class Span:
    """One open region of a trace.  Use as a context manager.

    ``set(key=value)`` adds attributes while the span is open;
    ``event(name, **attrs)`` records a point event attached to this span.
    Closing computes the wall (``dur``) and CPU (``cpu``) durations and
    writes the span record; an exception closing the span is recorded in an
    ``error`` attribute and re-raised.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "ts",
                 "attrs", "_t0", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent_id: str | None, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.ts = time.time()
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def event(self, name: str, **attrs) -> None:
        self._tracer._emit_event(name, self.span_id, attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.attrs["error"] = repr(exc)
        self._tracer._finish_span(self)


class _NullSpan:
    """The shared span of the disabled path: every operation is a no-op."""

    __slots__ = ()
    name = ""
    span_id = ""
    parent_id = None
    attrs: dict = {}

    def set(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collect spans/events/metrics for one process, JSONL-backed.

    ``path=None`` keeps records in memory (``tracer.records``) — used by
    tests and short-lived tooling; with a path, records stream to the file
    and are not retained.  ``worker`` labels every record (e.g. ``"w3"`` for
    portfolio worker 3) so merged traces can attribute spans per worker.
    """

    enabled = True

    def __init__(self, path: str | Path | None = None,
                 worker: str | None = None,
                 meta: dict | None = None) -> None:
        global _instances
        _instances += 1
        self.path = Path(path) if path is not None else None
        self.worker = worker
        self.pid = os.getpid()
        self._id_prefix = f"{self.pid:x}.{_instances}"
        self.metrics = MetricsRegistry()
        self.records: list[dict] = []
        self._handle = None
        self._sequence = 0
        self._stack: list[Span] = []
        self._closed = False
        self._emit({"type": "meta", "schema": TRACE_SCHEMA, "ts": time.time(),
                    **(meta or {})})

    # ------------------------------------------------------------------ #
    # Span lifecycle

    def span(self, name: str, **attrs) -> Span:
        """Open a child span of the innermost open span (or a root span)."""
        self._sequence += 1
        span_id = f"{self._id_prefix}-{self._sequence}"
        parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(self, name, span_id, parent_id, attrs)
        self._stack.append(span)
        return span

    @property
    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def event(self, name: str, **attrs) -> None:
        """Record a point event on the innermost open span (or unparented)."""
        parent = self._stack[-1].span_id if self._stack else None
        self._emit_event(name, parent, attrs)

    def _finish_span(self, span: Span) -> None:
        # Tolerate out-of-order exits (an inner span leaked open): close
        # everything above the finishing span so parenting stays a tree.
        while self._stack and self._stack[-1] is not span:
            leaked = self._stack.pop()
            leaked.attrs["leaked"] = True
            self._write_span(leaked)
        if self._stack:
            self._stack.pop()
        self._write_span(span)

    def _write_span(self, span: Span) -> None:
        record = {"type": "span", "name": span.name, "id": span.span_id,
                  "ts": span.ts,
                  "dur": time.perf_counter() - span._t0,
                  "cpu": time.process_time() - span._cpu0,
                  "pid": self.pid}
        if span.parent_id is not None:
            record["parent"] = span.parent_id
        if self.worker is not None:
            record["worker"] = self.worker
        if span.attrs:
            record["attrs"] = span.attrs
        self._emit(record)

    def _emit_event(self, name: str, span_id: str | None, attrs: dict) -> None:
        record = {"type": "event", "name": name, "ts": time.time(),
                  "pid": self.pid}
        if span_id is not None:
            record["span"] = span_id
        if self.worker is not None:
            record["worker"] = self.worker
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    # ------------------------------------------------------------------ #
    # Output

    def _emit(self, record: dict) -> None:
        if self.path is None:
            self.records.append(record)
            return
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        self._handle.write(json.dumps(record, default=str,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()

    def absorb(self, path: str | Path, parent_id: str | None = None,
               worker: str | None = None) -> int:
        """Merge another process's trace file into this tracer's stream.

        Root spans (those without a parent) are re-parented under
        ``parent_id`` — typically the span that launched the worker — so the
        merged trace stays one tree, and so is every span or event whose
        parent span a worker terminated mid-span never wrote.
        ``worker`` overrides the worker label of the absorbed records.
        Per-process ``meta`` records are dropped (the merged trace keeps
        only the parent's).  Returns the number of records absorbed; a
        missing or torn file absorbs what it can.
        """
        records = [record for record in read_trace(path)
                   if record.get("type") != "meta"]
        span_ids = {record["id"] for record in records
                    if record.get("type") == "span"}
        for record in records:
            if parent_id is not None:
                if record.get("type") == "span":
                    if record.get("parent") not in span_ids:
                        record["parent"] = parent_id
                elif "span" in record and record["span"] not in span_ids:
                    record["span"] = parent_id
            if worker is not None:
                record["worker"] = worker
            self._emit(record)
        return len(records)

    def close(self) -> None:
        """Finish open spans, flush metrics and close the file."""
        if self._closed:
            return
        while self._stack:
            span = self._stack[-1]
            span.attrs["unfinished"] = True
            self._finish_span(span)
        if self.metrics:
            self._emit({"type": "metrics", "ts": time.time(), "pid": self.pid,
                        **({"worker": self.worker} if self.worker else {}),
                        **self.metrics.snapshot()})
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Tracer(path={str(self.path)!r}, worker={self.worker!r})"


class _NullTracer:
    """The disabled path: shared singleton, every operation a no-op."""

    enabled = False
    path = None
    worker = None
    metrics = NULL_METRICS

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    @property
    def current_span(self) -> None:
        return None

    def event(self, name: str, **attrs) -> None:
        pass

    def absorb(self, path, parent_id=None, worker=None) -> int:
        return 0

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:
        return "NULL_TRACER"


NULL_TRACER = _NullTracer()

#: The process-global active tracer (None = tracing disabled).
_active: Tracer | None = None


def get_tracer() -> Tracer | _NullTracer:
    """The active tracer, or :data:`NULL_TRACER` when tracing is off.

    A tracer installed before a ``fork()`` is *not* returned in the child
    (the pid no longer matches): two processes sharing one file handle would
    interleave half-written lines.  Children install their own tracer.
    """
    tracer = _active
    if tracer is None or tracer.pid != os.getpid():
        return NULL_TRACER
    return tracer


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process-global tracer; return the old one."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None):
    """Install ``tracer`` for the duration of the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def read_trace(path: str | Path) -> list[dict]:
    """Read a JSONL trace file, skipping torn or foreign lines.

    Mirrors the result store's crash tolerance: a process killed mid-write
    leaves at most one partial line, which is silently dropped rather than
    failing the whole read.  A missing file reads as empty.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: list[dict] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "type" in record:
                records.append(record)
    return records
