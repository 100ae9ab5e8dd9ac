"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into each layer
of the program, so the instrument stays fixed while the program changes.
They are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed call: name, interval, parent and the pair it belongs to."""

    name: str
    span_id: int
    parent: int | None
    trace_id: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans; ``trace_id`` groups one (instance, pipeline)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, trace_id: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, span_id=len(self.spans),
                    parent=parent.span_id if parent else None,
                    trace_id=trace_id or (parent.trace_id if parent else ""),
                    start=time.perf_counter(), attrs=dict(attrs))
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, []),
                                key=lambda item: item.start):
                begin = max(child.start, cursor)
                if child.end > begin:
                    covered += child.end - begin
                    cursor = child.end
            result[span.span_id] = span.duration - covered
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self_times = self.self_times()
        records = [dict(asdict(span), self_s=self_times[span.span_id])
                   for span in self.spans]
        path.write_text(json.dumps(records, indent=1) + "\n",
                        encoding="utf-8")
