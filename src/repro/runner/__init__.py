"""Batch-execution subsystem: parallel sweeps, caching and hard timeouts.

The evaluation harnesses and benchmarks express their work as
:class:`Task` grids (one task per instance x pipeline x solver-config
cell) and hand them to a :class:`BatchRunner`, which

* fans tasks out across worker processes with per-task wall-clock kills,
* seeds the solver deterministically from each task's content hash, and
* caches finished runs in a JSONL :class:`ResultStore` for instant resume
  and reproducible re-aggregation.

``python -m repro.runner`` exposes the same machinery as a CLI.
"""

from repro.runner.batch import BatchReport, BatchRunner, execute_task
from repro.runner.store import (
    ResultStore,
    canonical_record,
    open_store,
    record_to_run,
    run_to_record,
)
from repro.runner.task import (
    Task,
    TaskError,
    default_hard_timeout,
    resolve_pipeline_kwargs,
)

__all__ = [
    "Task",
    "TaskError",
    "default_hard_timeout",
    "resolve_pipeline_kwargs",
    "ResultStore",
    "open_store",
    "run_to_record",
    "record_to_run",
    "canonical_record",
    "BatchRunner",
    "BatchReport",
    "execute_task",
]
