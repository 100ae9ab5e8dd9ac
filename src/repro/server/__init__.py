"""Solve-as-a-service: the long-lived daemon over the batch machinery.

``repro serve`` (or ``python -m repro.server``) runs a zero-dependency
asyncio HTTP/JSON daemon that accepts DIMACS/AIGER payloads, dispatches
them to supervised pre-forked worker processes, one pipe each, and
streams status and results.  Layering, bottom up:

* :mod:`repro.server.jobs` — :func:`parse_job`, which validates a JSON
  job spec into a :class:`repro.runner.task.Task`, and the worker-side
  adapter over the batch runner's guarded executor;
* :mod:`repro.server.service` — admission control (quotas, bounded
  queue, load-shedding ladder), fingerprint dedup/memoization against a
  JSONL result store, worker dispatch and supervision, graceful
  drain;
* :mod:`repro.server.http` — the HTTP/1.1 transport (submit /
  poll / long-poll / fetch, ``/healthz``, ``/metricsz``);
* :mod:`repro.server.loadgen` — the load-generator harness and the
  engine of the ``server_throughput`` benchmark.
"""

from repro.server.http import HttpServer
from repro.server.jobs import BadRequest, execute_job, parse_job
from repro.server.service import AdmissionError, Job, SolveService, TokenBucket

__all__ = [
    "AdmissionError",
    "BadRequest",
    "HttpServer",
    "Job",
    "SolveService",
    "TokenBucket",
    "execute_job",
    "parse_job",
]
