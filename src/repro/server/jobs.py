"""The unit of server work: a validated :class:`~repro.runner.task.Task`.

A submission's JSON body is validated at the admission edge by
:func:`parse_job` (bad requests are rejected with HTTP 400 *before* they
cost a pool slot) into the same :class:`~repro.runner.task.Task` the batch
runner executes, and run in a worker process by :func:`execute_job`.

Three kinds of work are served:

``solve``
    DIMACS CNF or ASCII AIGER payload → verdict.  AIGER payloads run one
    of the named preprocessing pipelines first (``baseline`` / ``comp`` /
    ``ours``); CNF payloads go straight to the backend and additionally
    return the satisfying model.  ``proof=true`` requests a DRAT proof of
    an UNSAT verdict (returned inline, together with the preprocessed CNF
    it refutes — matching ``repro solve --proof`` semantics).
``preprocess``
    ASCII AIGER payload → preprocessed DIMACS text plus size counters.
``sweep``
    ASCII AIGER payload → SAT-swept AIGER text plus sweep counters.

A job's key is :meth:`Task.fingerprint`, so the server's memo cache and
the batch runner's JSONL cache speak the same key language, and each kind
hashes only the fields it reads.  The fingerprint keys cross-request
dedup/memoization and seeds the solver, so a job's verdict is independent
of which worker ran it and when.

Execution is :func:`repro.runner.batch.execute_task`, the batch runner's
guarded executor: a wall-clock ``SIGALRM`` budget, a memory watchdog,
chaos injection inside the armed window, and every failure mapped to a
terminal ``TIMEOUT`` / ``MEMOUT`` / ``ERROR`` result.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.aig.aiger import read_aiger, write_aiger
from repro.core.pipeline import PIPELINE_ALIASES, PIPELINES, canonical_pipeline
from repro.errors import ReproError
from repro.runner.batch import execute_task
from repro.runner.task import TASK_KINDS, Task
from repro.sat.backends import BACKEND_NAMES
from repro.sat.configs import CONFIG_PRESETS

__all__ = [
    "BadRequest",
    "execute_job",
    "parse_job",
    "sniff_format",
]

_JSON_KEYS = ("kind", "payload", "fmt", "name", "pipeline", "pipeline_kwargs",
              "backend", "backend_kwargs", "config", "time_limit",
              "hard_timeout", "mem_limit_mb", "proof")


class BadRequest(ReproError):
    """A job spec failed validation (maps to HTTP 400)."""


def sniff_format(payload: str) -> str:
    """Guess ``"aig"`` or ``"cnf"`` from the payload's first token."""
    head = payload.lstrip()[:4]
    if head.startswith("aag ") or head.startswith("aig "):
        return "aig"
    return "cnf"


def parse_job(data: object) -> Task:
    """Validate a decoded JSON body into a task, or raise
    :class:`BadRequest` with a client-actionable message.

    An AIGER solve's payload is canonicalised here, as
    :meth:`Task.from_aig` does, so it has the batch runner's key for the
    same circuit and an unparsable circuit is refused at the door.
    """
    if not isinstance(data, dict):
        raise BadRequest("job spec must be a JSON object")
    unknown = sorted(set(data) - set(_JSON_KEYS))
    if unknown:
        raise BadRequest(f"unknown job spec keys: {unknown}")
    kind = data.get("kind", "solve")
    if kind not in TASK_KINDS:
        raise BadRequest(f"unknown kind {kind!r} (choices: {TASK_KINDS})")
    payload = data.get("payload")
    if not isinstance(payload, str) or not payload.strip():
        raise BadRequest("payload must be a non-empty string "
                         "(DIMACS or ASCII AIGER text)")
    fmt = data.get("fmt") or sniff_format(payload)
    if fmt not in ("cnf", "aig"):
        raise BadRequest(f"unknown fmt {fmt!r} (choices: cnf, aig)")
    if kind in ("preprocess", "sweep") and fmt != "aig":
        raise BadRequest(f"kind {kind!r} requires an AIGER payload")
    proof = bool(data.get("proof", False))
    if proof and kind != "solve":
        raise BadRequest("proof=true is only valid for kind 'solve'")
    backend = data.get("backend", "internal")
    if backend not in BACKEND_NAMES:
        raise BadRequest(f"unknown backend {backend!r} "
                         f"(choices: {sorted(BACKEND_NAMES)})")
    config = data.get("config", "kissat_like")
    if config not in CONFIG_PRESETS:
        raise BadRequest(f"unknown config {config!r} "
                         f"(choices: {sorted(CONFIG_PRESETS)})")
    for key in ("pipeline_kwargs", "backend_kwargs"):
        if not isinstance(data.get(key, {}), dict):
            raise BadRequest(f"{key} must be a JSON object")
    limits: dict[str, float | None] = {}
    for key in ("time_limit", "hard_timeout", "mem_limit_mb"):
        value = data.get(key)
        if value is not None:
            if not isinstance(value, (int, float)) or value <= 0:
                raise BadRequest(f"{key} must be a positive number")
            value = float(value)
        limits[key] = value
    raw = str(data.get("pipeline", "Baseline"))
    pipeline = canonical_pipeline(raw)
    if pipeline is None:
        choices = sorted(PIPELINE_ALIASES) + sorted(PIPELINES)
        raise BadRequest(f"unknown pipeline {raw!r} (choices: {choices})")
    if kind == "solve" and fmt == "aig":
        try:
            payload = write_aiger(read_aiger(payload))
        except ReproError as error:
            raise BadRequest(f"unparsable AIGER payload: {error}") from error
    return Task(
        instance_name=str(data.get("name", "")) or kind,
        payload=payload,
        pipeline=pipeline,
        kind=kind,
        fmt=fmt,
        pipeline_kwargs=dict(data.get("pipeline_kwargs", {})),
        config=CONFIG_PRESETS[config](),
        backend=backend,
        backend_kwargs=dict(data.get("backend_kwargs", {})),
        proof="" if proof else None,
        **limits,
    )


def execute_job(task: Task) -> dict:
    """Pool entry point: run one task to its terminal response dict.

    A proof request gets a temporary path whose proof (and the CNF it
    refutes) are returned inline with an ``UNSAT`` verdict.  A job the
    guard stopped answers with its status, elapsed time and any error
    text only, except a plain circuit solve, which always answers with
    the batch runner's record.
    """
    tmpdir = None
    if task.proof is not None:
        tmpdir = tempfile.mkdtemp(prefix="repro-server-")
        task = replace(task, proof=os.path.join(tmpdir, "proof.drat"))
    try:
        run = execute_task(task)
        record_only = task.kind == "solve" and task.fmt == "aig" \
            and tmpdir is None
        result = {"kind": task.kind, "status": run.status}
        if run.output is None and not record_only:
            result["solve_time"] = run.solve_time
        elif task.kind == "solve":
            result.update(
                pipeline=task.pipeline if task.fmt == "aig" else None,
                num_vars=run.num_vars, num_clauses=run.num_clauses,
                transform_time=run.transform_time,
                solve_time=run.solve_time, stats=run.stats.as_dict())
            if run.model is not None and not record_only:
                result["model"] = {str(var): bool(value)
                                   for var, value in run.model.items()}
            # The refuted CNF is written only beside a kept UNSAT proof.
            if tmpdir is not None and os.path.exists(task.proof + ".cnf"):
                result["proof"] = Path(task.proof).read_text(encoding="utf-8")
                result["proof_cnf"] = Path(task.proof + ".cnf").read_text(
                    encoding="utf-8")
        elif task.kind == "preprocess":
            result.update(pipeline=task.pipeline, num_vars=run.num_vars,
                          num_clauses=run.num_clauses,
                          transform_time=run.transform_time)
        result.update(run.output or {})
        if run.error:
            result["error"] = run.error
        return result
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
