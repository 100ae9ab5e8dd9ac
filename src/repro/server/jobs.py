"""The unit of server work: a validated, fingerprinted job specification.

A :class:`JobSpec` is the JSON body of a submission, validated at the
admission edge (bad requests are rejected with HTTP 400 *before* they cost
a pool slot) and executed in a worker process by :func:`execute_job`.

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

Every spec has a deterministic content-hash :meth:`JobSpec.fingerprint`.
For plain AIGER solves it *is* the :class:`repro.runner.task.Task`
fingerprint (so the server's memo cache and the batch runner's JSONL cache
speak the same key language); other kinds hash their canonical JSON with a
kind discriminator.  The fingerprint keys cross-request dedup/memoization
and seeds the solver, so a job's verdict is independent of which worker
ran it and when.

Execution reuses the hardened single-task path of the batch runner: a
wall-clock ``SIGALRM`` budget, a per-request memory watchdog, and the
exception → terminal-status mapping of
:func:`repro.runner.batch.execute_task` (``TIMEOUT`` / ``MEMOUT`` /
``ERROR`` runs instead of escaping exceptions), with chaos injection
(:func:`repro.resilience.chaos.get_chaos`) inside the armed window.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import signal
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

from repro.aig.aiger import read_aiger, write_aiger
from repro.aig.sweep import sweep_aig
from repro.cnf import read_dimacs, write_dimacs
from repro.core.pipeline import PIPELINES
from repro.errors import ReproError, ResourceLimitExceeded
from repro.resilience.chaos import get_chaos
from repro.resilience.watchdog import Watchdog, use_watchdog
from repro.runner.batch import (HardTimeout, _alarm_available,
                                _raise_hard_timeout, execute_task)
from repro.runner.task import SCHEMA_VERSION, Task, default_hard_timeout
from repro.sat.backends import BACKEND_NAMES, resolve_backend
from repro.sat.configs import SolverConfig, cadical_like, kissat_like

__all__ = [
    "BadRequest",
    "JobSpec",
    "JOB_KINDS",
    "CONFIG_PRESETS",
    "execute_job",
]

logger = logging.getLogger(__name__)

JOB_KINDS = ("solve", "preprocess", "sweep")

#: Solver-config presets selectable by name in a job spec.
CONFIG_PRESETS = {
    "default": SolverConfig,
    "kissat_like": kissat_like,
    "cadical_like": cadical_like,
}

_PIPELINE_ALIASES = {
    "baseline": "Baseline",
    "comp": "Comp.",
    "comp.": "Comp.",
    "ours": "Ours",
}


class BadRequest(ReproError):
    """A job spec failed validation (maps to HTTP 400)."""


def _pipeline_name(raw: str) -> str:
    if raw in PIPELINES:
        return raw
    name = _PIPELINE_ALIASES.get(raw.strip().lower())
    if name is None:
        choices = sorted(_PIPELINE_ALIASES) + sorted(PIPELINES)
        raise BadRequest(f"unknown pipeline {raw!r} (choices: {choices})")
    return name


def sniff_format(payload: str) -> str:
    """Guess ``"aig"`` or ``"cnf"`` from the payload's first token."""
    head = payload.lstrip()[:4]
    if head.startswith("aag ") or head.startswith("aig "):
        return "aig"
    return "cnf"


@dataclass
class JobSpec:
    """One validated server request; picklable and JSON-stable."""

    kind: str = "solve"
    payload: str = ""
    fmt: str = "cnf"
    name: str = ""
    pipeline: str = "Baseline"
    pipeline_kwargs: dict = field(default_factory=dict)
    backend: str = "internal"
    backend_kwargs: dict = field(default_factory=dict)
    config: str = "kissat_like"
    time_limit: float | None = None
    hard_timeout: float | None = None
    mem_limit_mb: float | None = None
    proof: bool = False

    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    _JSON_KEYS = ("kind", "payload", "fmt", "name", "pipeline",
                  "pipeline_kwargs", "backend", "backend_kwargs", "config",
                  "time_limit", "hard_timeout", "mem_limit_mb", "proof")

    @classmethod
    def from_json(cls, data: object) -> "JobSpec":
        """Validate a decoded JSON body into a spec, or raise
        :class:`BadRequest` with a client-actionable message."""
        if not isinstance(data, dict):
            raise BadRequest("job spec must be a JSON object")
        unknown = sorted(set(data) - set(cls._JSON_KEYS))
        if unknown:
            raise BadRequest(f"unknown job spec keys: {unknown}")
        kind = data.get("kind", "solve")
        if kind not in JOB_KINDS:
            raise BadRequest(f"unknown kind {kind!r} (choices: {JOB_KINDS})")
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
        return cls(
            kind=kind,
            payload=payload,
            fmt=fmt,
            name=str(data.get("name", "")),
            pipeline=_pipeline_name(str(data.get("pipeline", "Baseline"))),
            pipeline_kwargs=dict(data.get("pipeline_kwargs", {})),
            backend=backend,
            backend_kwargs=dict(data.get("backend_kwargs", {})),
            config=config,
            proof=proof,
            **limits,
        )

    def as_json(self) -> dict:
        """The plain-data form (inverse of :meth:`from_json`)."""
        data = asdict(self)
        data.pop("_fingerprint", None)
        return data

    def to_task(self) -> Task:
        """The batch-runner task equivalent of an AIGER solve spec."""
        if self.kind != "solve" or self.fmt != "aig":
            raise BadRequest("only AIGER solve specs map onto tasks")
        try:
            aig = read_aiger(self.payload)
        except ReproError as error:
            raise BadRequest(f"unparsable AIGER payload: {error}") from error
        return Task.from_aig(
            aig, self.pipeline,
            instance_name=self.name or aig.name or "job",
            pipeline_kwargs=self.pipeline_kwargs,
            config=CONFIG_PRESETS[self.config](),
            time_limit=self.time_limit,
            hard_timeout=self.hard_timeout,
            backend=self.backend,
            backend_kwargs=self.backend_kwargs,
        )

    def fingerprint(self) -> str:
        """Deterministic content hash keying dedup, memoization and seeding.

        AIGER solve specs reuse the :class:`Task` fingerprint (the batch
        runner's cache key for the *same computation*); other kinds hash
        their canonical JSON with a kind discriminator.  ``name`` labels
        the job but never the computation, and ``proof`` is excluded to
        match task semantics (the verdict is the same computation — the
        cache bypass for proof jobs is enforced at the service layer).
        """
        if self._fingerprint is None:
            if self.kind == "solve" and self.fmt == "aig":
                fingerprint = self.to_task().fingerprint()
            else:
                data = self.as_json()
                data.pop("name", None)
                data.pop("proof", None)
                data["schema"] = SCHEMA_VERSION
                blob = json.dumps(data, sort_keys=True).encode("utf-8")
                fingerprint = hashlib.sha256(blob).hexdigest()
            object.__setattr__(self, "_fingerprint", fingerprint)
        return self._fingerprint

    def seed(self) -> int:
        """Deterministic solver seed derived from the fingerprint."""
        return int(self.fingerprint()[:8], 16)


def _aborted(spec: JobSpec, status: str, elapsed: float,
             error: str | None = None) -> dict:
    result = {"kind": spec.kind, "status": status, "solve_time": elapsed}
    if error:
        result["error"] = error
    return result


def _run_payload(run) -> dict:
    """Result payload for an :class:`InstanceRun` (AIGER solve path)."""
    return {
        "kind": "solve",
        "status": run.status,
        "pipeline": run.pipeline_name,
        "num_vars": run.num_vars,
        "num_clauses": run.num_clauses,
        "transform_time": run.transform_time,
        "solve_time": run.solve_time,
        "stats": run.stats.as_dict(),
    }


def _run_spec(spec: JobSpec) -> dict:
    """The happy path of one job, inside the armed guard window."""
    if spec.kind == "solve":
        # CNF solve (or a proof-bearing AIGER solve, which cannot ride
        # execute_task because the proof must come back inline).
        transform_time = 0.0
        if spec.fmt == "cnf":
            cnf = read_dimacs(spec.payload, strict=False)
        else:
            aig = read_aiger(spec.payload)
            cnf, transform_time = PIPELINES[spec.pipeline](
                aig, **spec.pipeline_kwargs)
        config = replace(CONFIG_PRESETS[spec.config](), seed=spec.seed())
        tmpdir = tempfile.mkdtemp(prefix="repro-server-") if spec.proof \
            else None
        try:
            solve_kwargs: dict = {}
            if tmpdir is not None:
                solve_kwargs["proof"] = os.path.join(tmpdir, "proof.drat")
            backend = resolve_backend(spec.backend, **spec.backend_kwargs)
            result = backend.solve(cnf, config=config,
                                   time_limit=spec.time_limit,
                                   **solve_kwargs)
            payload = {
                "kind": "solve",
                "status": result.status,
                "pipeline": spec.pipeline if spec.fmt == "aig" else None,
                "num_vars": cnf.num_vars,
                "num_clauses": cnf.num_clauses,
                "transform_time": transform_time,
                "solve_time": result.stats.solve_time,
                "stats": result.stats.as_dict(),
            }
            if result.model is not None:
                payload["model"] = {str(var): bool(value)
                                    for var, value in result.model.items()}
            if tmpdir is not None:
                proof_path = solve_kwargs["proof"]
                if os.path.exists(proof_path):
                    with open(proof_path, "r", encoding="utf-8") as handle:
                        payload["proof"] = handle.read()
                    # The proof refutes the CNF *this* call built, so ship
                    # that CNF alongside (repro proof check needs both).
                    payload["proof_cnf"] = write_dimacs(cnf)
            return payload
        finally:
            if tmpdir is not None:
                shutil.rmtree(tmpdir, ignore_errors=True)
    if spec.kind == "preprocess":
        aig = read_aiger(spec.payload)
        cnf, transform_time = PIPELINES[spec.pipeline](
            aig, **spec.pipeline_kwargs)
        return {
            "kind": "preprocess",
            "status": "DONE",
            "pipeline": spec.pipeline,
            "num_vars": cnf.num_vars,
            "num_clauses": cnf.num_clauses,
            "transform_time": transform_time,
            "dimacs": write_dimacs(cnf),
        }
    if spec.kind == "sweep":
        aig = read_aiger(spec.payload)
        result = sweep_aig(aig, seed=(spec.seed() % 100000) or 1,
                           config=CONFIG_PRESETS[spec.config]())
        return {
            "kind": "sweep",
            "status": "DONE",
            "stats": result.stats.as_dict(),
            "aiger": write_aiger(result.aig),
        }
    raise BadRequest(f"unknown kind {spec.kind!r}")  # pragma: no cover


def _execute_guarded(spec: JobSpec) -> dict:
    """Run one spec under the batch runner's guard discipline.

    Same budget enforcement and exception → status mapping as
    :func:`repro.runner.batch.execute_task`: a wall-clock ``SIGALRM``
    (``hard_timeout``), a soft memory watchdog (``mem_limit_mb``), and
    every failure converted to a terminal result dict — an accepted job
    always produces *something* to report.
    """
    start = time.perf_counter()
    use_alarm = spec.hard_timeout is not None and _alarm_available()
    previous_handler = None
    previous_timer = (0.0, 0.0)

    def disarm() -> None:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, *previous_timer)
            signal.signal(signal.SIGALRM, previous_handler)

    watchdog = Watchdog(mem_limit_mb=spec.mem_limit_mb) \
        if spec.mem_limit_mb else None
    with use_watchdog(watchdog) if watchdog is not None else nullcontext():
        try:
            try:
                if use_alarm:
                    previous_handler = signal.signal(signal.SIGALRM,
                                                     _raise_hard_timeout)
                    previous_timer = signal.setitimer(signal.ITIMER_REAL,
                                                      spec.hard_timeout)
                get_chaos().on_task_start(spec.name or spec.kind)
                return _run_spec(spec)
            finally:
                disarm()
        except HardTimeout:
            disarm()
            return _aborted(spec, "TIMEOUT", time.perf_counter() - start)
        except ResourceLimitExceeded as trip:
            disarm()
            return _aborted(spec, trip.status, time.perf_counter() - start)
        except MemoryError:
            disarm()
            return _aborted(spec, "MEMOUT", time.perf_counter() - start)
        except ReproError as error:
            disarm()
            logger.warning("job %s failed: %s", spec.name or spec.kind,
                           error)
            return _aborted(spec, "ERROR", time.perf_counter() - start,
                            error=str(error))
        except Exception as error:  # noqa: BLE001 - terminal catch-all
            disarm()
            logger.exception("job %s failed", spec.name or spec.kind)
            return _aborted(spec, "ERROR", time.perf_counter() - start,
                            error=f"{type(error).__name__}: {error}")


def execute_job(payload: dict) -> dict:
    """Pool entry point: run one JSON job spec to a terminal result dict.

    Plain dicts travel over the pool pipe in both directions so worker
    processes need nothing but this module.  Plain AIGER solves ride
    :func:`repro.runner.batch.execute_task` (identical results to the
    batch runner for the identical fingerprint); everything else runs
    under the same guard discipline via :func:`_execute_guarded`.
    """
    spec = JobSpec.from_json(payload)
    if spec.kind == "solve" and spec.fmt == "aig" and not spec.proof:
        try:
            task = spec.to_task()
        except ReproError as error:
            # Admission normally validates AIGER payloads; a worker must
            # still answer, not crash, if one slips through.
            return _aborted(spec, "ERROR", 0.0, error=str(error))
        watchdog = Watchdog(mem_limit_mb=spec.mem_limit_mb) \
            if spec.mem_limit_mb else None
        with use_watchdog(watchdog) if watchdog is not None \
                else nullcontext():
            run = execute_task(task)
        return _run_payload(run)
    return _execute_guarded(spec)
