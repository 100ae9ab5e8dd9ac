"""The unit of execution: one (instance, pipeline, solver-config) cell.

A :class:`Task` is a fully self-contained, picklable and JSON-stable
description of one run: the instance travels as its serialised payload
(ASCII AIGER, canonical when built by :meth:`Task.from_aig`, or DIMACS for
a CNF solve), the pipeline as its registry name plus JSON-serialisable
keyword arguments, and the solver as a
:class:`repro.sat.configs.SolverConfig`.  The batch runner and the solve
server both execute tasks, through :func:`repro.runner.batch.execute_task`.

Every task has a stable content hash (:meth:`Task.fingerprint`) derived from
all inputs that influence the outcome.  The hash keys the persistent
:class:`repro.runner.store.ResultStore` cache and seeds the solver
deterministically (:meth:`Task.seed`), so a task produces the same result no
matter which worker executes it, in which order, or in which process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.aig.aig import AIG
from repro.aig.aiger import read_aiger, write_aiger
from repro.cnf.cnf import Cnf
from repro.cnf.dimacs import parse_dimacs
from repro.errors import ReproError
from repro.sat.configs import SolverConfig

if TYPE_CHECKING:
    from repro.benchgen.suite import CsatInstance

#: Bump when the fingerprint payload or result record layout changes, so
#: stale stores are never mistaken for valid caches.
SCHEMA_VERSION = 1

#: What a task computes: a verdict, a preprocessed CNF, or a swept AIG.
TASK_KINDS = ("solve", "preprocess", "sweep")


#: Distinct solver configs whose fingerprint payloads are kept.
_CONFIG_PAYLOAD_CACHE_SIZE = 256


class TaskError(ReproError):
    """A task could not be built or is not executable."""


@lru_cache(maxsize=_CONFIG_PAYLOAD_CACHE_SIZE)
def _config_payload(config: SolverConfig, _types: tuple) -> dict:
    """The fingerprint part of ``config``; shared, so never mutated.

    Keyed by the (frozen, hashable) config and its field types: ``1``,
    ``1.0`` and ``True`` are equal keys but serialise differently.  The
    runner always replaces the solver seed with the content-derived one
    (see :meth:`Task.seed`), so the configured seed cannot influence the
    outcome and must not split the cache key.
    """
    payload = asdict(config)
    payload.pop("seed", None)
    return payload


@dataclass
class Task:
    """One (instance, pipeline, solver-config) cell of a sweep.

    ``kind`` is ``solve`` (the default), ``preprocess`` (the pipeline's
    CNF only) or ``sweep`` (SAT sweeping of the circuit); ``fmt`` says
    whether ``payload`` is AIGER (``aig``) or DIMACS (``cnf``, solve only).
    ``time_limit`` is the solver's soft (in-loop) limit; ``hard_timeout`` is
    the wall-clock budget for the whole task (transform + solve), enforced by
    the runner with a worker-side alarm.  ``group`` relabels the run for
    aggregation (e.g. the Fig. 5 setting name) without affecting the
    fingerprint of the underlying computation.  ``backend`` names the solver
    backend (:mod:`repro.sat.backends`) — backends travel by name, never as
    objects, so tasks stay picklable and JSON-stable.  ``backend_kwargs``
    carries the backend's plain-data options (the portfolio backend's
    ``num_workers``/``cube_depth``) and participates in the fingerprint,
    since e.g. a different cube depth is a different computation.

    ``proof`` requests a DRAT proof file of an UNSAT verdict (see
    :mod:`repro.sat.proof`).  It is excluded from the fingerprint — the
    *verdict* is the same computation with or without logging — but a
    proof-bearing task is never served from (or written to) the result
    cache: a cached record has no proof file to offer, so the run must
    actually execute (see :class:`repro.runner.batch.BatchRunner`).  The
    server asks for a proof with an empty path and its adapter supplies a
    temporary one.  ``mem_limit_mb`` arms a memory watchdog around the
    task; like ``proof`` it is not part of the fingerprint.
    """

    instance_name: str
    payload: str
    pipeline: str = "Baseline"
    kind: str = "solve"
    fmt: str = "aig"
    pipeline_kwargs: dict = field(default_factory=dict)
    config: SolverConfig | None = None
    time_limit: float | None = None
    hard_timeout: float | None = None
    group: str = ""
    backend: str = "internal"
    backend_kwargs: dict = field(default_factory=dict)
    proof: str | None = None
    mem_limit_mb: float | None = None

    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_instance(cls, instance: "CsatInstance", pipeline: str,
                      **kwargs) -> "Task":
        """Build a task from a generated suite instance; ``kwargs`` as for
        :meth:`from_aig`."""
        return cls.from_aig(instance.aig, pipeline,
                            instance_name=instance.name, **kwargs)

    @classmethod
    def from_aig(cls, aig: AIG, pipeline: str, instance_name: str = "",
                 pipeline_kwargs: dict | None = None,
                 config: SolverConfig | None = None,
                 time_limit: float | None = None,
                 hard_timeout: float | None = None,
                 group: str = "", backend: str = "internal",
                 backend_kwargs: dict | None = None,
                 proof: str | None = None) -> "Task":
        """Build a task from an in-memory AIG (serialised on the spot).

        Serialisation normalises the circuit: AIGER requires dense variable
        indexing, so dangling (dead) nodes are removed.  Every pipeline of a
        sweep therefore sees the same canonical instance, and structurally
        identical instances share one cache cell.
        """
        if hard_timeout is None:
            hard_timeout = default_hard_timeout(time_limit)
        return cls(
            instance_name=instance_name or aig.name,
            payload=write_aiger(aig),
            pipeline=pipeline,
            pipeline_kwargs=dict(pipeline_kwargs or {}),
            config=config,
            time_limit=time_limit,
            hard_timeout=hard_timeout,
            group=group,
            backend=backend,
            backend_kwargs=dict(backend_kwargs or {}),
            proof=proof,
        )

    @property
    def group_name(self) -> str:
        """The aggregation label: ``group`` when set, else the pipeline name."""
        return self.group or self.pipeline

    def aig(self) -> AIG:
        """Deserialise the instance circuit."""
        return read_aiger(self.payload, name=self.instance_name)

    def instance(self) -> AIG | Cnf:
        """Deserialise the payload: the circuit, or the CNF of a CNF solve."""
        if self.fmt == "cnf":
            return parse_dimacs(self.payload, strict=False)
        return self.aig()

    def fingerprint(self) -> str:
        """Stable content hash of everything that influences the result.

        Only the fields this task's kind reads are hashed: a CNF solve has
        no pipeline, a preprocess no solver, a sweep neither pipeline nor
        backend.  ``group`` is a pure relabelling and is excluded;
        ``hard_timeout`` is included because it can turn a slow success
        into a ``TIMEOUT``.  ``proof`` and ``mem_limit_mb`` are excluded
        too — logging a proof does not change the verdict, and a memory
        trip is never cached — and the runner instead bypasses the cache
        entirely for proof-bearing tasks.
        """
        if self._fingerprint is None:
            payload: dict = {"schema": SCHEMA_VERSION,
                             "hard_timeout": self.hard_timeout}
            if self.kind == "solve" and self.fmt == "aig":
                # The layout predating kinds, so stored caches stay valid.
                payload["aig"] = self.payload
            else:
                payload.update(kind=self.kind, fmt=self.fmt,
                               payload=self.payload)
            if self.fmt == "aig" and self.kind != "sweep":
                payload.update(pipeline=self.pipeline,
                               kwargs=self.pipeline_kwargs)
            if self.kind != "preprocess":
                config_payload = None
                if self.config is not None:
                    config_payload = _config_payload(
                        self.config,
                        tuple(map(type, vars(self.config).values())))
                payload["config"] = config_payload
            if self.kind == "solve":
                payload["time_limit"] = self.time_limit
                if self.backend != "internal":
                    # The default backend is omitted so fingerprints (and
                    # hence result-store caches) from before backends
                    # existed stay valid; a non-default backend is a
                    # different computation.
                    payload["backend"] = self.backend
                if self.backend_kwargs:
                    # Same rationale: only non-default backend options split
                    # the cache key (a different worker count or cube depth
                    # is a different computation).
                    payload["backend_kwargs"] = self.backend_kwargs
            try:
                text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            except TypeError as error:
                raise TaskError(
                    f"task for {self.instance_name!r}/{self.pipeline!r} has "
                    f"non-JSON-serialisable pipeline kwargs "
                    f"{self.pipeline_kwargs!r}; resolve objects (e.g. agents) "
                    f"to plain data first — see resolve_pipeline_kwargs()"
                ) from error
            self._fingerprint = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._fingerprint

    def seed(self) -> int:
        """Deterministic per-task solver seed derived from the fingerprint.

        The runner always solves with this seed — ``config.seed`` is
        ignored — so results depend only on task content, never on worker
        assignment or submission order.
        """
        return int(self.fingerprint()[:8], 16)


def default_hard_timeout(time_limit: float | None,
                         factor: float = 2.0, grace: float = 30.0) -> float | None:
    """Wall-clock kill budget for a task with soft solver limit ``time_limit``.

    The budget leaves room for preprocessing plus a solver that overshoots
    its in-loop limit check; ``None`` (no soft limit) disables the hard kill.
    """
    if time_limit is None:
        return None
    return factor * time_limit + grace


def resolve_pipeline_kwargs(aig: AIG, kwargs: dict) -> dict:
    """Make pipeline kwargs JSON-stable by materialising agent decisions.

    An ``agent`` entry (an RL policy object, not serialisable and not
    hashable content) is rolled out on ``aig`` here, once, and replaced by
    the explicit ``recipe`` it chose — so the task fingerprint captures the
    actual synthesis recipe and workers need not ship policy networks.
    """
    if "agent" not in kwargs:
        return dict(kwargs)
    from repro.core.preprocess import Preprocessor

    resolved = dict(kwargs)
    agent = resolved.pop("agent")
    if agent is not None and "recipe" not in resolved:
        preprocessor = Preprocessor(
            agent=agent,
            lut_size=resolved.get("lut_size", 4),
            max_steps=resolved.get("max_steps", 10),
        )
        resolved["recipe"] = preprocessor._choose_recipe(aig)
    return resolved
