"""End-to-end pipelines: Baseline, Comp. and Ours (Sec. IV of the paper).

* **Baseline** — the conventional flow: encode the input AIG directly into
  CNF with the Tseitin transformation and solve.
* **Comp.** — the Eén–Mishchenko–Sörensson 2007 substitute: a fixed
  size-oriented synthesis script followed by conventional (area-cost) LUT
  mapping and LUT-to-CNF conversion.
* **Ours** — Algorithm 1: an RL-guided (or explicitly given) synthesis recipe
  followed by cost-customised (branching-complexity) LUT mapping and
  LUT-to-CNF conversion.

:func:`run_pipeline` executes one pipeline on one instance, measuring the
preprocessing (transformation) time and the solving time separately, and
reporting the solver statistics — in particular the decision count, the
paper's "variable branching times".  Named pipelines accept per-call keyword
arguments through ``pipeline_kwargs`` (e.g. ``lut_size`` or an explicit
``recipe`` for "Ours" and "Comp.").
"""

from __future__ import annotations

import logging
import os
import time
from collections.abc import Callable

from repro.aig.aig import AIG
from repro.cnf.cnf import Cnf
from repro.cnf.dimacs import write_dimacs_file
from repro.cnf.tseitin import tseitin_encode
from repro.core.preprocess import Preprocessor
from repro.core.results import InstanceRun
from repro.obs import get_tracer
from repro.sat.backends import SolverBackend, resolve_backend
from repro.sat.configs import SolverConfig
from repro.sat.solver import SolveResult
from repro.synthesis.recipe import COMPRESS2_RECIPE

logger = logging.getLogger(__name__)

__all__ = [
    "InstanceRun",
    "PIPELINES",
    "PIPELINE_ALIASES",
    "baseline_pipeline",
    "canonical_pipeline",
    "comp_pipeline",
    "encode_aig",
    "ours_pipeline",
    "run_pipeline",
    "write_refuted_cnf",
]


def baseline_pipeline(aig: AIG, sweep: bool = False) -> tuple[Cnf, float]:
    """Baseline: direct Tseitin encoding of the input AIG.

    ``sweep=True`` SAT-sweeps the AIG first (``repro.aig.sweep``), so the
    classic "fraig before encoding" flow is available even without the
    synthesis/mapping stages.
    """
    start = time.perf_counter()
    if sweep:
        from repro.aig.sweep import sweep_aig

        aig = sweep_aig(aig).aig
    cnf = tseitin_encode(aig)
    return cnf, time.perf_counter() - start


def comp_pipeline(aig: AIG, lut_size: int = 4,
                  recipe: list[str] | None = None,
                  sweep: bool = False) -> tuple[Cnf, float]:
    """Comp.: size-oriented synthesis plus conventional (area-cost) mapping.

    ``recipe`` overrides the default ``compress2`` script — used e.g. by the
    Fig. 5 "C. Mapper" ablation, which maps the "Ours" recipe with the
    conventional area cost.  ``sweep`` inserts SAT sweeping between the
    recipe and the mapper.
    """
    preprocessor = Preprocessor(
        lut_size=lut_size,
        use_branching_cost=False,
        recipe=list(recipe) if recipe is not None else list(COMPRESS2_RECIPE),
        sweep=sweep,
    )
    result = preprocessor.preprocess(aig)
    return result.cnf, result.preprocess_time


def ours_pipeline(aig: AIG, agent: object | None = None,
                  recipe: list[str] | None = None,
                  lut_size: int = 4, max_steps: int = 10,
                  sweep: bool = False) -> tuple[Cnf, float]:
    """Ours: RL-guided recipe plus cost-customised LUT mapping (Algorithm 1).

    ``sweep`` inserts SAT sweeping between the recipe and the mapper.
    """
    preprocessor = Preprocessor(
        lut_size=lut_size,
        use_branching_cost=True,
        agent=agent,
        recipe=recipe,
        max_steps=max_steps,
        sweep=sweep,
    )
    result = preprocessor.preprocess(aig)
    return result.cnf, result.preprocess_time


#: The three pipelines of Fig. 4, with their paper labels.
PIPELINES: dict[str, Callable[..., tuple[Cnf, float]]] = {
    "Baseline": baseline_pipeline,
    "Comp.": comp_pipeline,
    "Ours": ours_pipeline,
}

#: Lower-case spellings of the named pipelines accepted by the CLI and the
#: server (the registry uses the paper labels).
PIPELINE_ALIASES = {
    "baseline": "Baseline",
    "comp": "Comp.",
    "comp.": "Comp.",
    "ours": "Ours",
}


def canonical_pipeline(name: str) -> str | None:
    """The registry name of a pipeline spelling, or ``None`` if unknown."""
    if name in PIPELINES:
        return name
    return PIPELINE_ALIASES.get(name.strip().lower())


def _label(pipeline: str | Callable) -> str:
    """The name a pipeline is reported under."""
    if isinstance(pipeline, str):
        return pipeline
    return getattr(pipeline, "__name__", "custom")


def encode_aig(aig: AIG, pipeline: str | Callable[..., tuple[Cnf, float]],
               instance_name: str = "",
               pipeline_kwargs: dict | None = None) -> tuple[Cnf, float]:
    """Preprocess ``aig`` into CNF with ``pipeline``, inside a ``preprocess``
    span; returns the CNF and the transform time."""
    encode = PIPELINES[pipeline] if isinstance(pipeline, str) else pipeline
    with get_tracer().span("preprocess", pipeline=_label(pipeline),
                           instance=instance_name or aig.name) as span:
        cnf, transform_time = encode(aig, **(pipeline_kwargs or {}))
        span.set(num_vars=cnf.num_vars, num_clauses=cnf.num_clauses)
    return cnf, transform_time


def write_refuted_cnf(cnf: Cnf, proof: str, status: str,
                      comments: list[str] | tuple[str, ...] = ()) -> str | None:
    """Write ``cnf`` beside a kept DRAT proof as ``<proof>.cnf``.

    A proof refutes the CNF that was actually solved (after any circuit
    preprocessing), so ``repro proof check`` needs that exact formula next
    to it.  Only an ``UNSAT`` verdict whose proof file was kept has one;
    returns the sibling's path, or ``None`` when nothing was written.
    """
    if status != "UNSAT" or not os.path.exists(proof):
        return None
    sibling = proof + ".cnf"
    write_dimacs_file(cnf, sibling, comments=comments)
    return sibling


def run_pipeline(instance: AIG | Cnf,
                 pipeline: str | Callable[[AIG], tuple[Cnf, float]],
                 instance_name: str = "", config: SolverConfig | None = None,
                 time_limit: float | None = None,
                 max_conflicts: int | None = None,
                 max_decisions: int | None = None,
                 pipeline_kwargs: dict | None = None,
                 backend: str | SolverBackend | None = None,
                 backend_kwargs: dict | None = None,
                 proof: str | None = None) -> InstanceRun:
    """Preprocess ``instance`` with ``pipeline`` and solve the result.

    A :class:`~repro.cnf.cnf.Cnf` instance is already encoded: it skips
    the pipeline and is solved as given.  The run carries the model of a
    SAT verdict, over the variables of the CNF that was solved.

    ``pipeline_kwargs`` are forwarded to the pipeline's encoder, so named
    pipelines can be customised per call (e.g. ``{"lut_size": 6}`` or
    ``{"recipe": [...]}`` for "Ours"/"Comp.") instead of only running with
    the zero-argument defaults of :data:`PIPELINES`.

    ``backend`` selects the solver that consumes the preprocessed CNF: the
    default (``None`` / ``"internal"``) is the built-in CDCL solver; a name
    like ``"kissat"`` dispatches to the real external binary through
    :mod:`repro.sat.backends` (raising
    :class:`repro.errors.BackendUnavailableError` when it is not installed);
    ``"portfolio"`` races diversified internal solvers across processes,
    configured through ``backend_kwargs`` (``num_workers``, ``cube_depth``,
    ...) — the options stay plain data so tasks remain picklable.

    ``proof`` requests a DRAT proof of an UNSAT verdict at that path.  The
    proof refutes the *preprocessed* CNF this call built, not the input
    AIG, so that CNF is written beside it as ``<proof>.cnf`` (the pair
    ``repro proof check`` takes, see :func:`write_refuted_cnf`).
    """
    pipeline_name = _label(pipeline)
    if isinstance(instance, Cnf):
        name, cnf, transform_time = instance_name, instance, 0.0
    else:
        name = instance_name or instance.name
        logger.info("pipeline %s on %s", pipeline_name, name or "<unnamed>")
        cnf, transform_time = encode_aig(instance, pipeline, name,
                                         pipeline_kwargs)
    solve_kwargs: dict = {}
    if proof is not None:
        # Only passed when requested, so backend instances predating the
        # proof parameter keep working.
        solve_kwargs["proof"] = proof
    result: SolveResult = resolve_backend(backend, **(backend_kwargs or {})).solve(
        cnf, config=config, time_limit=time_limit,
        max_conflicts=max_conflicts, max_decisions=max_decisions,
        **solve_kwargs,
    )
    logger.info("pipeline %s on %s: %s (%.3f s transform, %.3f s solve)",
                pipeline_name, name or "<unnamed>", result.status,
                transform_time, result.stats.solve_time)
    if proof is not None:
        write_refuted_cnf(cnf, proof, result.status)
    return InstanceRun(
        instance_name=name,
        pipeline_name=pipeline_name,
        status=result.status,
        transform_time=transform_time,
        solve_time=result.stats.solve_time,
        stats=result.stats,
        num_vars=cnf.num_vars,
        num_clauses=cnf.num_clauses,
        model=result.model,
    )
