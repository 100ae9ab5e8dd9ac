"""repro — EDA-driven preprocessing framework for Circuit-SAT solving.

This library reproduces the DAC 2025 paper *"Logic Optimization Meets SAT: A
Novel Framework for Circuit-SAT Solving"* (Shi et al.): a preprocessing
pipeline that applies an RL-guided logic-synthesis recipe and a
cost-customised LUT mapping to a Circuit-SAT instance before handing the
resulting simplified CNF to a CDCL solver.

Quick start::

    from repro import (
        ripple_carry_adder, lec_instance, ours_pipeline, baseline_pipeline,
        run_pipeline, kissat_like,
    )

    instance = lec_instance(ripple_carry_adder(6), equivalent=False, seed=1)
    baseline = run_pipeline(instance, "Baseline", config=kissat_like())
    ours = run_pipeline(instance, "Ours", config=kissat_like())
    print(baseline.decisions, "->", ours.decisions)

From the command line the same framework is ``python -m repro`` (the
``repro`` console script of an installed checkout): ``repro solve file.cnf``
or ``repro solve circuit.aag --pipeline ours`` solve standard DIMACS/AIGER
workloads, optionally against a real external solver
(``--backend kissat``); ``repro bench`` runs whole sweeps in parallel with a
persistent result cache.  See README.md and docs/cli.md; the harnesses
under ``benchmarks/`` regenerate every table and figure of the paper.
"""

import importlib

__version__ = "0.1.0"

#: Defining module -> the names the root exports from it.  The root imports
#: none of them until one is asked for (PEP 562), so ``repro solve`` and
#: ``repro serve`` do not pay for numpy, the RL agent or the generators.
_EXPORTS_BY_MODULE = {
    "repro.aig": ("AIG", "read_aiger", "write_aiger", "read_aiger_file",
                  "write_aiger_file", "load_aiger"),
    "repro.synthesis": ("rewrite", "refactor", "balance", "resub",
                        "apply_recipe"),
    "repro.mapping": ("map_aig", "branching_complexity"),
    "repro.cnf": ("Cnf", "tseitin_encode", "lut_netlist_to_cnf", "read_dimacs",
                  "write_dimacs", "parse_dimacs", "render_dimacs",
                  "read_dimacs_file", "write_dimacs_file"),
    "repro.sat": ("CdclSolver", "solve_cnf", "kissat_like", "cadical_like",
                  "SolverBackend", "InternalBackend", "SubprocessBackend",
                  "get_backend", "available_backends"),
    "repro.benchgen": ("ripple_carry_adder", "lec_instance", "atpg_instance",
                       "build_miter", "generate_training_suite",
                       "generate_test_suite"),
    "repro.rl": ("DqnAgent", "RandomAgent", "SynthesisEnv", "train_dqn"),
    "repro.core": ("Preprocessor", "baseline_pipeline", "comp_pipeline",
                   "ours_pipeline", "run_pipeline"),
    "repro.runner": ("Task", "BatchRunner", "ResultStore"),
}
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items()
            for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
