"""``python -m repro.runner`` — run a benchmark sweep from the command line.

A *suite spec* (suite name, size, seed), a pipeline list and a solver preset
expand into one task per (instance, pipeline) cell.  The sweep fans out over
``--jobs`` worker processes, persists every result to a JSONL store and
prints the Fig. 4-style report tables; re-running the same spec against the
same store is a pure cache read that reproduces the aggregates exactly.

Example::

    python -m repro.runner --suite test --size 4 --pipelines Baseline Ours --jobs 4
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.benchgen.suite import (
    CsatInstance,
    generate_test_suite,
    generate_training_suite,
)
from repro.cli.main import nonnegative_int, positive_float, positive_int
from repro.core.pipeline import PIPELINES
from repro.errors import BackendError
from repro.obs import Tracer, configure_logging, use_tracer, verbosity_level
from repro.resilience import RetryPolicy, Supervisor
from repro.runner.batch import BatchRunner
from repro.runner.store import open_store
from repro.runner.task import Task
from repro.sat.backends import (
    BACKEND_NAMES,
    ensure_available,
    fold_portfolio_flags,
    get_backend,
    is_internal,
)
from repro.sat.configs import CONFIG_PRESETS, SolverConfig

#: Suite name -> (generator, default seed); sizes come from ``--size``.
SUITES = {
    "training": (generate_training_suite, 0),
    "test": (generate_test_suite, 1000),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Parallel batch runner for pipeline sweeps with a "
                    "persistent result cache.",
    )
    parser.add_argument("--suite", choices=sorted(SUITES), default="test",
                        help="instance suite to generate (default: test)")
    parser.add_argument("--size", type=int, default=8,
                        help="number of instances in the suite (default: 8)")
    parser.add_argument("--seed", type=int, default=None,
                        help="suite generation seed (default: the suite's own)")
    parser.add_argument("--pipelines", nargs="+", default=["Baseline", "Comp.", "Ours"],
                        choices=sorted(PIPELINES), metavar="PIPELINE",
                        help="pipelines to run (default: Baseline Comp. Ours)")
    parser.add_argument("--solver", choices=sorted(CONFIG_PRESETS),
                        default="kissat_like",
                        help="solver preset (default: kissat_like)")
    parser.add_argument("--backend", choices=sorted(set(BACKEND_NAMES)),
                        default="internal",
                        help="solver backend: the built-in CDCL solver "
                             "(internal), the parallel portfolio harness "
                             "(portfolio) or a real external binary found "
                             "on PATH (default: internal)")
    parser.add_argument("--portfolio", type=positive_int, default=None,
                        metavar="N",
                        help="race N diversified internal solvers per task "
                             "(implies --backend portfolio)")
    parser.add_argument("--cube-depth", type=int, default=None, metavar="K",
                        help="cube-and-conquer: split each task's CNF into "
                             "2^K cubes conquered by the portfolio workers "
                             "(implies --backend portfolio)")
    parser.add_argument("--time-limit", type=float, default=60.0,
                        help="per-instance soft solver limit in seconds "
                             "(default: 60; <= 0 disables)")
    parser.add_argument("--hard-timeout", type=positive_float, default=None,
                        help="per-task wall-clock kill in seconds "
                             "(default: 2x time limit + 30 s)")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes (default: 1 = in-process)")
    parser.add_argument("--retries", type=nonnegative_int, default=None,
                        metavar="N",
                        help="per-task retry cap for transient failures and "
                             "dead workers (default: a conservative built-in "
                             "policy; 0 disables retries entirely)")
    parser.add_argument("--mem-limit", type=positive_float, default=None,
                        metavar="MB",
                        help="per-worker memory ceiling; a task exceeding it "
                             "ends as a MEMOUT run instead of invoking the "
                             "OOM killer")
    parser.add_argument("--store", type=Path, default=None,
                        help="JSONL result store: a file, or an existing "
                             "directory (stored in DIR/results.jsonl; default: "
                             "results/<suite>_size<N>_seed<S>_<solver>.jsonl)")
    parser.add_argument("--lut-size", type=int, default=None,
                        help="LUT size forwarded to the Comp./Ours mappers")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="write a JSONL trace of the sweep (inspect with "
                             "'repro trace report FILE')")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only log errors")
    return parser


def build_tasks(instances: list[CsatInstance], pipelines: list[str],
                config: SolverConfig, time_limit: float | None,
                hard_timeout: float | None,
                lut_size: int | None = None,
                backend: str = "internal",
                backend_kwargs: dict | None = None) -> list[Task]:
    """Expand a suite x pipeline grid into runner tasks."""
    tasks = []
    for instance in instances:
        for name in pipelines:
            kwargs = {}
            if lut_size is not None and name != "Baseline":
                kwargs["lut_size"] = lut_size
            tasks.append(Task.from_instance(
                instance, name, pipeline_kwargs=kwargs, config=config,
                time_limit=time_limit, hard_timeout=hard_timeout,
                backend=backend, backend_kwargs=backend_kwargs,
            ))
    return tasks


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(verbosity_level(args.verbose, args.quiet))

    generator, default_seed = SUITES[args.suite]
    seed = args.seed if args.seed is not None else default_seed
    instances = generator(num_instances=args.size, seed=seed)
    config = CONFIG_PRESETS[args.solver]()
    time_limit = args.time_limit if args.time_limit and args.time_limit > 0 else None

    try:
        backend, backend_kwargs = fold_portfolio_flags(
            args.backend, args.portfolio, args.cube_depth)
        ensure_available(get_backend(backend, **backend_kwargs))
    except BackendError as error:
        print(f"error: {error}")
        return 2

    store_path = args.store
    if store_path is None:
        suffix = "" if is_internal(backend) else f"_{backend}"
        if backend_kwargs.get("num_workers"):
            suffix += f"_w{backend_kwargs['num_workers']}"
        if backend_kwargs.get("cube_depth"):
            suffix += f"_cube{backend_kwargs['cube_depth']}"
        store_path = Path("results") / (
            f"{args.suite}_size{args.size}_seed{seed}_{args.solver}{suffix}.jsonl")
    store = open_store(store_path)

    tasks = build_tasks(instances, args.pipelines, config, time_limit,
                        args.hard_timeout, lut_size=args.lut_size,
                        backend=backend, backend_kwargs=backend_kwargs)
    print(f"Suite {args.suite!r}: {len(instances)} instances x "
          f"{len(args.pipelines)} pipelines = {len(tasks)} tasks "
          f"({args.jobs} jobs, store {store.path})")

    supervisor = None
    if args.retries is not None:
        supervisor = Supervisor(
            RetryPolicy(max_attempts=max(1, args.retries + 1),
                        batch_budget=0 if args.retries == 0 else None))
    tracer = Tracer(args.trace) if args.trace is not None else None
    try:
        with use_tracer(tracer):
            report = BatchRunner(jobs=args.jobs, store=store,
                                 supervisor=supervisor,
                                 mem_limit_mb=args.mem_limit).run(tasks)
    finally:
        if tracer is not None:
            tracer.close()
            print(f"Trace written to {args.trace}")

    # Imported here: eval builds on the runner, not the other way round.
    from repro.eval.runtime import RuntimeComparison

    comparison = RuntimeComparison(solver_name=args.solver,
                                   time_limit=time_limit)
    for run in report.runs:
        comparison.add(run)
    print()
    print(comparison.summary_text())
    print()
    print(f"Result store: {store.path} ({report.cache_summary()})")
    if supervisor is not None and (supervisor.retries_granted
                                   or supervisor.gave_up):
        print(f"Resilience: {supervisor.retries_granted} retries granted, "
              f"{len(supervisor.gave_up)} task(s) exhausted their budget")
    return 0
