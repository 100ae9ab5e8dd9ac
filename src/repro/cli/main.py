"""Argument parsing and subcommand implementations of the ``repro`` CLI.

The CLI is a thin layer: file I/O comes from :mod:`repro.cnf.dimacs` and
:mod:`repro.aig.aiger`; :func:`repro.core.pipeline.encode_aig` runs the
Baseline / Comp. / Ours pipelines of Sec. IV and
:func:`~repro.core.pipeline.run_pipeline` gets the verdict from a
:mod:`repro.sat.backends` backend.  ``solve`` speaks the SAT-competition
output conventions (``c``/``s``/``v`` lines, exit codes 10 / 20 / 0) so
the tool drops into existing solver harnesses unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro.aig.aig import AIG
from repro.aig.aiger import load_aiger
from repro.cnf.cnf import Cnf
from repro.cnf.dimacs import parse_dimacs, write_dimacs_file
from repro.core.pipeline import (PIPELINE_ALIASES, PIPELINES,
                                 canonical_pipeline, encode_aig, run_pipeline)
from repro.errors import ReproError
from repro.obs import (
    Tracer,
    configure_logging,
    read_trace,
    set_tracer,
    verbosity_level,
)
from repro.resilience import RetryPolicy, Supervisor, Watchdog, use_watchdog
from repro.sat.backends import (
    BACKEND_NAMES,
    PORTFOLIO_NAME,
    FallbackBackend,
    InternalBackend,
    PortfolioBackend,
    available_backends,
    ensure_available,
    fold_portfolio_flags,
    get_backend,
    is_internal,
)
from repro.sat.configs import CONFIG_PRESETS
from repro.synthesis.recipe import OPERATIONS, canonical_operation

#: SAT-competition exit codes for ``solve``.  A tripped resource watchdog
#: (``MEMOUT``) is an inconclusive result, like a timeout.
EXIT_CODES = {"SAT": 10, "UNSAT": 20, "UNKNOWN": 0, "TIMEOUT": 0,
              "MEMOUT": 0}

#: File extensions treated as DIMACS CNF; AIGER files are sniffed by header.
CNF_SUFFIXES = (".cnf", ".dimacs")
AIGER_SUFFIXES = (".aag", ".aig")


class CliError(ReproError):
    """A user-facing CLI failure (bad file, bad flag combination)."""


def _at_least(convert, bound, strict: bool = False):
    """An argparse ``type``: a number >= ``bound`` (> if ``strict``)."""
    def parse(text: str):
        value = convert(text)
        if not (value > bound if strict else value >= bound):
            raise argparse.ArgumentTypeError(
                f"must be {'greater than' if strict else 'at least'} "
                f"{bound}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in its errors
    return parse


#: Number checks shared by ``repro solve`` and ``python -m repro.runner``.
positive_int = _at_least(int, 1)
nonnegative_int = _at_least(int, 0)
positive_float = _at_least(float, 0, strict=True)


# --------------------------------------------------------------------- #
# Input loading


def load_input(path: str | Path) -> tuple[str, Cnf | AIG]:
    """Load ``path`` as ``("cnf", Cnf)`` or ``("aig", AIG)``.

    The kind is chosen by extension first (``.cnf``/``.dimacs`` vs.
    ``.aag``/``.aig``) and by content sniffing for anything else, so
    renamed or extensionless benchmark files still load.
    """
    path = Path(path)
    if not path.exists():
        raise CliError(f"no such file: {path}")
    suffix = path.suffix.lower()
    if suffix in CNF_SUFFIXES:
        return "cnf", parse_dimacs(path.read_text(), strict=False)
    if suffix in AIGER_SUFFIXES:
        return "aig", load_aiger(path)
    head = path.read_bytes()[:16]
    if head.startswith(b"aag ") or head.startswith(b"aig "):
        return "aig", load_aiger(path)
    if head.lstrip().startswith((b"p ", b"c", b"p\t")):
        return "cnf", parse_dimacs(path.read_text(), strict=False)
    raise CliError(
        f"cannot determine the format of {path}: expected a DIMACS CNF "
        f"(.cnf) or an AIGER circuit (.aag/.aig)"
    )


def resolve_pipeline(name: str) -> str:
    """Map a CLI pipeline spelling to its registry name."""
    canonical = canonical_pipeline(name)
    if canonical is None:
        raise CliError(
            f"unknown pipeline {name!r}; choose from "
            f"{', '.join(sorted(PIPELINE_ALIASES))}"
        )
    return canonical


def parse_recipe(text: str) -> list[str]:
    """Parse a comma/space-separated synthesis recipe, validating each op.

    ABC-style one-letter aliases (``f`` = ``fraig``, ``b`` = ``balance``,
    ...) are expanded to their registry spellings.
    """
    operations = [canonical_operation(op)
                  for chunk in text.split(",") for op in chunk.split() if op]
    for op in operations:
        if op not in OPERATIONS and op != "end":
            raise CliError(
                f"unknown synthesis operation {op!r} in --recipe; "
                f"available: {', '.join(OPERATIONS)}"
            )
    return operations


def pipeline_kwargs_from_args(args: argparse.Namespace,
                              pipeline: str) -> dict:
    """Collect the per-pipeline keyword arguments selected on the CLI."""
    kwargs: dict = {}
    if args.sweep:
        kwargs["sweep"] = True  # every pipeline supports SAT sweeping
    if pipeline == "Baseline":
        if args.recipe is not None or args.lut_size is not None:
            raise CliError(
                "--recipe/--lut-size configure the Comp./Ours mappers and "
                "do not apply to the Baseline pipeline"
            )
        return kwargs
    if args.lut_size is not None:
        kwargs["lut_size"] = args.lut_size
    if args.recipe is not None:
        kwargs["recipe"] = parse_recipe(args.recipe)
    return kwargs


# --------------------------------------------------------------------- #
# Output helpers


def _emit(line: str = "", quiet: bool = False) -> None:
    if not quiet:
        print(line)


def _comment(message: str, quiet: bool = False) -> None:
    _emit(f"c {message}", quiet)


def _model_lines(model: dict[int, bool], num_vars: int) -> list[str]:
    """Render the model as SAT-competition ``v`` lines (wrapped, 0-ended)."""
    literals = []
    for var in range(1, num_vars + 1):
        value = model.get(var, False)
        literals.append(str(var if value else -var))
    literals.append("0")
    lines = []
    current = "v"
    for token in literals:
        if len(current) + 1 + len(token) > 78:
            lines.append(current)
            current = "v"
        current += " " + token
    lines.append(current)
    return lines


def _write_json(payload: dict, destination: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        Path(destination).write_text(text + "\n")


# --------------------------------------------------------------------- #
# Subcommands


def cmd_solve(args: argparse.Namespace) -> int:
    kind, instance = load_input(args.file)
    config = CONFIG_PRESETS[args.config]()
    quiet = args.quiet
    # --portfolio/--cube-depth fold into the portfolio backend; the shared
    # helper owns the validation rules for both this CLI and the runner's.
    backend_name, backend_kwargs = fold_portfolio_flags(
        args.backend, args.portfolio, args.cube_depth, args.share_clauses)
    if args.proof is not None and not is_internal(backend_name) \
            and backend_name != PORTFOLIO_NAME and not args.fallback:
        # External binaries cannot feed the built-in checker; fail before
        # the (potentially long) preprocessing pipeline, not after.
        raise CliError(
            f"--proof needs the internal solver ({args.backend!r} cannot "
            f"emit a checkable DRAT proof); drop --backend, use "
            f"--portfolio N, or add --fallback")
    if is_internal(backend_name):
        # kissat-style periodic progress lines on stdout 'c' comments.
        backend = InternalBackend(
            progress=(lambda snapshot: print(snapshot.progress_line()))
            if args.verbose and not quiet else None)
    else:
        # The portfolio rejects --solver-binary: it races the internal solver.
        backend = get_backend(backend_name, binary=args.solver_binary,
                              **backend_kwargs)
    if isinstance(backend, PortfolioBackend) and (args.retries
                                                  or args.fallback):
        raise CliError(
            "--retries/--fallback do not apply to --portfolio/--cube-depth "
            "(the portfolio supervises its own workers and degrades itself)")
    supervisor = None
    if args.retries:
        # N retries = N + 1 total attempts per failure key.
        supervisor = Supervisor(RetryPolicy(max_attempts=args.retries + 1))
    resilient = None
    if not isinstance(backend, PortfolioBackend) and (
            supervisor is not None or args.fallback):
        degrade_to = InternalBackend() \
            if args.fallback and not isinstance(backend, InternalBackend) \
            else None
        resilient = FallbackBackend(backend, fallback=degrade_to,
                                    supervisor=supervisor)
        backend = resilient
    # Fail fast on a missing external binary — before the (potentially
    # minutes-long) preprocessing pipeline runs, not after.  With
    # --fallback, a reachable fallback is enough to proceed.
    ensure_available(backend)

    _comment(f"repro solve {args.file}", quiet)
    transform_time = 0.0
    pipeline_name = None
    recipe = None
    if kind == "aig":
        pipeline_name = resolve_pipeline(args.pipeline)
        kwargs = pipeline_kwargs_from_args(args, pipeline_name)
        _comment(f"circuit: {instance.num_pis} PIs, {instance.num_pos} POs, "
                 f"{instance.num_ands} AND gates", quiet)
        # Encoded here, not inside run_pipeline, so the pipeline and cnf
        # lines print before the solve starts.
        cnf, transform_time = encode_aig(instance, pipeline_name,
                                         str(args.file), kwargs)
        recipe = kwargs.get("recipe")
        _comment(f"pipeline {pipeline_name}: encoded in "
                 f"{transform_time:.3f} s", quiet)
    else:
        # --pipeline has a default and is silently unused for CNF input;
        # only flags that always imply circuit preprocessing are rejected.
        if args.recipe is not None or args.lut_size is not None or args.sweep:
            raise CliError(
                f"{args.file} is already CNF; --recipe/--lut-size/--sweep "
                f"apply only to circuit (.aag/.aig) inputs"
            )
        cnf = instance
    _comment(f"cnf: {cnf.num_vars} variables, {cnf.num_clauses} clauses",
             quiet)
    _comment(f"backend {backend.name} (config {config.name}, "
             f"time limit {args.time_limit})", quiet)
    if isinstance(backend, PortfolioBackend):
        mode = (f"cube-and-conquer depth {backend.cube_depth}"
                if backend.cube_depth else "racing portfolio")
        if backend.share_clauses:
            mode += " with clause sharing"
        _comment(f"portfolio: {backend.num_workers} workers, {mode}", quiet)
    if args.proof is not None:
        _comment(f"proof: logging DRAT to {args.proof}", quiet)

    if args.mem_limit:
        _comment(f"memory ceiling {args.mem_limit:g} MB (soft watchdog)",
                 quiet)

    # The watchdog is process-global and survives fork, so portfolio
    # workers inherit the ceiling too.
    guard = use_watchdog(Watchdog(mem_limit_mb=args.mem_limit)) \
        if args.mem_limit else nullcontext()
    with guard:
        run = run_pipeline(cnf, pipeline_name or "Baseline",
                           instance_name=str(args.file), config=config,
                           time_limit=args.time_limit,
                           max_conflicts=args.max_conflicts,
                           max_decisions=args.max_decisions,
                           backend=backend, proof=args.proof)

    if resilient is not None:
        if supervisor is not None and supervisor.retries_granted:
            _comment(f"WARNING: backend {resilient.primary.name} retried "
                     f"{supervisor.retries_granted} time(s)", quiet)
        for event in resilient.events:
            _comment(f"WARNING: backend fallback: {event}", quiet)
        if resilient.fallbacks:
            _comment(f"WARNING: degraded from {resilient.primary.name} to "
                     f"{resilient.fallback.name}", quiet)

    report = getattr(backend, "report", None)  # only a portfolio has one
    if report is not None:
        spawn_failed = [worker.index for worker in report.workers
                        if worker.status == "SPAWN_FAILED"]
        if spawn_failed:
            _comment(f"WARNING: worker(s) {spawn_failed} failed to spawn",
                     quiet)
        if report.winner is not None \
                and report.winner.endswith("+seq-fallback"):
            _comment("WARNING: every portfolio worker was lost; verdict "
                     "comes from the in-process sequential fallback", quiet)
        for worker in report.workers:
            detail = ""
            if worker.stats is not None:
                detail = (f" decisions {worker.stats.decisions} "
                          f"conflicts {worker.stats.conflicts}")
            if report.mode == "cube":
                detail += f" cubes {worker.cubes_solved}"
            _comment(f"worker {worker.index} [{worker.config_name}]: "
                     f"{worker.status} in {worker.solve_time:.3f} s{detail}",
                     quiet)
        if report.mode == "cube":
            _comment(f"cube split: {report.num_cubes} cubes on "
                     f"variables {report.cube_variables}", quiet)
        if report.sharing is not None:
            counters = report.sharing
            _comment(f"sharing: exported {counters.get('exported', 0)} "
                     f"imported {counters.get('imported', 0)} "
                     f"filtered {counters.get('filtered', 0)}", quiet)
        if report.winner is not None:
            _comment(f"winner: {report.winner}", quiet)

    stats = run.stats
    sat = run.status == "SAT"
    if run.status == "MEMOUT":
        _comment("WARNING: memory ceiling reached; result is MEMOUT", quiet)
    _comment(f"decisions {stats.decisions} conflicts {stats.conflicts} "
             f"propagations {stats.propagations} restarts {stats.restarts}",
             quiet)
    _comment(f"solve time {run.solve_time:.3f} s "
             f"(total {transform_time + run.solve_time:.3f} s)", quiet)

    proof_path = None
    if args.proof is not None:
        # run_pipeline wrote <proof>.cnf beside a kept UNSAT proof.
        if run.status == "UNSAT" and os.path.exists(args.proof):
            proof_path = args.proof
            cnf_sibling = args.proof + ".cnf"
            _comment(f"proof: wrote {args.proof} and {cnf_sibling}; verify "
                     f"with 'repro proof check {cnf_sibling} {args.proof}'",
                     quiet)
        else:
            _comment(f"proof: no DRAT proof produced "
                     f"(status {run.status})", quiet)

    status_word = {"SAT": "SATISFIABLE", "UNSAT": "UNSATISFIABLE"}.get(
        run.status, "UNKNOWN")
    print(f"s {status_word}")
    if sat and not args.no_model:
        for line in _model_lines(run.model, cnf.num_vars):
            print(line)

    if args.json is not None:
        payload = {
            "file": str(args.file),
            "kind": kind,
            "pipeline": pipeline_name,
            "recipe": recipe,
            "backend": backend.name,
            "config": config.name,
            "status": run.status,
            "num_vars": cnf.num_vars,
            "num_clauses": cnf.num_clauses,
            "transform_time": transform_time,
            "solve_time": run.solve_time,
            "stats": stats.as_dict(),
            "model": ({str(var): value for var, value in run.model.items()}
                      if sat and not args.no_model else None),
            "proof": proof_path,
        }
        payload["resilience"] = {
            "retries": (supervisor.retries_granted
                        if supervisor is not None else 0),
            "fallbacks": resilient.fallbacks if resilient is not None else 0,
            "fallback_events": (list(resilient.events)
                                if resilient is not None else []),
            "mem_limit_mb": args.mem_limit,
            "memout": run.status == "MEMOUT",
        }
        if report is not None:
            payload["portfolio"] = report.as_dict()
        _write_json(payload, args.json)
    return EXIT_CODES.get(run.status, 0)


def cmd_preprocess(args: argparse.Namespace) -> int:
    kind, instance = load_input(args.file)
    if kind != "aig":
        raise CliError(
            f"{args.file} is already CNF; preprocess takes a circuit "
            f"(.aag/.aig) input"
        )
    pipeline_name = resolve_pipeline(args.pipeline)
    kwargs = pipeline_kwargs_from_args(args, pipeline_name)

    cnf, transform_time = encode_aig(instance, pipeline_name, str(args.file),
                                     kwargs)

    output = Path(args.output) if args.output else Path(
        Path(args.file).stem + f".{args.pipeline.lower().rstrip('.')}.cnf")
    comments = [
        f"generated by repro preprocess ({pipeline_name} pipeline)",
        f"source: {args.file}",
    ]
    if "recipe" in kwargs:
        comments.append(f"recipe: {','.join(kwargs['recipe'])}")
    write_dimacs_file(cnf, output, comments=comments)

    _comment(f"repro preprocess {args.file}", args.quiet)
    _comment(f"circuit: {instance.num_pis} PIs, {instance.num_pos} POs, "
             f"{instance.num_ands} AND gates", args.quiet)
    _comment(f"pipeline {pipeline_name}: {cnf.num_vars} variables, "
             f"{cnf.num_clauses} clauses in {transform_time:.3f} s",
             args.quiet)
    _emit(f"wrote {output}", args.quiet)

    if args.json is not None:
        _write_json({
            "file": str(args.file),
            "pipeline": pipeline_name,
            "output": str(output),
            "num_vars": cnf.num_vars,
            "num_clauses": cnf.num_clauses,
            "transform_time": transform_time,
        }, args.json)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.aig.aiger import write_aiger_binary, write_aiger_file
    from repro.aig.sweep import sweep_aig

    kind, instance = load_input(args.file)
    if kind != "aig":
        raise CliError(
            f"{args.file} is already CNF; sweep takes a circuit "
            f"(.aag/.aig) input"
        )
    result = sweep_aig(instance, num_patterns=args.patterns,
                       conflict_budget=args.conflict_budget,
                       max_class_size=args.max_class_size, seed=args.seed)
    stats = result.stats

    output = Path(args.output) if args.output else Path(
        Path(args.file).stem + ".fraig.aag")
    if output.suffix.lower() == ".aig":
        output.write_bytes(write_aiger_binary(result.aig))
    else:
        write_aiger_file(result.aig, output)

    _comment(f"repro sweep {args.file}", args.quiet)
    _comment(f"circuit: {instance.num_pis} PIs, {instance.num_pos} POs, "
             f"{instance.num_ands} AND gates", args.quiet)
    _comment(f"swept:   {stats.nodes_before} -> {stats.nodes_after} AND "
             f"gates ({stats.merges} merges, {stats.const_merges} constants) "
             f"in {stats.sweep_time:.3f} s", args.quiet)
    _comment(f"proofs:  {stats.sat_calls} SAT calls "
             f"({stats.proved} proved, {stats.refuted} refuted, "
             f"{stats.undecided} budgeted out, "
             f"{stats.refinements} refinements)", args.quiet)
    _emit(f"wrote {output}", args.quiet)

    if args.json is not None:
        _write_json({
            "file": str(args.file),
            "output": str(output),
            "num_pis": instance.num_pis,
            "num_pos": instance.num_pos,
            "stats": stats.as_dict(),
        }, args.json)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    records = read_trace(args.file)
    if not records:
        raise CliError(f"no trace records in {args.file}")

    if args.trace_command == "report":
        from repro.obs.report import format_report, summarize

        summary = summarize(records, top=args.top)
        if args.json is not None:
            _write_json(summary.as_dict(), args.json)
        else:
            print(format_report(summary))
        return 0

    # export: Chrome trace_event JSON for chrome://tracing / Perfetto.
    from repro.obs.export import write_chrome_trace

    output = Path(args.output) if args.output else \
        Path(args.file).with_suffix(".chrome.json")
    write_chrome_trace(records, output)
    print(f"wrote {output}")
    return 0


def cmd_proof(args: argparse.Namespace) -> int:
    # Only 'check' exists today; the dest is kept so 'repro proof fuzz' or
    # similar can slot in later without reshaping the command.
    from repro.sat.proof import check_drat_file

    kind, instance = load_input(args.cnf)
    if kind != "cnf":
        raise CliError(
            f"{args.cnf} is a circuit; 'repro proof check' verifies a DRAT "
            f"proof against the DIMACS CNF it refutes — 'solve --proof' "
            f"writes that formula as <proof>.cnf next to the proof")
    if not Path(args.proof_file).exists():
        raise CliError(f"no such file: {args.proof_file}")

    quiet = args.quiet
    _comment(f"repro proof check {args.cnf} {args.proof_file}", quiet)
    _comment(f"cnf: {instance.num_vars} variables, "
             f"{instance.num_clauses} clauses", quiet)
    start = time.perf_counter()
    outcome = check_drat_file(instance, args.proof_file, check_all=args.all)
    check_time = time.perf_counter() - start
    _comment(f"proof: {outcome.lemmas} lemmas, {outcome.deletions} "
             f"deletions; checked {outcome.checked} "
             f"({'all lemmas' if args.all else 'backward core'}) "
             f"in {check_time:.3f} s", quiet)
    if not outcome.valid:
        _comment(f"reason: {outcome.reason}", quiet)
    print("s VERIFIED" if outcome.valid else "s NOT VERIFIED")

    if args.json is not None:
        _write_json({
            "cnf": str(args.cnf),
            "proof": str(args.proof_file),
            "valid": outcome.valid,
            "reason": outcome.reason,
            "lemmas": outcome.lemmas,
            "checked": outcome.checked,
            "deletions": outcome.deletions,
            "check_time": check_time,
        }, args.json)
    return 0 if outcome.valid else 1


def cmd_bench(argv: list[str]) -> int:
    # The sweep runner keeps its own parser; ``repro bench`` simply forwards
    # so there is one front door but no duplicated flag definitions.
    from repro.runner.cli import main as runner_main

    return runner_main(argv)


def cmd_info(args: argparse.Namespace) -> int:
    from repro import __version__

    if args.file is None:
        print(f"repro {__version__}")
        print(f"pipelines: {', '.join(PIPELINES)}")
        print(f"synthesis operations: {', '.join(OPERATIONS)}")
        print("backends:")
        for name, ok in available_backends().items():
            marker = "available" if ok else "not found"
            print(f"  {name:<10s} {marker}")
        print("env: REPRO_SOLVER_<NAME> overrides an external solver binary; "
              "REPRO_BENCH_JOBS / REPRO_BENCH_CACHE / REPRO_BENCH_BACKEND "
              "configure the benchmark harnesses")
        return 0

    kind, instance = load_input(args.file)
    print(f"{args.file}: {'DIMACS CNF' if kind == 'cnf' else 'AIGER circuit'}")
    if kind == "cnf":
        lengths = [len(clause) for clause in instance.clauses]
        print(f"  variables: {instance.num_vars}")
        print(f"  clauses:   {instance.num_clauses}")
        if lengths:
            print(f"  clause length: min {min(lengths)}, "
                  f"max {max(lengths)}, "
                  f"mean {sum(lengths) / len(lengths):.2f}")
    else:
        print(f"  primary inputs:  {instance.num_pis}")
        print(f"  primary outputs: {instance.num_pos}")
        print(f"  AND gates:       {instance.num_ands}")
        print(f"  logic depth:     {instance.depth()}")
    return 0


# --------------------------------------------------------------------- #
# Parser


def _add_solve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pipeline", default="ours",
                        help="preprocessing pipeline for circuit inputs: "
                             "baseline, comp or ours (default: ours)")
    parser.add_argument("--recipe", default=None,
                        help="explicit synthesis recipe for comp/ours, "
                             "comma-separated (e.g. balance,rewrite,resub)")
    parser.add_argument("--lut-size", type=int, default=None,
                        help="LUT size for the comp/ours mappers (default: 4)")
    parser.add_argument("--sweep", action="store_true",
                        help="SAT-sweep (fraig) the circuit before "
                             "mapping/encoding: merge functionally "
                             "equivalent nodes under incremental SAT proofs")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write a JSON report to PATH ('-' = stdout)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the 'c' comment lines")
    _add_obs_flags(parser)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the solve-as-a-service daemon until SIGTERM/SIGINT, then drain."""
    import asyncio
    import signal as _signal
    from pathlib import Path

    from repro.runner.store import open_store
    from repro.server.http import HttpServer
    from repro.server.service import SolveService

    async def _serve() -> int:
        store = open_store(args.store) if args.store else None
        service = SolveService(
            jobs=args.jobs, max_queue=args.max_queue, shed_at=args.shed_at,
            quota_rate=args.quota_rate, quota_burst=args.quota_burst,
            time_limit=args.time_limit, hard_timeout=args.hard_timeout,
            mem_limit_mb=args.mem_limit, store=store)
        await service.start()
        http = HttpServer(service, args.host, args.port,
                          header_timeout=args.header_timeout)
        await http.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        url = f"http://{http.host}:{http.port}"
        if not args.quiet:
            print(f"c serving on {url} ({service.jobs} workers, "
                  f"queue {service.max_queue})")
            sys.stdout.flush()
        if args.ready_file:
            # CI and scripts poll this file to learn the bound address.
            Path(args.ready_file).write_text(url + "\n", encoding="utf-8")
        try:
            await stop.wait()
        finally:
            if not args.quiet:
                print("c draining ...")
                sys.stdout.flush()
            await http.stop()
            await service.shutdown(grace=args.grace)
        if not args.quiet:
            print("c drained cleanly")
        return 0

    return asyncio.run(_serve())


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a JSONL execution trace to FILE (inspect "
                             "with 'repro trace report FILE')")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-v info, -vv debug); "
                             "with the internal solver, also print periodic "
                             "'c' progress lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EDA-driven Circuit-SAT preprocessing and solving "
                    "(reproduction of Shi et al., DAC 2025).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser(
        "solve", help="solve a .cnf/.aag/.aig file",
        description="Solve a DIMACS CNF or AIGER circuit file.  Circuits "
                    "are preprocessed through the selected pipeline first; "
                    "output follows the SAT-competition conventions "
                    "(exit code 10 = SAT, 20 = UNSAT, 0 = unknown).")
    solve.add_argument("file", help="input file (.cnf, .aag or .aig)")
    _add_solve_flags(solve)
    solve.add_argument("--backend", default="internal",
                       choices=sorted(set(BACKEND_NAMES)),
                       help="solver backend: the built-in CDCL solver or a "
                            "real binary on PATH (default: internal)")
    solve.add_argument("--solver-binary", default=None, metavar="PATH",
                       help="explicit executable for the external backend")
    solve.add_argument("--portfolio", type=int, default=None, metavar="N",
                       help="race N diversified internal solver "
                            "configurations in parallel processes; the "
                            "first SAT/UNSAT verdict wins")
    solve.add_argument("--cube-depth", type=int, default=None, metavar="K",
                       help="cube-and-conquer: split the formula into 2^K "
                            "cubes on high-occurrence variables and conquer "
                            "them on incremental portfolio workers "
                            "(combine with --portfolio N for the worker "
                            "count, default 4)")
    solve.add_argument("--config", default="kissat_like",
                       choices=sorted(CONFIG_PRESETS),
                       help="internal-solver preset (default: kissat_like)")
    solve.add_argument("--time-limit", type=positive_float, default=None,
                       metavar="S",
                       help="soft solver time limit in seconds")
    solve.add_argument("--max-conflicts", type=nonnegative_int, default=None,
                       help="internal-solver conflict budget")
    solve.add_argument("--max-decisions", type=nonnegative_int, default=None,
                       help="internal-solver decision budget")
    solve.add_argument("--no-model", action="store_true",
                       help="suppress the 'v' model lines on SAT")
    solve.add_argument("--retries", type=nonnegative_int, default=0,
                       metavar="N",
                       help="retry transient backend failures (crashed "
                            "binary, I/O error) up to N times before giving "
                            "up or falling back (default: 0)")
    solve.add_argument("--mem-limit", type=positive_float, default=None,
                       metavar="MB",
                       help="soft memory ceiling for solving; exceeding it "
                            "yields a clean MEMOUT verdict (exit code 0) "
                            "instead of an OOM kill")
    solve.add_argument("--fallback", action="store_true",
                       help="if the external backend fails (after any "
                            "--retries), degrade to the internal solver "
                            "instead of erroring out")
    solve.add_argument("--share-clauses", action="store_true",
                       help="exchange short, low-LBD learned clauses "
                            "between --portfolio racing workers over a "
                            "process bus (requires --portfolio N; not "
                            "compatible with --cube-depth)")
    solve.add_argument("--proof", default=None, metavar="FILE",
                       help="on UNSAT, write a DRAT proof to FILE and the "
                            "exact CNF it refutes to FILE.cnf; verify with "
                            "'repro proof check FILE.cnf FILE' (internal "
                            "and portfolio backends only)")
    solve.set_defaults(handler=cmd_solve)

    preprocess = subparsers.add_parser(
        "preprocess", help="run a pipeline and write the DIMACS CNF",
        description="Preprocess an AIGER circuit through a named pipeline "
                    "and write the resulting DIMACS CNF without solving it.")
    preprocess.add_argument("file", help="input circuit (.aag or .aig)")
    preprocess.add_argument("-o", "--output", default=None,
                            help="output CNF path (default: "
                                 "<input stem>.<pipeline>.cnf)")
    _add_solve_flags(preprocess)
    preprocess.set_defaults(handler=cmd_preprocess)

    sweep = subparsers.add_parser(
        "sweep", help="SAT-sweep (fraig) a circuit and write the result",
        description="Merge functionally equivalent AIG nodes under "
                    "incremental SAT proofs (random-simulation candidates, "
                    "counterexample-guided refinement) and write the swept "
                    "circuit as AIGER.")
    sweep.add_argument("file", help="input circuit (.aag or .aig)")
    sweep.add_argument("-o", "--output", default=None,
                       help="output path; .aig writes binary AIGER "
                            "(default: <input stem>.fraig.aag)")
    sweep.add_argument("--patterns", type=int, default=2048,
                       help="random simulation patterns for candidate "
                            "classes (default: %(default)s)")
    sweep.add_argument("--conflict-budget", type=int, default=200,
                       help="CDCL conflict limit per equivalence query "
                            "(default: %(default)s)")
    sweep.add_argument("--max-class-size", type=int, default=64,
                       help="truncate candidate classes to this many "
                            "members (default: %(default)s)")
    sweep.add_argument("--seed", type=int, default=1,
                       help="simulation pattern seed (default: %(default)s)")
    sweep.add_argument("--json", default=None, metavar="PATH",
                       help="also write a JSON report to PATH ('-' = stdout)")
    sweep.add_argument("-q", "--quiet", action="store_true",
                       help="suppress the 'c' comment lines")
    _add_obs_flags(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    trace = subparsers.add_parser(
        "trace", help="summarise or export a JSONL execution trace",
        description="Inspect a trace written by --trace: 'report' prints "
                    "per-stage, slowest-span and per-worker breakdowns; "
                    "'export' converts to Chrome trace_event JSON for "
                    "chrome://tracing or https://ui.perfetto.dev.")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report", help="print per-stage / per-worker breakdowns")
    trace_report.add_argument("file", help="trace file (JSONL)")
    trace_report.add_argument("--top", type=int, default=5, metavar="N",
                              help="slowest spans to list (default: 5)")
    trace_report.add_argument("--json", default=None, metavar="PATH",
                              help="write the report as JSON instead "
                                   "('-' = stdout)")
    trace_report.set_defaults(handler=cmd_trace)
    trace_export = trace_sub.add_parser(
        "export", help="convert to Chrome trace_event JSON")
    trace_export.add_argument("file", help="trace file (JSONL)")
    trace_export.add_argument("-o", "--output", default=None,
                              help="output path (default: "
                                   "<trace stem>.chrome.json)")
    trace_export.set_defaults(handler=cmd_trace)

    proof = subparsers.add_parser(
        "proof", help="check a DRAT proof of unsatisfiability",
        description="Work with DRAT proofs written by 'repro solve "
                    "--proof': 'check' replays a proof backward against "
                    "the CNF it refutes (exit code 0 = verified, 1 = not).")
    proof_sub = proof.add_subparsers(dest="proof_command", required=True)
    proof_check = proof_sub.add_parser(
        "check", help="verify a DRAT proof against its CNF",
        description="Backward-check a DRAT proof: the proof must derive "
                    "the empty clause, and every core lemma must be RUP "
                    "(or RAT on its first literal) at its point in the "
                    "proof.  Exit code 0 = verified, 1 = not verified.")
    proof_check.add_argument("cnf",
                             help="the DIMACS CNF the proof refutes "
                                  "('solve --proof' writes it as "
                                  "<proof>.cnf)")
    proof_check.add_argument("proof_file", metavar="proof",
                             help="the DRAT proof file")
    proof_check.add_argument("--all", action="store_true",
                             help="verify every lemma instead of only the "
                                  "backward core (slower, stricter)")
    proof_check.add_argument("--json", default=None, metavar="PATH",
                             help="also write a JSON report to PATH "
                                  "('-' = stdout)")
    proof_check.add_argument("-q", "--quiet", action="store_true",
                             help="suppress the 'c' comment lines")
    _add_obs_flags(proof_check)
    proof_check.set_defaults(handler=cmd_proof)

    serve = subparsers.add_parser(
        "serve", help="run the solve-as-a-service HTTP daemon",
        description="Serve solve/preprocess/sweep jobs over asyncio "
                    "HTTP/JSON (see docs/server.md): bounded admission "
                    "queue with backpressure, per-client quotas, "
                    "fingerprint dedup/memoization, supervised worker "
                    "pool, graceful SIGTERM drain.")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks a free one; default: 8080)")
    serve.add_argument("--jobs", type=int, default=2, metavar="N",
                       help="worker processes (default: 2)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission queue + in-flight bound "
                            "(default: 64)")
    serve.add_argument("--shed-at", type=float, default=0.75,
                       metavar="FRACTION",
                       help="occupancy fraction where new work is shed "
                            "with 429 (default: 0.75)")
    serve.add_argument("--quota-rate", type=float, default=50.0,
                       help="per-client token-bucket refill per second "
                            "(default: 50)")
    serve.add_argument("--quota-burst", type=float, default=100.0,
                       help="per-client token-bucket burst (default: 100)")
    serve.add_argument("--time-limit", type=float, default=60.0,
                       help="default per-job solver time limit in seconds "
                            "(default: 60)")
    serve.add_argument("--hard-timeout", type=positive_float, default=None,
                       help="default per-job wall-clock kill budget "
                            "(default: derived from the time limit)")
    serve.add_argument("--mem-limit", type=float, default=None, metavar="MB",
                       help="per-job memory watchdog budget in MB")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="JSONL result store for cross-request "
                            "memoization: a file, or an existing directory "
                            "(stored in DIR/results.jsonl)")
    serve.add_argument("--grace", type=float, default=10.0,
                       help="drain budget in seconds for in-flight jobs "
                            "on shutdown (default: 10)")
    serve.add_argument("--header-timeout", type=float, default=10.0,
                       help="seconds a client may take to send its "
                            "request head (slow-loris guard, default: 10)")
    serve.add_argument("--ready-file", default=None, metavar="PATH",
                       help="write the bound URL to PATH once listening "
                            "(for scripts/CI)")
    serve.add_argument("-q", "--quiet", action="store_true",
                       help="suppress the 'c' comment lines")
    _add_obs_flags(serve)
    serve.set_defaults(handler=cmd_serve)

    # ``bench`` is dispatched before parsing (argparse.REMAINDER cannot
    # forward leading options); this stub only makes it appear in --help.
    subparsers.add_parser(
        "bench", help="run a benchmark sweep (see 'repro bench --help')",
        description="Forward to the parallel sweep runner "
                    "(python -m repro.runner).",
        add_help=False)

    info = subparsers.add_parser(
        "info", help="inspect a file, or list pipelines and backends",
        description="With FILE: print its format and size statistics.  "
                    "Without: print the library version, the registered "
                    "pipelines and which solver backends are available.")
    info.add_argument("file", nargs="?", default=None,
                      help="optional .cnf/.aag/.aig file to inspect")
    info.set_defaults(handler=cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # The reader left (``repro solve x.cnf | head -1``).  Python flushes
        # stdout again at exit, so point it at devnull first.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _run(argv: list[str]) -> int:
    if argv and argv[0] == "bench":
        return cmd_bench(argv[1:])
    args = build_parser().parse_args(argv)
    configure_logging(verbosity_level(getattr(args, "verbose", 0),
                                      getattr(args, "quiet", False)))
    tracer = Tracer(args.trace) if getattr(args, "trace", None) else None
    previous = set_tracer(tracer) if tracer is not None else None
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            set_tracer(previous)
            tracer.close()


if __name__ == "__main__":
    sys.exit(main())
