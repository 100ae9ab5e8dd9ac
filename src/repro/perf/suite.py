"""The fixed, seeded micro-benchmark suite behind ``python -m repro.perf``.

Every workload is generated from hard-coded seeds so that two runs of the
suite — on the same machine and source tree — measure exactly the same work,
and so that the counters recorded in ``BENCH_perf.json`` (propagations,
conflicts, cut counts) are bit-for-bit reproducible.  The suite covers the
two hot paths the reproduction spends its time in:

* the CDCL solver's propagate/analyze cycle (random 3-SAT near the phase
  transition, the pigeonhole principle, a LEC miter);
* the synthesis kernels (cut enumeration, bit-parallel simulation,
  exhaustive-pattern generation, AIG structural queries) and every layer of
  the paper's flow on seeded test-suite circuits: ``balance``, ``rewrite``,
  ``refactor``, ``resub``, ISOP + algebraic factoring, the branching-cost
  LUT mapper and the LUT-to-CNF encoding.

``--quick`` shrinks every workload so the whole suite finishes in a few
seconds — that mode exists for CI smoke coverage, not for trajectory
numbers.
"""

from __future__ import annotations

import os
import random
import statistics
import tempfile
import time
from collections.abc import Callable
from dataclasses import replace

from repro.aig.aig import AIG
from repro.aig.simulate import exhaustive_pi_rows, random_pi_rows, simulate_rows
from repro.aig.sweep import sweep_aig
from repro.benchgen.lec import corner_case_miter, multiplier_commutativity_miter
from repro.benchgen.random_logic import pigeonhole_cnf, random_aig, random_cnf
from repro.benchgen.suite import generate_test_suite
from repro.cnf.cnf import Cnf
from repro.cnf.lut2cnf import lut_netlist_to_cnf
from repro.cnf.tseitin import tseitin_encode
from repro.logic.isop import clause_template, isop
from repro.logic.sop import factor_cover
from repro.logic.truthtable import tt_mask
from repro.mapping import LutNetlist, branching_cost, map_aig
from repro.obs import Tracer, read_trace, use_tracer
from repro.perf.bench import Benchmark
from repro.sat.configs import SolverConfig, cadical_like, kissat_like
from repro.sat.portfolio import solve_cube_and_conquer, solve_portfolio
from repro.sat.proof import check_drat_file
from repro.sat.sharing import interleaved_sharing_race
from repro.sat.solver import CdclSolver, solve_cnf
from repro.server.loadgen import build_workload
from repro.synthesis import balance, refactor, resub, rewrite
from repro.synthesis.cuts import cone_truth_table, enumerate_cuts, reconvergence_cut
from repro.synthesis.resynth import cut_program


def _solve_batch(cnfs: list[Cnf]) -> dict[str, float]:
    propagations = conflicts = decisions = sat = unsat = 0
    for cnf in cnfs:
        result = CdclSolver(cnf).solve()
        propagations += result.stats.propagations
        conflicts += result.stats.conflicts
        decisions += result.stats.decisions
        sat += result.is_sat
        unsat += result.is_unsat
    return {"propagations": propagations, "conflicts": conflicts,
            "decisions": decisions, "sat": sat, "unsat": unsat}


def _sweep_then_solve(aig: AIG) -> dict[str, float]:
    """The fraig-first LEC flow: sweep, re-encode, solve the collapsed miter."""
    swept = sweep_aig(aig)
    result = CdclSolver(tseitin_encode(swept.aig)).solve()
    return {
        "ands_before": swept.stats.nodes_before,
        "ands_after": swept.stats.nodes_after,
        "merges": swept.stats.merges,
        "sat_calls": swept.stats.sat_calls,
        "solve_conflicts": result.stats.conflicts,
        "unsat": result.is_unsat,
    }


def _small_sweep_circuits(count: int) -> list[AIG]:
    rng = random.Random(19)
    return [random_aig(5, 40 + rng.randrange(20), seed=rng.randrange(1 << 30))
            for _ in range(count)]


def _sweep_batch(aigs: list[AIG]) -> dict[str, float]:
    """Sweep each circuit with the defaults, as a server sweep job does."""
    totals = {"circuits": len(aigs), "ands_before": 0, "ands_after": 0,
              "merges": 0, "sat_calls": 0}
    for aig in aigs:
        stats = sweep_aig(aig).stats
        totals["ands_before"] += stats.nodes_before
        totals["ands_after"] += stats.nodes_after
        totals["merges"] += stats.merges
        totals["sat_calls"] += stats.sat_calls
    return totals


def _incremental_query_batch(payload: tuple[Cnf, list[list[int]]]) -> dict[str, float]:
    """Solve a shared-prefix assumption batch twice: incrementally and naively.

    The timed region covers both strategies; the counters record the split,
    so the recorded ``speedup`` is the paper-style claim the JSON trajectory
    tracks — one persistent solver (learned clauses, VSIDS, phases carried
    across queries) versus one fresh solver instantiation per query.
    """
    cnf, queries = payload
    start = time.perf_counter()
    solver = CdclSolver(cnf)
    incremental_statuses = [solver.solve(assumptions=query).status
                            for query in queries]
    incremental_s = time.perf_counter() - start

    start = time.perf_counter()
    oneshot_statuses = [CdclSolver(cnf).solve(assumptions=query).status
                        for query in queries]
    oneshot_s = time.perf_counter() - start

    agree = sum(first == second for first, second
                in zip(incremental_statuses, oneshot_statuses))
    return {
        "queries": len(queries),
        "agree": agree,
        "sat": sum(status == "SAT" for status in incremental_statuses),
        "unsat": sum(status == "UNSAT" for status in incremental_statuses),
        "incremental_ms": incremental_s * 1000.0,
        "oneshot_ms": oneshot_s * 1000.0,
        "speedup": oneshot_s / incremental_s if incremental_s > 0 else 0.0,
    }


def _incremental_setup(num_vars: int, num_queries: int,
                       seed: int) -> tuple[Cnf, list[list[int]]]:
    """A near-phase-transition base formula plus shared-prefix query batch."""
    cnf = random_cnf(num_vars, int(num_vars * 4.1), seed,
                     min_width=3, max_width=3)
    rng = random.Random(seed + 1)
    prefix = []
    seen: set[int] = set()
    while len(prefix) < 4:
        var = rng.randint(1, num_vars)
        if var not in seen:
            seen.add(var)
            prefix.append(var if rng.random() < 0.5 else -var)
    queries = []
    for _ in range(num_queries):
        suffix = []
        chosen = set(seen)
        while len(suffix) < 8:
            var = rng.randint(1, num_vars)
            if var not in chosen:
                chosen.add(var)
                suffix.append(var if rng.random() < 0.5 else -var)
        queries.append(prefix + suffix)
    return cnf, queries


def _server_throughput_batch(workload: list[dict]) -> dict[str, float]:
    """Sustained request throughput of the solve server, measured outside.

    Each repeat boots a fresh in-process server (2 pool workers, a JSONL
    store in a temp dir, quotas open) and drives the seeded mixed workload
    through real sockets with the loadgen client.  The store starts cold
    every repeat, so ``dedup_hits`` counts in-run duplicate traffic — the
    memo path under load — and the timings measure service + solve, not a
    warm cache.
    """
    import asyncio

    from repro.runner.store import ResultStore
    from repro.server.http import HttpServer
    from repro.server.loadgen import run_load
    from repro.server.service import SolveService

    concurrency = max(8, min(16, len(workload) // 6))

    async def _drive():
        with tempfile.TemporaryDirectory(prefix="repro-perf-server-") as tmp:
            service = SolveService(
                jobs=2, max_queue=max(64, len(workload)),
                quota_rate=100_000.0, quota_burst=100_000.0,
                store=ResultStore(os.path.join(tmp, "store.jsonl")))
            await service.start()
            http = HttpServer(service)
            await http.start()
            try:
                return await run_load(http.host, http.port, workload,
                                      concurrency=concurrency,
                                      sync_wait=30.0)
            finally:
                await http.stop()
                await service.shutdown(grace=30.0)

    report = asyncio.run(_drive())
    return {
        "requests": report.requests,
        "ok": report.ok,
        "errors": report.errors,
        "rps": round(report.rps, 1),
        "p50_ms": round(report.p50_ms, 2),
        "p99_ms": round(report.p99_ms, 2),
        "dedup_hits": report.dedup_hits,
    }


def _obs_overhead_batch(cnfs: list[Cnf]) -> dict[str, float]:
    """Solver throughput with tracing off vs. fully instrumented.

    The timed region covers both passes; the counters record the split.  The
    ``off`` pass is the default production path — no active tracer, no
    progress hook — and is the number the <3% off-path regression gate in
    the obs PR is about.  The ``on`` pass wraps every solve in a span on a
    file-backed :class:`~repro.obs.trace.Tracer` and streams progress events
    every 64 conflicts, so ``overhead`` is the worst-case ratio a fully
    instrumented run pays over the untraced one.
    """
    start = time.perf_counter()
    off_conflicts = 0
    for cnf in cnfs:
        off_conflicts += solve_cnf(cnf).stats.conflicts
    off_s = time.perf_counter() - start

    handle, path = tempfile.mkstemp(suffix=".jsonl", prefix="repro-obs-")
    os.close(handle)
    tracer = Tracer(path)
    on_conflicts = events = 0
    try:
        with use_tracer(tracer):
            start = time.perf_counter()
            for cnf in cnfs:
                with tracer.span("solve") as span:
                    result = solve_cnf(
                        cnf,
                        progress=lambda s: tracer.event("progress",
                                                        conflicts=s.conflicts),
                        progress_interval=64)
                    span.set(status=result.status)
                on_conflicts += result.stats.conflicts
            on_s = time.perf_counter() - start
        tracer.close()
        events = sum(record["type"] == "event" for record in read_trace(path))
    finally:
        tracer.close()
        os.unlink(path)

    return {
        "instances": len(cnfs),
        "conflicts": off_conflicts,
        "conflicts_agree": off_conflicts == on_conflicts,
        "progress_events": events,
        "off_ms": off_s * 1000.0,
        "on_ms": on_s * 1000.0,
        "overhead": round(on_s / off_s, 3) if off_s > 0 else 0.0,
    }


def _portfolio_pool() -> list[SolverConfig]:
    """The fixed 4-config racing pool of the ``portfolio_speedup`` benchmark.

    The two presets plus two mildly randomised preset variants (5% random
    decisions, rapid restarts, distinct seeds).  On needle-in-a-haystack
    instances CDCL runtimes are heavy-tailed, so two decorrelated re-seeded
    runs routinely undercut both fixed presets by several times — the effect
    portfolio racing monetises.
    """
    return [
        kissat_like(),
        cadical_like(),
        replace(kissat_like(), name="jitter_s4", random_decision_freq=0.05,
                restart_interval=32, seed=4),
        replace(kissat_like(), name="jitter_s7", random_decision_freq=0.05,
                restart_interval=32, seed=7),
    ]


def _portfolio_race_batch(cnfs: list[Cnf]) -> dict[str, float]:
    """Portfolio racing vs. the best preset on hard corner-case miters.

    Every pool configuration solves every instance sequentially (these runs
    are deterministic, so the recorded decision counters are bit-stable);
    the headline ``speedup`` is the median over instances of *best preset's
    time / per-instance pool minimum* — the racing wall-clock a 4-worker
    portfolio achieves when each worker has its own core.  The real
    process-racing portfolio is then run on every instance for verdict
    cross-checking; its measured wall goes to ``race_wall_ms`` (on a
    single-core host the racing processes time-share, so that number — and
    only that number — degrades with core count).
    """
    pool = _portfolio_pool()
    solo_times: dict[str, list[float]] = {config.name: [] for config in pool}
    solo_decisions = 0
    for cnf in cnfs:
        for config in pool:
            start = time.perf_counter()
            result = solve_cnf(cnf, config=config)
            solo_times[config.name].append(time.perf_counter() - start)
            solo_decisions += result.stats.decisions
            assert result.is_sat, "corner-case miters are SAT by construction"

    preset_names = [pool[0].name, pool[1].name]
    best_preset = min(preset_names,
                      key=lambda name: sum(solo_times[name]))
    minima = [min(times[index] for times in solo_times.values())
              for index in range(len(cnfs))]
    speedups = [solo_times[best_preset][index] / minima[index]
                for index in range(len(cnfs))]

    race_wall = 0.0
    agree = 0
    for cnf in cnfs:
        report = solve_portfolio(cnf, configs=pool)
        race_wall += report.wall_time
        agree += report.status == "SAT"

    return {
        "instances": len(cnfs),
        "workers": len(pool),
        "sat": agree,
        "solo_decisions": solo_decisions,
        "speedup": round(statistics.median(speedups), 3),
        "best_single_ms": sum(solo_times[best_preset]) * 1000.0,
        "vbs_ms": sum(minima) * 1000.0,
        "race_wall_ms": race_wall * 1000.0,
    }


def _sharing_race_batch(payload: tuple[list[Cnf], Cnf]) -> dict[str, float]:
    """Clause-sharing interleaved race vs. the best preset.

    The race (:func:`repro.sat.sharing.interleaved_sharing_race`) runs the
    same 4-config pool round-robin in 256-conflict slices on one core,
    delivering exported clauses between turns; ``virtual_wall`` is the
    winner's own accumulated solve time — the wall an ideally parallel run
    would show — so the per-instance ``speedup`` (best preset's time over
    virtual wall) is directly comparable to ``portfolio_speedup``'s racing
    median while staying deterministic and honest on a single-core host.
    The UNSAT commutativity miter is raced with DRAT logging on top: the
    merged multi-worker proof must pass the backward checker
    (``proof_valid``), and an ``unsat_speedup`` above the worker count is
    the super-linear effect clause sharing buys on UNSAT instances, where
    every imported conflict clause prunes all other workers' searches.
    """
    corner_cnfs, unsat_cnf = payload
    pool = _portfolio_pool()
    presets = pool[:2]
    solo_times: dict[str, list[float]] = {config.name: [] for config in presets}
    for cnf in corner_cnfs:
        for config in presets:
            start = time.perf_counter()
            result = solve_cnf(cnf, config=config)
            solo_times[config.name].append(time.perf_counter() - start)
            assert result.is_sat, "corner-case miters are SAT by construction"
    best_preset = min(solo_times, key=lambda name: sum(solo_times[name]))

    totals = {"exported": 0, "imported": 0, "filtered": 0}
    speedups = []
    share_wall = 0.0
    sat = 0
    for index, cnf in enumerate(corner_cnfs):
        race = interleaved_sharing_race(cnf, pool, slice_conflicts=256)
        sat += race.status == "SAT"
        share_wall += race.virtual_wall
        speedups.append(solo_times[best_preset][index] / race.virtual_wall)
        for key in totals:
            totals[key] += race.sharing[key]

    mono_times = []
    for config in presets:
        start = time.perf_counter()
        result = solve_cnf(unsat_cnf, config=config)
        mono_times.append(time.perf_counter() - start)
        assert result.is_unsat, "the commutativity miter is UNSAT"
    best_mono = min(mono_times)

    handle, proof_path = tempfile.mkstemp(suffix=".drat",
                                          prefix="repro-perf-")
    os.close(handle)
    try:
        unsat_race = interleaved_sharing_race(
            unsat_cnf, pool, slice_conflicts=256, proof=proof_path)
        proof_valid = unsat_race.status == "UNSAT" \
            and check_drat_file(unsat_cnf, proof_path).valid
    finally:
        if os.path.exists(proof_path):
            os.unlink(proof_path)
    for key in totals:
        totals[key] += unsat_race.sharing[key]

    return {
        "instances": len(corner_cnfs) + 1,
        "workers": len(pool),
        "sat": sat,
        "proof_valid": float(proof_valid),
        "speedup": round(statistics.median(speedups), 3),
        "unsat_speedup": round(best_mono / unsat_race.virtual_wall, 3),
        "best_single_ms": sum(solo_times[best_preset]) * 1000.0,
        "share_wall_ms": share_wall * 1000.0,
        "exported": totals["exported"],
        "imported": totals["imported"],
        "filtered": totals["filtered"],
    }


def _cube_conquer_batch(payload: tuple[Cnf, list[int]]) -> dict[str, float]:
    """Cube-and-conquer vs. the best preset on the hard UNSAT miter.

    The conquest splits on the circuit's primary-input variables (the
    pluggable-cuber path: fixing input bits constant-propagates whole
    slices of the multiplier away) and conquers all cubes on one
    incremental session, so the measured ``speedup`` is pure work
    reduction — split plus learned-clause reuse — over the best preset's
    monolithic solve.  A 4-worker parallel conquest of the same split runs
    afterwards for verdict cross-checking (``cube4_wall_ms``; on multicore
    hosts the remaining work divides across the workers).
    """
    cnf, split_variables = payload
    mono_times = []
    for config in (kissat_like(), cadical_like()):
        start = time.perf_counter()
        result = solve_cnf(cnf, config=config)
        mono_times.append(time.perf_counter() - start)
        assert result.is_unsat
    best_mono = min(mono_times)

    start = time.perf_counter()
    sequential = solve_cube_and_conquer(
        cnf, cube_depth=len(split_variables), num_workers=1,
        config=cadical_like(), variables=split_variables)
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = solve_cube_and_conquer(
        cnf, cube_depth=len(split_variables), num_workers=4,
        config=cadical_like(), variables=split_variables)
    parallel_s = time.perf_counter() - start

    return {
        "cubes": sequential.num_cubes,
        "unsat": (sequential.status == "UNSAT")
        + (parallel.status == "UNSAT"),
        "best_single_ms": best_mono * 1000.0,
        "cube_ms": sequential_s * 1000.0,
        "cube4_wall_ms": parallel_s * 1000.0,
        "speedup": round(best_mono / sequential_s, 3),
    }


# --------------------------------------------------------------------- #
# Suite definition
# --------------------------------------------------------------------- #


def _suite_circuits(picks: tuple[tuple[int, int, int], ...]) -> list[AIG]:
    """``generate_test_suite(size, seed)[index]`` for each pick."""
    return [generate_test_suite(size, seed=seed)[index].aig
            for size, seed, index in picks]


def _ands_batch(operation: Callable[[AIG], AIG],
                aigs: list[AIG]) -> dict[str, float]:
    """Apply one synthesis operation to every circuit (inputs stay intact)."""
    return {"ands_in": sum(aig.num_ands for aig in aigs),
            "ands_out": sum(operation(aig).num_ands for aig in aigs)}


def _synth_batch(operation: Callable[[AIG], AIG],
                 aigs: list[AIG]) -> dict[str, float]:
    """:func:`_ands_batch` for an operation that factors cut functions.

    The cut-function library is emptied first so that every repeat factors
    the same functions; ``programs`` counts the ones it factored.
    """
    cut_program.cache_clear()
    counters = _ands_batch(operation, aigs)
    counters["programs"] = cut_program.cache_info().misses
    return counters


def _map_batch(aigs: list[AIG]) -> dict[str, float]:
    """Map every circuit into 4-LUTs under the paper's branching cost."""
    results = [map_aig(aig, k=4, cost_fn=branching_cost) for aig in aigs]
    return {"luts": sum(result.num_luts for result in results),
            "cost": sum(result.total_cost for result in results)}


def _encode_batch(netlists: list[LutNetlist]) -> dict[str, float]:
    """Encode every LUT netlist into CNF, as Ours does after mapping, from
    an empty clause-template cache; ``templates`` counts the covers built."""
    clause_template.cache_clear()
    cnfs = [lut_netlist_to_cnf(netlist) for netlist in netlists]
    return {"vars": sum(cnf.num_vars for cnf in cnfs),
            "clauses": sum(cnf.num_clauses for cnf in cnfs),
            "templates": clause_template.cache_info().misses}


def _cone_tables(aigs: list[AIG], max_leaves: int = 10) -> list[tuple[int, int]]:
    """The distinct non-constant cone functions ``refactor`` would collapse."""
    tables = set()
    for aig in aigs:
        for var in aig.and_vars():
            leaves = reconvergence_cut(aig, var, max_leaves=max_leaves)
            if len(leaves) < 2 or var in leaves:
                continue
            table = cone_truth_table(aig, var, leaves) & tt_mask(len(leaves))
            if table not in (0, tt_mask(len(leaves))):
                tables.add((len(leaves), table))
    return sorted(tables)


def _isop_factor_batch(tables: list[tuple[int, int]]) -> dict[str, float]:
    """ISOP-cover and factor both polarities of every table, as refactor does."""
    cubes = literals = 0
    for nvars, table in tables:
        for function in (table, ~table & tt_mask(nvars)):
            cover = isop(function, function, nvars)
            cubes += len(cover)
            literals += factor_cover(cover, nvars, [])[1]
    return {"tables": len(tables), "cubes": cubes, "literals": literals}


def default_suite(quick: bool = False) -> list[Benchmark]:
    """Build the benchmark list; ``quick`` shrinks every workload for CI."""
    # (num_vars, seeds) for the random 3-SAT batch, at clause ratio ~4.26.
    sat_vars = 80 if quick else 120
    sat_seeds = range(2) if quick else range(6)
    php_holes = 5 if quick else 7
    miter_width = 3 if quick else 4
    # sweep_lec needs a miter whose 2**inputs exceed the sweep's 2 048
    # simulation patterns, or simulation decides it without SAT: width 6
    # (12 inputs) is the narrowest.  sweep_small takes the other side.
    sweep_width = 6
    sweep_small_count = 16 if quick else 64
    # One shared random AIG size: cuts_enumerate, sim_random and
    # aig_stat_queries all run on random_aig(12, aig_nodes, seed=7) so their
    # counters describe the same circuit.
    aig_nodes = 300 if quick else 1200
    sim_words = 64 if quick else 512
    exhaustive_pis = 10 if quick else 14
    exhaustive_words = (1 << exhaustive_pis) // 64  # 64 patterns a word
    query_rounds = 20 if quick else 200
    incremental_vars = 60 if quick else 100
    incremental_queries = 6 if quick else 24
    corner_width = 4 if quick else 5
    corner_seeds = (0, 1) if quick else (3, 10, 16)
    cube_width = 4 if quick else 5
    cube_split = 5 if quick else 7
    obs_vars = 80 if quick else 100
    obs_seeds = range(2) if quick else range(4)
    server_requests = 24 if quick else 96
    # generate_test_suite (size, seed, index) picks for the synthesis layer:
    # quick takes an ALU and a ripple-adder stuck-at instance; full takes
    # the multiplier miter, mutated adder and adder equivalence of seed 1000.
    synth_picks = (((12, 0, 11), (11, 2, 10)) if quick
                   else ((5, 1000, 0), (5, 1000, 2), (5, 1000, 4)))

    benchmarks = [
        Benchmark(
            name="solver_random3sat",
            category="solver",
            description=(f"random 3-SAT at the phase transition, "
                         f"{sat_vars} vars x {len(sat_seeds)} seeds "
                         f"(propagation-heavy)"),
            setup=lambda: [random_cnf(sat_vars, int(sat_vars * 4.26), seed,
                                      min_width=3, max_width=3)
                           for seed in sat_seeds],
            run=_solve_batch,
        ),
        Benchmark(
            name="solver_pigeonhole",
            category="solver",
            description=f"pigeonhole PHP({php_holes + 1},{php_holes}), "
                        f"conflict-analysis heavy UNSAT",
            setup=lambda: [pigeonhole_cnf(php_holes)],
            run=_solve_batch,
        ),
        Benchmark(
            name="solver_lec_miter",
            category="solver",
            description=f"Tseitin-encoded multiplier commutativity miter, "
                        f"width {miter_width} (circuit UNSAT)",
            setup=lambda: [tseitin_encode(
                multiplier_commutativity_miter(miter_width))],
            run=_solve_batch,
        ),
        Benchmark(
            name="sweep_lec",
            category="solver",
            description=f"SAT-sweep (fraig) + re-encode + solve of the "
                        f"width-{sweep_width} multiplier miter "
                        f"({2 * sweep_width} inputs: every candidate pair "
                        f"is proved by incremental SAT queries)",
            setup=lambda: multiplier_commutativity_miter(sweep_width),
            run=_sweep_then_solve,
        ),
        Benchmark(
            name="sweep_small",
            category="solver",
            description=f"sweep of {sweep_small_count} 5-input random AIGs "
                        f"(40-59 nodes, the solve server's sweep jobs): "
                        f"exhaustive simulation decides every class, no SAT",
            setup=lambda: _small_sweep_circuits(sweep_small_count),
            run=_sweep_batch,
        ),
        Benchmark(
            name="solver_incremental",
            category="solver",
            description=f"{incremental_queries} shared-prefix assumption "
                        f"queries on a {incremental_vars}-var 3-SAT base: "
                        f"one persistent incremental solver vs. a fresh "
                        f"solver per query (both timed; see counters)",
            setup=lambda: _incremental_setup(incremental_vars,
                                             incremental_queries, seed=42),
            run=_incremental_query_batch,
        ),
        Benchmark(
            name="portfolio_speedup",
            category="solver",
            description=(f"portfolio racing (4 diversified configs) vs. the "
                         f"best preset on {len(corner_seeds)} hard "
                         f"corner-case LEC miters (width {corner_width}); "
                         f"'speedup' is the median per-instance best-preset/"
                         f"pool-minimum ratio — the racing wall on >=4 free "
                         f"cores — cross-checked by a real process race"),
            setup=lambda: [tseitin_encode(corner_case_miter(corner_width,
                                                            seed))
                           for seed in corner_seeds],
            run=_portfolio_race_batch,
        ),
        Benchmark(
            name="portfolio_sharing",
            category="solver",
            description=(f"interleaved clause-sharing race (4 configs, "
                         f"256-conflict slices) vs. the best preset on the "
                         f"same {len(corner_seeds)} corner-case miters plus "
                         f"the width-{miter_width} UNSAT commutativity miter "
                         f"with a checked merged DRAT proof; 'speedup' is "
                         f"the median best-preset/virtual-wall ratio"),
            setup=lambda: ([tseitin_encode(corner_case_miter(corner_width,
                                                             seed))
                            for seed in corner_seeds],
                           tseitin_encode(
                               multiplier_commutativity_miter(miter_width))),
            run=_sharing_race_batch,
        ),
        Benchmark(
            name="cube_conquer",
            category="solver",
            description=(f"cube-and-conquer (2^{cube_split} primary-input "
                         f"cubes, one incremental session) vs. the best "
                         f"preset's monolithic solve on the width-"
                         f"{cube_width} multiplier commutativity miter "
                         f"(UNSAT); 'speedup' is pure work reduction"),
            setup=lambda: (tseitin_encode(
                multiplier_commutativity_miter(cube_width)),
                list(range(1, cube_split + 1))),
            run=_cube_conquer_batch,
        ),
        Benchmark(
            name="obs_overhead",
            category="solver",
            description=(f"tracing overhead: {obs_vars}-var 3-SAT x "
                         f"{len(obs_seeds)} seeds solved untraced, then with "
                         f"spans + progress events every 64 conflicts to a "
                         f"file-backed tracer; 'overhead' = on/off time "
                         f"ratio"),
            setup=lambda: [random_cnf(obs_vars, int(obs_vars * 4.26), seed,
                                      min_width=3, max_width=3)
                           for seed in obs_seeds],
            run=_obs_overhead_batch,
        ),
        Benchmark(
            name="server_throughput",
            category="solver",
            description=(f"solve-as-a-service sustained load: "
                         f"{server_requests} mixed solve/preprocess/sweep "
                         f"requests (35% duplicates) through the asyncio "
                         f"HTTP server onto a 2-worker pool with a cold "
                         f"JSONL store; counters record req/s, p50/p99 "
                         f"latency and dedup hits"),
            setup=lambda: build_workload(server_requests, seed=5),
            run=_server_throughput_batch,
        ),
        Benchmark(
            name="synth_balance",
            category="synthesis",
            description=f"balance (minimum-depth AND trees) on "
                        f"{len(synth_picks)} seeded test-suite circuits",
            setup=lambda: _suite_circuits(synth_picks),
            run=lambda aigs: _ands_batch(balance, aigs),
        ),
        Benchmark(
            name="synth_rewrite",
            category="synthesis",
            description=f"rewrite (4-cuts, ISOP + factoring) on "
                        f"{len(synth_picks)} seeded test-suite circuits",
            setup=lambda: _suite_circuits(synth_picks),
            run=lambda aigs: _synth_batch(rewrite, aigs),
        ),
        Benchmark(
            name="synth_refactor",
            category="synthesis",
            description=f"refactor (10-leaf reconvergence cones, ISOP + "
                        f"factoring) on {len(synth_picks)} seeded test-suite "
                        f"circuits",
            setup=lambda: _suite_circuits(synth_picks),
            run=lambda aigs: _synth_batch(refactor, aigs),
        ),
        Benchmark(
            name="synth_resub",
            category="synthesis",
            description=f"resub (8-leaf reconvergence windows, 0- and "
                        f"1-resubstitution) on {len(synth_picks)} seeded "
                        f"test-suite circuits",
            setup=lambda: _suite_circuits(synth_picks),
            run=lambda aigs: _ands_batch(resub, aigs),
        ),
        Benchmark(
            name="map_lut",
            category="synthesis",
            description=f"4-LUT mapping under branching cost (priority cuts, "
                        f"delay then cost-recovery passes) of the same "
                        f"{len(synth_picks)} circuits",
            setup=lambda: _suite_circuits(synth_picks),
            run=_map_batch,
        ),
        Benchmark(
            name="encode_lut",
            category="synthesis",
            description=f"LUT-to-CNF encoding (one cached clause template "
                        f"per LUT function) of the map_lut netlists of the same "
                        f"{len(synth_picks)} circuits",
            setup=lambda: [map_aig(aig, k=4, cost_fn=branching_cost).netlist
                           for aig in _suite_circuits(synth_picks)],
            run=_encode_batch,
        ),
        Benchmark(
            name="isop_factor",
            category="synthesis",
            description=f"ISOP + quick factoring of both polarities of the "
                        f"distinct refactor cone functions of the same "
                        f"{len(synth_picks)} circuits",
            setup=lambda: _cone_tables(_suite_circuits(synth_picks)),
            run=_isop_factor_batch,
        ),
        Benchmark(
            name="cuts_enumerate",
            category="synthesis",
            description=f"4-feasible priority-cut enumeration on a random "
                        f"AIG (~{aig_nodes} composite nodes)",
            setup=lambda: random_aig(12, aig_nodes, seed=7),
            run=lambda aig: {
                "cuts": sum(len(cut_list) for cut_list in
                            enumerate_cuts(aig, k=4, max_cuts=8).values()),
                "ands": aig.num_ands,
            },
        ),
        Benchmark(
            name="sim_random",
            category="synthesis",
            description=f"bit-parallel random simulation, {sim_words} words "
                        f"({sim_words * 64} patterns) per node",
            setup=lambda: random_aig(12, aig_nodes, seed=7),
            run=lambda aig: {
                "words": float(sim_words * len(simulate_rows(
                    aig, random_pi_rows(aig.num_pis, 64 * sim_words, 3),
                    (1 << (64 * sim_words)) - 1))),
            },
        ),
        Benchmark(
            name="sim_exhaustive",
            category="synthesis",
            description=f"exhaustive pattern generation + simulation over "
                        f"{exhaustive_pis} PIs",
            setup=lambda: random_aig(exhaustive_pis, 300, seed=11),
            run=lambda aig: {
                "patterns": float(1 << exhaustive_pis),
                "values": float(exhaustive_words * len(simulate_rows(
                    aig, exhaustive_pi_rows(exhaustive_pis),
                    (1 << (1 << exhaustive_pis)) - 1))),
            },
        ),
        Benchmark(
            name="aig_stat_queries",
            category="synthesis",
            description=f"fanout_counts + levels, {query_rounds} rounds on an "
                        f"immutable AIG (exercises structural-query caching)",
            setup=lambda: random_aig(12, aig_nodes, seed=7),
            run=lambda aig: {
                "rounds": float(sum(
                    len(aig.fanout_counts()) + len(aig.levels()) > 0
                    for _ in range(query_rounds))),
            },
        ),
    ]
    return benchmarks
