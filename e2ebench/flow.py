"""Workloads ``fig4_suite`` and ``lec_hard``: the paper's flow end to end.

Every timed job parses a fresh AIG from the instance's AIGER text and
runs it through ``run_pipeline`` (internal CDCL, ``kissat_like``).  The
traced run replays each (instance, pipeline) pair as the public calls that
``Preprocessor.preprocess`` and ``baseline_pipeline`` make, one span each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from common import (OUT_DIR, Tally, WorkLedger, check_default_digest,
                    cpu_seconds, digest, median, peak_rss_mb, percentile,
                    timed_setup)
from spans import SpanRecorder

from repro.aig.aiger import read_aiger, write_aiger
from repro.aig.simulate import (evaluate, exhaustive_pi_words, po_values,
                                simulate)
from repro.benchgen import generate_test_suite, multiplier_commutativity_miter
from repro.cnf import lut_netlist_to_cnf, tseitin_encode
from repro.core.pipeline import run_pipeline
from repro.mapping import area_cost, branching_cost, map_aig
from repro.sat import kissat_like
from repro.sat.backends import resolve_backend
from repro.synthesis.recipe import apply_operation

PIPELINE_KEYS = {"Baseline": "baseline", "Comp.": "comp", "Ours": "ours"}
#: The recipes the traced replay applies.  They are written out here, not
#: imported, so a change to a pipeline's recipe shows up as a work
#: mismatch between the replay and ``run_pipeline`` instead of moving
#: silently into both.
OURS_RECIPE = ("balance", "rewrite", "refactor", "rewrite", "resub", "balance")
COMP_RECIPE = ("balance", "rewrite", "refactor", "balance", "rewrite",
               "resub", "balance")
SYNTHESIS_OPS = ("balance", "rewrite", "refactor", "resub")
LUT_SIZE = 4

DEFAULT_SEEDS = {"fig4_suite": 1000, "lec_hard": 0}
#: Instance classes of ``fig4_suite``: (family, metadata key, value).  The
#: size class is pinned so that every seed measures work of the same size;
#: the seed picks the mutation and the fault.  The multiplier families are
#: left to ``lec_hard``: synthesis of one width-5 multiplier miter takes
#: 15 s for Comp. and Ours, which leaves room for one pass per run, and a
#: single pass per run is too noisy a sample on a shared host.  For the
#: same reason the stuck-at class uses the 4-bit ALU base.
FIG4_CLASSES = (
    ("adder_equivalence", "width", 16),
    ("adder_mutated", "width", 16),
    ("stuck_at", "base", "alu4"),
)
#: Families whose UNSAT verdict follows from how the miter is built.
UNSAT_BY_CONSTRUCTION = ("adder_equivalence",)
SIM_PATTERNS = 1 << 14


@dataclass(frozen=True)
class Instance:
    """One input: AIGER text plus a verdict that does not come from a
    pipeline of the program under test."""

    name: str
    family: str
    aiger: str
    expected: str
    reference: str
    pipelines: tuple[str, ...]

    def as_json(self) -> dict:
        return {"name": self.name, "family": self.family,
                "aiger": self.aiger, "expected": self.expected,
                "reference": self.reference,
                "pipelines": list(self.pipelines)}


def simulation_reference(aig, seed: int) -> tuple[str, str] | None:
    """A verdict by simulating the AIG: a satisfying pattern means SAT.

    Up to 16 inputs the simulation is exhaustive, so finding no pattern
    proves UNSAT; beyond that only a found pattern counts.  The pattern is
    confirmed by evaluating the AIG on it once more.
    """
    exhaustive = aig.num_pis <= 16
    if exhaustive:
        words = exhaustive_pi_words(aig.num_pis)
    else:
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2 ** 64, size=(aig.num_pis, SIM_PATTERNS // 64),
                             dtype=np.uint64)
    outputs = np.bitwise_or.reduce(po_values(aig, simulate(aig, words)), axis=0)
    hits = np.flatnonzero(outputs)
    if hits.size == 0:
        return ("UNSAT", "exhaustive simulation") if exhaustive else None
    word = int(hits[0])
    bit = (int(outputs[word]) & -int(outputs[word])).bit_length() - 1
    pattern = [bool((int(words[row, word]) >> bit) & 1)
               for row in range(aig.num_pis)]
    if not any(evaluate(aig, pattern)):
        return None
    return "SAT", "pattern " + "".join("1" if value else "0"
                                        for value in pattern)


def fig4_inputs(seed: int) -> list[Instance]:
    """One distinct instance per class of ``generate_test_suite(seed)``."""
    chosen: dict[tuple, Instance] = {}
    texts: set[str] = set()
    size = 48
    while len(chosen) < len(FIG4_CLASSES):
        if size > 768:
            raise SystemExit(f"e2ebench: seed {seed} gives no instance of "
                             f"some fig4_suite class")
        for index, instance in enumerate(generate_test_suite(size, seed=seed)):
            family = instance.metadata.get("family")
            for cls in FIG4_CLASSES:
                if cls in chosen or cls[0] != family \
                        or instance.metadata.get(cls[1]) != cls[2]:
                    continue
                text = write_aiger(instance.aig)
                if text in texts:
                    continue
                if family in UNSAT_BY_CONSTRUCTION:
                    reference = ("UNSAT", "equivalent by construction")
                else:
                    reference = simulation_reference(instance.aig, seed + index)
                if reference is None:
                    continue
                texts.add(text)
                chosen[cls] = Instance(
                    name=f"{family}_{index:03d}", family=family, aiger=text,
                    expected=reference[0], reference=reference[1],
                    pipelines=("Baseline", "Comp.", "Ours"))
        size *= 2
    return [chosen[cls] for cls in FIG4_CLASSES]


#: Width of the ``lec_hard`` miter.  At width 6 one pass (Baseline's 4 s
#: solve plus Ours' 15 s of synthesis) left room for a single pass per run,
#: and single-pass runs spread beyond the bound on a shared host; at width
#: 5 a pass takes 8-9 s and Baseline is still almost all solve.
LEC_WIDTH = 5


def lec_inputs(seed: int) -> list[Instance]:
    """The multiplier-commutativity miter; the seed changes nothing."""
    del seed
    text = write_aiger(multiplier_commutativity_miter(LEC_WIDTH))
    return [Instance(name=f"mult_commutativity_w{LEC_WIDTH}",
                     family="mult_commutativity", aiger=text,
                     expected="UNSAT", reference="equivalent by construction",
                     pipelines=("Baseline", "Ours"))]


INPUTS = {"fig4_suite": fig4_inputs, "lec_hard": lec_inputs}


def input_digest(workload: str, seed: int) -> str:
    return digest([item.as_json() for item in INPUTS[workload](seed)])


@dataclass
class Job:
    """One (instance, pipeline) pair."""

    instance: Instance
    pipeline: str

    @property
    def pair(self) -> str:
        return f"{self.instance.name}/{PIPELINE_KEYS[self.pipeline]}"


def _jobs(instances: list[Instance]) -> list[Job]:
    return [Job(instance, pipeline) for instance in instances
            for pipeline in instance.pipelines]


def run_pass(jobs: list[Job], tally: Tally, ledger: WorkLedger) -> list[dict]:
    """One untraced pass over every pair; returns a row per pair."""
    rows = []
    for job in jobs:
        aig = read_aiger(job.instance.aiger, name=job.instance.name)
        cpu = cpu_seconds()
        start = time.perf_counter()
        run = run_pipeline(aig, job.pipeline, instance_name=job.instance.name,
                           config=kissat_like())
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        tally.record(run.status == job.instance.expected,
                     f"{job.pair}: {run.status}, expected "
                     f"{job.instance.expected} ({job.instance.reference})")
        ledger.note(job.pair, {"status": run.status, "vars": run.num_vars,
                               "clauses": run.num_clauses,
                               "decisions": run.stats.decisions,
                               "conflicts": run.stats.conflicts}, tally)
        rows.append({"job": job, "wall": wall, "cpu": cpu, "run": run})
    return rows


def replay(job: Job, recorder: SpanRecorder) -> dict:
    """The public calls of one pipeline, one span per call."""
    aig = read_aiger(job.instance.aiger, name=job.instance.name)
    counts: dict = {}
    with recorder.span("pipeline", trace_id=job.pair,
                       pipeline=job.pipeline):
        if job.pipeline == "Baseline":
            with recorder.span("cnf.encode"):
                cnf = tseitin_encode(aig)
        else:
            recipe = OURS_RECIPE if job.pipeline == "Ours" else COMP_RECIPE
            for name in recipe:
                with recorder.span(f"synthesis.{name}"):
                    aig = apply_operation(aig, name)
            counts["ands"] = aig.num_ands
            cost_fn = branching_cost if job.pipeline == "Ours" else area_cost
            with recorder.span("mapping") as span:
                mapping = map_aig(aig, k=LUT_SIZE, cost_fn=cost_fn)
                span.attrs.update(luts=mapping.netlist.num_luts,
                                  cost=mapping.total_cost)
            counts["luts"] = mapping.netlist.num_luts
            counts["cost"] = mapping.total_cost
            with recorder.span("cnf.encode"):
                cnf = lut_netlist_to_cnf(mapping.netlist)
        with recorder.span("sat.solve") as span:
            result = resolve_backend(None).solve(cnf, config=kissat_like())
            span.attrs.update(status=result.status)
    counts.update(status=result.status, vars=cnf.num_vars,
                  clauses=cnf.num_clauses, decisions=result.stats.decisions,
                  conflicts=result.stats.conflicts,
                  propagations=result.stats.propagations)
    return counts


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Run the workload; returns (tally, metrics, notes)."""
    setup_s, digests = timed_setup("flow", "input_digest", workload, seed)
    instances = INPUTS[workload](seed)
    default_seed = DEFAULT_SEEDS[workload]
    check_default_digest(workload, default_seed,
                         input_digest(workload, default_seed))
    tally = Tally()
    if digests != {input_digest(workload, seed)}:
        tally.problem("input generation is not deterministic")
    ledger = WorkLedger(workload, seed)
    jobs = _jobs(instances)
    notes = [f"workload {workload} seed {seed}: "
             + ", ".join(f"{item.name} ({item.expected}: {item.reference})"
                         for item in instances)]

    passes: list[list[dict]] = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(jobs, tally, ledger))
        last = time.perf_counter() - pass_start
        if traced or time.perf_counter() - started + last > seconds:
            break
    notes.append(f"passes {len(passes)}, jobs per pass {len(jobs)}")

    if traced:
        metrics = _traced_metrics(workload, seed, jobs, passes[-1], tally,
                                  ledger, notes)
    else:
        overall = median([sum(row["wall"] for row in rows) for rows in passes])
        # A job's latency is the median of its walls over the passes, so a
        # percentile over a pass's few jobs does not rest on single samples.
        latencies = [median([rows[index]["wall"] for rows in passes])
                     for index in range(len(jobs))]
        notes.append(f"overall_s {overall:.4f}, latency_p99_ms "
                     f"{1000.0 * percentile(latencies, 0.99):.4f}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "overall_cpu_s": (median([sum(row["cpu"] for row in rows)
                                      for rows in passes]), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        for pipeline, key in PIPELINE_KEYS.items():
            mine = [row for row in passes[-1]
                    if row["job"].pipeline == pipeline]
            if mine:
                notes.append(f"{key}.overall_s "
                             f"{sum(row['wall'] for row in mine):.4f}")
    ledger.save()
    return tally, metrics, notes


def _traced_metrics(workload: str, seed: int, jobs: list[Job],
                    untraced: list[dict], tally: Tally, ledger: WorkLedger,
                    notes: list[str]) -> dict[str, tuple[float, str]]:
    """Replay every pair under spans and fold the spans into layer metrics."""
    recorder = SpanRecorder()
    replays = {}
    for job in jobs:
        counts = replay(job, recorder)
        replays[job.pair] = counts
        ledger.note(job.pair, {name: counts[name] for name in
                               ("ands", "luts", "status", "vars", "clauses",
                                "decisions", "conflicts") if name in counts},
                    tally)
        tally.record(counts["status"] == job.instance.expected,
                     f"{job.pair} (traced): {counts['status']}, expected "
                     f"{job.instance.expected}")
    recorder.write(OUT_DIR / f"spans-{workload}-{seed}.json")

    self_times = recorder.self_times()
    spans_by_id = {span.span_id: span for span in recorder.spans}
    metrics: dict[str, tuple[float, str]] = {}

    def add(name: str, value: float, unit: str) -> None:
        total, _ = metrics.get(name, (0.0, unit))
        metrics[name] = (total + value, unit)

    for op in SYNTHESIS_OPS:
        add(f"synthesis.{op}.ms", 0.0, "ms")
        add(f"synthesis.{op}.calls", 0, "count")
    for name, unit in (("synthesis.ands_out", "count"), ("mapping.ms", "ms"),
                       ("mapping.luts", "count"), ("mapping.cost", "cost")):
        add(name, 0.0, unit)
    for key in PIPELINE_KEYS.values():
        for name, unit in (("overall_s", "s"), ("cnf.encode.ms", "ms"),
                           ("cnf.vars", "count"), ("cnf.clauses", "count"),
                           ("sat.solve.ms", "ms"), ("sat.decisions", "count"),
                           ("sat.conflicts", "count"),
                           ("sat.propagations", "count")):
            add(f"{key}.{name}", 0.0, unit)
    add("ours.transform_s", 0.0, "s")
    add("ours.solve_s", 0.0, "s")

    traced_total = 0.0
    children_total = 0.0
    for span in recorder.spans:
        own = self_times[span.span_id]
        if span.parent is None:
            traced_total += span.duration
            continue
        children_total += span.duration
        key = PIPELINE_KEYS[spans_by_id[span.parent].attrs["pipeline"]]
        if span.name.startswith("synthesis."):
            add(f"{span.name}.ms", 1000.0 * own, "ms")
            add(f"{span.name}.calls", 1, "count")
        elif span.name == "mapping":
            add("mapping.ms", 1000.0 * own, "ms")
        elif span.name == "cnf.encode":
            add(f"{key}.cnf.encode.ms", 1000.0 * own, "ms")
        elif span.name == "sat.solve":
            add(f"{key}.sat.solve.ms", 1000.0 * own, "ms")

    for job in jobs:
        counts = replays[job.pair]
        key = PIPELINE_KEYS[job.pipeline]
        add(f"{key}.cnf.vars", counts["vars"], "count")
        add(f"{key}.cnf.clauses", counts["clauses"], "count")
        add(f"{key}.sat.decisions", counts["decisions"], "count")
        add(f"{key}.sat.conflicts", counts["conflicts"], "count")
        add(f"{key}.sat.propagations", counts["propagations"], "count")
        if "ands" in counts:
            add("synthesis.ands_out", counts["ands"], "count")
            add("mapping.luts", counts["luts"], "count")
            add("mapping.cost", counts["cost"], "cost")
    for key in PIPELINE_KEYS.values():
        solve_ms = metrics[f"{key}.sat.solve.ms"][0]
        props = metrics[f"{key}.sat.propagations"][0]
        metrics[f"{key}.sat.props_per_s"] = (
            1000.0 * props / solve_ms if solve_ms else 0.0, "1/s")

    untraced_total = 0.0
    for row in untraced:
        job, run = row["job"], row["run"]
        key = PIPELINE_KEYS[job.pipeline]
        untraced_total += row["wall"]
        add(f"{key}.overall_s", row["wall"], "s")
        if key == "ours":
            add("ours.transform_s", run.transform_time, "s")
            add("ours.solve_s", run.solve_time, "s")
        counts = replays[job.pair]
        for name, value in (("clauses", run.num_clauses),
                            ("decisions", run.stats.decisions)):
            if counts[name] != value:
                tally.problem(f"{job.pair}: traced replay {name} "
                              f"{counts[name]} != untraced {value}")
    walls = [row["wall"] for row in untraced]
    metrics["overall_s"] = (untraced_total, "s")
    metrics["latency_p50_ms"] = (1000.0 * percentile(walls, 0.50), "ms")
    metrics["latency_p99_ms"] = (1000.0 * percentile(walls, 0.99), "ms")
    overhead = traced_total - untraced_total
    metrics["core.glue.ms"] = (1000.0 * (untraced_total - children_total),
                               "ms")
    metrics["trace.overhead_ms"] = (1000.0 * overhead, "ms")
    self_sum = sum(self_times.values())
    notes.append(f"traced total {traced_total:.4f} s, untraced total "
                 f"{untraced_total:.4f} s, tracing overhead {overhead:.4f} s, "
                 f"sum of self times {self_sum:.4f} s")
    # Self times partition the traced time, so they must account for the
    # untraced total up to the overhead; anything else is a span bookkeeping
    # error in the instrument.
    if abs(self_sum - untraced_total) > abs(overhead) + 1e-3:
        tally.problem(f"self times sum to {self_sum:.4f} s, more than the "
                      f"overhead {overhead:.4f} s away from the untraced "
                      f"total {untraced_total:.4f} s")
    # Which synthesis op dominates is a finding about the program, not a
    # correctness check: an optimisation may legitimately change it.
    synthesis = {op: metrics[f"synthesis.{op}.ms"][0] for op in SYNTHESIS_OPS}
    largest = max(synthesis, key=synthesis.get)
    if synthesis[largest] > 0:
        notes.append(f"largest synthesis span: {largest}, "
                     f"{synthesis[largest]:.1f} of "
                     f"{sum(synthesis.values()):.1f} ms")
    return metrics
