"""Clause sharing between portfolio workers (HordeSat-style).

Two transports over one protocol:

* **Multiprocess bus** (:class:`ClauseBus`) — the real portfolio path.
  Every worker gets a :class:`BusEndpoint`: exports go to one shared
  ``multiprocessing`` queue, imports arrive on a bounded per-worker queue.
  The *parent* pumps the bus while it polls for results: it drains the
  export queue, drops duplicates (a global seen-set — the same clause is
  typically learned by several workers), and broadcasts survivors to every
  other worker's import queue, dropping on overflow rather than blocking.
  Workers drain their import queue at restart boundaries
  (:meth:`repro.sat.solver.CdclSolver.set_import_source`), so sharing never
  interrupts the solver's hot loop.  Traffic is counted on the ``obs``
  metrics ``sharing.exported`` / ``sharing.imported`` /
  ``sharing.filtered``.

* **Deterministic in-process interleave**
  (:func:`interleaved_sharing_race`) — the same export/filter/import
  protocol with plain lists instead of queues: N solvers run round-robin
  in fixed conflict slices, exchanging exports between slices.  On a
  single-core host a "parallel" race is time-shared anyway, so the
  interleave is both the honest benchmark methodology (the virtual wall
  clock is the winner's *own* accumulated solve time, exactly the
  virtual-best-solver accounting the racing benchmark uses) and a
  process-free, fully deterministic rig for testing sharing semantics.

Export policy follows HordeSat: only short, low-LBD clauses travel (see
:class:`repro.sat.solver.ClauseExportHook`), each worker under an export
budget.  For proof logging each worker writes a Lamport-stamped
:class:`repro.sat.proof.LemmaStream`; exported clauses carry their stamp so
importers keep their clocks ahead of every foreign antecedent, which makes
the merged multi-worker proof checkable (see :mod:`repro.sat.proof`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from queue import Empty, Full

from repro.cnf.cnf import Cnf
from repro.errors import SolverError
from repro.obs import get_tracer
from repro.sat.configs import SolverConfig
from repro.sat.proof import LemmaStream, merge_lemma_streams, write_drat_file
from repro.sat.solver import CdclSolver, ClauseExportHook, SolveResult

__all__ = [
    "SharingConfig",
    "ClauseBus",
    "BusEndpoint",
    "InlineRaceResult",
    "interleaved_sharing_race",
]


@dataclass(frozen=True)
class SharingConfig:
    """Tuning knobs for clause sharing.

    ``max_len``/``max_lbd`` gate what a worker exports (short, low-glue
    clauses only); ``export_budget`` caps one worker's total exports;
    ``import_queue_size`` bounds each worker's inbound queue (overflow
    drops, never blocks); ``import_max_len`` is the importer-side size
    filter; ``pump_batch`` caps how many messages one parent pump moves.
    """

    max_len: int = 8
    max_lbd: int = 4
    export_budget: int | None = 10_000
    import_queue_size: int = 4096
    import_max_len: int = 32
    pump_batch: int = 512

    def __post_init__(self) -> None:
        if self.max_len < 1 or self.import_max_len < 1:
            raise SolverError("sharing length filters must be at least 1")
        if self.max_lbd < 1:
            raise SolverError("sharing max_lbd must be at least 1")
        if self.import_queue_size < 1 or self.pump_batch < 1:
            raise SolverError("sharing queue sizes must be at least 1")
        if self.export_budget is not None and self.export_budget < 0:
            raise SolverError("export_budget must be non-negative")


class BusEndpoint:
    """One worker's handle on the bus: export sink plus import source.

    Built by :meth:`ClauseBus.endpoint` in the forked worker, from the
    bus (and queues) it inherits.  There, :meth:`attach` wires it into a
    :class:`CdclSolver`; ``stream`` (optional) is the worker's
    :class:`~repro.sat.proof.LemmaStream`, consulted for the Lamport stamp
    of every export and advanced past the stamp of every import.
    """

    def __init__(self, index: int, export_queue, import_queue,
                 config: SharingConfig) -> None:
        self.index = index
        self.config = config
        self._export_queue = export_queue
        self._import_queue = import_queue
        self._stream: LemmaStream | None = None

    def attach(self, solver: CdclSolver,
               stream: LemmaStream | None = None) -> None:
        """Install the export hook and import source on ``solver``."""
        self._stream = stream
        solver.set_export_hook(ClauseExportHook(
            self._export, max_len=self.config.max_len,
            max_lbd=self.config.max_lbd, budget=self.config.export_budget))
        solver.set_import_source(self._drain,
                                 max_len=self.config.import_max_len)

    def _export(self, clause: tuple[int, ...], lbd: int) -> None:
        timestamp = self._stream.clock if self._stream is not None else 0
        try:
            self._export_queue.put_nowait(
                (self.index, timestamp, clause, lbd))
        except Full:  # pragma: no cover - unbounded in practice
            pass

    def _drain(self) -> list[tuple[tuple[int, ...], int]]:
        imports: list[tuple[tuple[int, ...], int]] = []
        while True:
            try:
                timestamp, clause, lbd = self._import_queue.get_nowait()
            except (Empty, OSError):
                break
            if self._stream is not None:
                self._stream.observe(timestamp)
            imports.append((clause, lbd))
        return imports


class ClauseBus:
    """Parent-side hub wiring N workers' exports into each other's imports.

    The parent calls :meth:`pump` while polling for results (and once more
    on shutdown): non-blocking end to end, so a stalled or dead worker can
    never stall the race.  Duplicate clauses — the common case, since
    workers rediscover the same glue — are dropped here once, globally,
    before they cost N-1 queue slots.
    """

    def __init__(self, num_workers: int, config: SharingConfig,
                 context) -> None:
        if num_workers < 2:
            raise SolverError("clause sharing needs at least two workers")
        self.config = config
        self.exported = 0   # messages taken off the export queue
        self.imported = 0   # deliveries into import queues
        self.filtered = 0   # duplicate or overflow drops
        self._seen: set[tuple[int, ...]] = set()
        self._export_queue = context.Queue()
        self._import_queues = [context.Queue(maxsize=config.import_queue_size)
                               for _ in range(num_workers)]

    def endpoint(self, index: int) -> BusEndpoint:
        return BusEndpoint(index, self._export_queue,
                           self._import_queues[index], self.config)

    def pump(self) -> int:
        """Move up to ``pump_batch`` exports to the other workers' inboxes."""
        moved = 0
        while moved < self.config.pump_batch:
            try:
                source, timestamp, clause, lbd = \
                    self._export_queue.get_nowait()
            except (Empty, OSError):
                break
            moved += 1
            self.exported += 1
            key = tuple(sorted(clause))
            if key in self._seen:
                self.filtered += 1
                continue
            self._seen.add(key)
            for index, import_queue in enumerate(self._import_queues):
                if index == source:
                    continue
                try:
                    import_queue.put_nowait((timestamp, clause, lbd))
                    self.imported += 1
                except Full:
                    self.filtered += 1
        return moved

    def publish_metrics(self) -> None:
        """Count the bus totals on the active tracer's metrics."""
        tracer = get_tracer()
        tracer.metrics.counter("sharing.exported").inc(self.exported)
        tracer.metrics.counter("sharing.imported").inc(self.imported)
        tracer.metrics.counter("sharing.filtered").inc(self.filtered)

    def counters(self) -> dict[str, int]:
        return {"exported": self.exported, "imported": self.imported,
                "filtered": self.filtered}

    def close(self) -> None:
        """Drain and close every queue so feeder threads cannot block exit."""
        for queue in [self._export_queue] + self._import_queues:
            while True:
                try:
                    queue.get_nowait()
                except (Empty, OSError):
                    break
            queue.close()
            queue.cancel_join_thread()


# --------------------------------------------------------------------- #
# Deterministic in-process interleaved sharing race
# --------------------------------------------------------------------- #


@dataclass
class InlineRaceResult:
    """Outcome of one :func:`interleaved_sharing_race`.

    ``virtual_wall`` is the winner's own accumulated solve time — the wall
    clock an ideally parallel run would show, and the quantity the
    ``portfolio_sharing`` benchmark compares against a sequential solve.
    ``worker_times`` holds every worker's accumulated time;
    ``worker_conflicts`` its conflicts.  ``proof`` is the path of the
    merged DRAT proof when one was requested and the race ended
    formula-level UNSAT, else ``None``.
    """

    result: SolveResult
    winner: int | None
    winner_name: str | None
    virtual_wall: float
    rounds: int
    worker_times: list[float] = field(default_factory=list)
    worker_conflicts: list[int] = field(default_factory=list)
    sharing: dict[str, int] = field(default_factory=dict)
    proof: str | None = None

    @property
    def status(self) -> str:
        return self.result.status


def interleaved_sharing_race(
        cnf: Cnf, configs: list[SolverConfig], *,
        sharing: SharingConfig | None = None,
        slice_conflicts: int = 256,
        max_rounds: int | None = None,
        time_limit: float | None = None,
        proof: str | None = None) -> InlineRaceResult:
    """Race ``configs`` round-robin in conflict slices, sharing clauses.

    Each solver runs ``slice_conflicts`` conflicts per turn on a persistent
    :class:`CdclSolver` session; between turns its exported clauses are
    deduplicated globally and delivered to every other solver's inbox
    (drained at the next restart boundary, like the multiprocess bus).
    The first decisive solver wins.  Fully deterministic for fixed inputs:
    no processes, no scheduler — which also makes it the honest single-core
    benchmark methodology (see the module docstring).

    ``proof`` requests a merged DRAT proof: every solver logs a Lamport
    lemma stream; on a formula-level UNSAT win the streams are merged and
    written to the given path.
    """
    if not configs:
        raise SolverError("an interleaved race needs at least one config")
    if slice_conflicts < 1:
        raise SolverError("slice_conflicts must be at least 1")
    sharing = sharing or SharingConfig()
    count = len(configs)
    solvers = [CdclSolver(cnf, config=config) for config in configs]
    streams = [LemmaStream(worker=index) for index in range(count)] \
        if proof is not None else None
    inboxes: list[list[tuple[int, tuple[int, ...], int]]] = \
        [[] for _ in range(count)]
    outboxes: list[list[tuple[int, tuple[int, ...], int]]] = \
        [[] for _ in range(count)]
    seen: set[tuple[int, ...]] = set()
    counters = {"exported": 0, "imported": 0, "filtered": 0}

    def make_sink(index: int):
        def sink(clause: tuple[int, ...], lbd: int) -> None:
            timestamp = streams[index].clock if streams is not None else 0
            outboxes[index].append((timestamp, clause, lbd))
        return sink

    def make_source(index: int):
        def source() -> list[tuple[tuple[int, ...], int]]:
            pending = inboxes[index]
            if not pending:
                return []
            inboxes[index] = []
            if streams is not None:
                stream = streams[index]
                for timestamp, _, _ in pending:
                    stream.observe(timestamp)
            return [(clause, lbd) for _, clause, lbd in pending]
        return source

    for index, solver in enumerate(solvers):
        if streams is not None:
            solver.set_proof(streams[index])
        if count > 1:
            solver.set_export_hook(ClauseExportHook(
                make_sink(index), max_len=sharing.max_len,
                max_lbd=sharing.max_lbd, budget=sharing.export_budget))
            solver.set_import_source(make_source(index),
                                     max_len=sharing.import_max_len)

    def flush_outbox(index: int) -> None:
        for timestamp, clause, lbd in outboxes[index]:
            counters["exported"] += 1
            key = tuple(sorted(clause))
            if key in seen:
                counters["filtered"] += 1
                continue
            seen.add(key)
            for other in range(count):
                if other != index:
                    inboxes[other].append((timestamp, clause, lbd))
                    counters["imported"] += 1
        outboxes[index].clear()

    times = [0.0] * count
    start = time.perf_counter()
    winner: int | None = None
    winner_result: SolveResult | None = None
    rounds = 0
    while winner is None:
        if max_rounds is not None and rounds >= max_rounds:
            break
        if time_limit is not None \
                and time.perf_counter() - start > time_limit:
            break
        rounds += 1
        for index, solver in enumerate(solvers):
            slice_start = time.perf_counter()
            result = solver.solve(max_conflicts=slice_conflicts)
            times[index] += time.perf_counter() - slice_start
            flush_outbox(index)
            if result.status in ("SAT", "UNSAT"):
                winner = index
                winner_result = result
                break

    tracer = get_tracer()
    tracer.metrics.counter("sharing.exported").inc(counters["exported"])
    tracer.metrics.counter("sharing.imported").inc(counters["imported"])
    tracer.metrics.counter("sharing.filtered").inc(counters["filtered"])

    proof_path: str | None = None
    if winner is not None:
        assert winner_result is not None
        if proof is not None and winner_result.is_unsat \
                and winner_result.core == []:
            merged = merge_lemma_streams([stream.lemmas
                                          for stream in streams])
            write_drat_file(proof, merged)
            proof_path = proof
        return InlineRaceResult(
            result=winner_result, winner=winner,
            winner_name=configs[winner].name, virtual_wall=times[winner],
            rounds=rounds, worker_times=times,
            worker_conflicts=[solver.stats.conflicts for solver in solvers],
            sharing=dict(counters), proof=proof_path)

    # Budget exhausted with no verdict.
    stats = solvers[0].stats
    return InlineRaceResult(
        result=SolveResult(status="UNKNOWN", model=None, stats=stats),
        winner=None, winner_name=None,
        virtual_wall=time.perf_counter() - start, rounds=rounds,
        worker_times=times,
        worker_conflicts=[solver.stats.conflicts for solver in solvers],
        sharing=dict(counters))
