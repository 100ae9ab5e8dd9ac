"""Tests for the batch runner: caching, hard timeouts, determinism, resume."""

import json
import multiprocessing
import signal
import time

import pytest

from repro.core.pipeline import PIPELINES, baseline_pipeline
from repro.core.results import UNCACHED_STATUSES, InstanceRun
from repro.runner import BatchRunner, ResultStore, Task, canonical_record
from repro.sat import SolverStats, kissat_like

from tests.helpers import random_aig, ripple_adder_aig


def _hanging_pipeline(aig):
    """A pathological pipeline that never finishes on its own."""
    for _ in range(1000):
        time.sleep(1.0)
    return baseline_pipeline(aig)


@pytest.fixture(autouse=True)
def _hang_pipeline_registered():
    """Expose the hang pipeline by name for the duration of each test.

    Pool workers fork inside the test body, after this fixture runs, so
    they inherit the registration; the registry is restored afterwards to
    keep the global ``PIPELINES`` dict pristine for other test modules.
    """
    PIPELINES["__hang__"] = _hanging_pipeline
    try:
        yield
    finally:
        PIPELINES.pop("__hang__", None)


_HAS_ALARM = hasattr(signal, "SIGALRM")
_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


def small_tasks(pipelines=("Baseline",), config=None, time_limit=10.0,
                count=3):
    tasks = []
    for index in range(count):
        aig = random_aig(num_pis=4, num_nodes=12, seed=index)
        for pipeline in pipelines:
            tasks.append(Task.from_aig(aig, pipeline, config=config,
                                       time_limit=time_limit))
    return tasks


class TestCaching:
    def test_miss_then_hit_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        tasks = small_tasks()
        first = BatchRunner(jobs=1, store=store).run(tasks)
        assert first.cache_hits == 0
        assert first.executed == len(tasks)

        second = BatchRunner(jobs=1, store=ResultStore(tmp_path / "store.jsonl")).run(tasks)
        assert second.cache_hits == len(tasks)
        assert second.executed == 0
        assert second.cache_fraction == 1.0
        # Cached runs reproduce the originals exactly, timing included.
        assert second.runs == first.runs
        assert "100% cached" in second.cache_summary()

    def test_runs_without_store(self):
        report = BatchRunner(jobs=1).run(small_tasks(count=1))
        assert report.cache_hits == 0
        assert report.runs[0].solved

    def test_in_batch_deduplication(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        aig = ripple_adder_aig(3)
        tasks = [
            Task.from_aig(aig, "Ours", time_limit=10.0),
            Task.from_aig(aig, "Ours", time_limit=10.0, group="w/o RL"),
        ]
        report = BatchRunner(jobs=1, store=store).run(tasks)
        assert report.executed == 1
        assert [run.pipeline_name for run in report.runs] == ["Ours", "w/o RL"]
        assert report.runs[0].decisions == report.runs[1].decisions

    def test_interrupt_preserves_completed_results(self, tmp_path):
        """Results are persisted as they complete, not at end of batch."""
        def _interrupt_pipeline(aig):
            raise KeyboardInterrupt

        PIPELINES["__interrupt__"] = _interrupt_pipeline
        try:
            path = tmp_path / "store.jsonl"
            tasks = small_tasks(count=2)
            tasks.append(Task.from_aig(ripple_adder_aig(3), "__interrupt__",
                                       time_limit=10.0))
            with pytest.raises(KeyboardInterrupt):
                BatchRunner(jobs=1, store=ResultStore(path)).run(tasks)
            # Both completed tasks survived the interrupt.
            assert len(ResultStore(path)) == 2
        finally:
            PIPELINES.pop("__interrupt__", None)

    def test_resume_skips_completed_tasks(self, tmp_path):
        """An interrupted sweep picks up where it stopped."""
        path = tmp_path / "store.jsonl"
        tasks = small_tasks(count=4)
        BatchRunner(jobs=1, store=ResultStore(path)).run(tasks[:2])

        resumed = BatchRunner(jobs=1, store=ResultStore(path)).run(tasks)
        assert resumed.cache_hits == 2
        assert resumed.executed == 2
        assert all(run.solved for run in resumed.runs)
        assert len(ResultStore(path)) == 4

    @pytest.mark.parametrize("status", UNCACHED_STATUSES)
    def test_uncached_statuses_stay_out_of_the_store(self, tmp_path, status):
        """The runner skips the same statuses as the server's memo."""
        store = ResultStore(tmp_path / "store.jsonl")
        task = small_tasks(count=1)[0]
        run = InstanceRun(instance_name="x", pipeline_name="Baseline",
                          status=status, transform_time=0.0, solve_time=0.0,
                          stats=SolverStats(), num_vars=0, num_clauses=0)
        BatchRunner(jobs=1, store=store)._finish(task.fingerprint(), task, run)
        assert len(store) == 0


@pytest.mark.skipif(not _HAS_ALARM, reason="requires SIGALRM")
class TestHardTimeout:
    def test_serial_timeout_reported_not_raised(self):
        tasks = [Task.from_aig(ripple_adder_aig(3), "__hang__",
                               time_limit=5.0, hard_timeout=0.5)]
        report = BatchRunner(jobs=1).run(tasks)
        assert report.runs[0].status == "TIMEOUT"
        assert report.runs[0].solve_time >= 0.5

    @pytest.mark.skipif(not _FORK, reason="hang pipeline needs fork workers")
    def test_parallel_timeout_does_not_kill_batch(self):
        aigs = [random_aig(num_pis=4, num_nodes=12, seed=seed)
                for seed in (10, 11)]
        tasks = [Task.from_aig(aigs[0], "Baseline", time_limit=10.0),
                 Task.from_aig(ripple_adder_aig(3), "__hang__",
                               time_limit=5.0, hard_timeout=0.5),
                 Task.from_aig(aigs[1], "Baseline", time_limit=10.0)]
        report = BatchRunner(jobs=2).run(tasks)
        statuses = [run.status for run in report.runs]
        assert statuses[1] == "TIMEOUT"
        assert statuses[0] in ("SAT", "UNSAT")
        assert statuses[2] in ("SAT", "UNSAT")

    def test_timeout_charged_in_aggregates(self):
        from repro.core.results import RunSet

        tasks = [Task.from_aig(ripple_adder_aig(3), "__hang__",
                               time_limit=5.0, hard_timeout=0.5)]
        report = BatchRunner(jobs=1).run(tasks)
        runset = RunSet(time_limit=5.0)
        runset.add(report.runs[0])
        assert runset.solved("__hang__") == 0
        assert runset.timeouts("__hang__") == 1
        assert runset.total_runtime("__hang__") == pytest.approx(5.0)


class TestErrorIsolation:
    def test_bad_task_reported_as_error(self):
        """One broken cell must not abort the rest of the sweep."""
        good = Task.from_aig(ripple_adder_aig(3), "Baseline", time_limit=10.0)
        bad = Task.from_aig(ripple_adder_aig(3), "Baseline", time_limit=10.0,
                            pipeline_kwargs={"no_such_kwarg": 1})
        report = BatchRunner(jobs=1).run([bad, good])
        assert report.runs[0].status == "ERROR"
        assert report.runs[1].solved

    def test_error_runs_are_not_cached(self, tmp_path):
        """Transient failures must be retried on resume, not served from disk."""
        path = tmp_path / "store.jsonl"
        good = Task.from_aig(ripple_adder_aig(3), "Baseline", time_limit=10.0)
        bad = Task.from_aig(ripple_adder_aig(3), "Baseline", time_limit=10.0,
                            pipeline_kwargs={"no_such_kwarg": 1})
        BatchRunner(jobs=1, store=ResultStore(path)).run([bad, good])
        assert len(ResultStore(path)) == 1  # only the good run persisted

        retry = BatchRunner(jobs=1, store=ResultStore(path)).run([bad, good])
        assert retry.cache_hits == 1
        assert retry.executed == 1

    def test_timeout_runs_are_cached(self, tmp_path):
        """Hard timeouts are deterministic and expensive: cache them."""
        if not _HAS_ALARM:
            pytest.skip("requires SIGALRM")
        path = tmp_path / "store.jsonl"
        task = Task.from_aig(ripple_adder_aig(3), "__hang__",
                             time_limit=5.0, hard_timeout=0.5)
        BatchRunner(jobs=1, store=ResultStore(path)).run([task])
        second = BatchRunner(jobs=1, store=ResultStore(path)).run([task])
        assert second.cache_hits == 1
        assert second.runs[0].status == "TIMEOUT"


class TestProofTasks:
    """Proof-bearing tasks: fingerprint-invisible, cache-bypassing."""

    def _miter_task(self, proof=None):
        from repro.benchgen.lec import multiplier_commutativity_miter

        return Task.from_aig(multiplier_commutativity_miter(2), "Baseline",
                             time_limit=10.0, proof=proof)

    def test_proof_excluded_from_fingerprint(self):
        assert self._miter_task().fingerprint() == \
            self._miter_task(proof="x.drat").fingerprint()

    def test_proof_tasks_bypass_cache_both_ways(self, tmp_path):
        """A cached record has no proof file to offer: the run executes,
        writes a checkable proof, and is itself never persisted."""
        from repro.cnf import read_dimacs
        from repro.cnf.tseitin import tseitin_encode
        from repro.sat.proof import check_drat_file

        path = tmp_path / "store.jsonl"
        plain = self._miter_task()
        BatchRunner(jobs=1, store=ResultStore(path)).run([plain])
        assert len(ResultStore(path)) == 1

        proof_file = tmp_path / "out.drat"
        proved = self._miter_task(proof=str(proof_file))
        report = BatchRunner(jobs=1, store=ResultStore(path)).run([proved])
        assert report.cache_hits == 0 and report.executed == 1
        assert report.runs[0].status == "UNSAT"
        outcome = check_drat_file(tseitin_encode(proved.aig()),
                                  str(proof_file))
        assert outcome.valid, outcome.reason
        # The refuted CNF is written beside the proof.
        sibling = read_dimacs(str(proof_file) + ".cnf")
        assert check_drat_file(sibling, str(proof_file)).valid
        assert len(ResultStore(path)) == 1  # the proof run is not cached
        # The plain task still hits the original record.
        replay = BatchRunner(jobs=1, store=ResultStore(path)).run([plain])
        assert replay.cache_hits == 1


class TestDeterminism:
    def test_parallel_results_identical_to_serial(self, tmp_path):
        """Same tasks, 1 worker vs many: every non-timing byte agrees."""
        tasks = small_tasks(pipelines=("Baseline", "Ours"),
                            config=kissat_like(), count=2)
        serial = BatchRunner(jobs=1,
                             store=ResultStore(tmp_path / "serial.jsonl")).run(tasks)
        parallel = BatchRunner(jobs=3,
                               store=ResultStore(tmp_path / "parallel.jsonl")).run(tasks)

        serial_bytes = [json.dumps(canonical_record(run), sort_keys=True)
                        for run in serial.runs]
        parallel_bytes = [json.dumps(canonical_record(run), sort_keys=True)
                          for run in parallel.runs]
        assert serial_bytes == parallel_bytes

    def test_rerun_is_deterministic(self):
        tasks = small_tasks(config=kissat_like(), count=2)
        first = BatchRunner(jobs=1).run(tasks)
        second = BatchRunner(jobs=1).run(tasks)
        assert ([canonical_record(run) for run in first.runs]
                == [canonical_record(run) for run in second.runs])


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchRunner(jobs=0)
