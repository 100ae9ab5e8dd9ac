"""Fault-injection tests for the supervised batch runner.

These run real worker pools against the chaos harness: workers are
SIGKILLed mid-task, store appends fail, tasks OOM — and the batch must
still return a terminal status for every task without losing a record.
Faults reach pool workers through the ``REPRO_CHAOS`` environment variable
(it crosses ``fork``/``spawn``); one-shot behaviour is coordinated through
a flags directory so "crash the first execution, let the retry succeed"
is expressible.
"""

import multiprocessing
import time

import pytest

from repro.core.pipeline import PIPELINES, baseline_pipeline
from repro.obs import read_trace, use_tracer, Tracer
from repro.resilience import RetryPolicy, Supervisor
from repro.resilience.chaos import CHAOS_ENV, use_chaos
from repro.runner import BatchRunner, ResultStore, Task

from tests.helpers import random_aig

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


def small_tasks(count=5, prefix="inst"):
    tasks = []
    for index in range(count):
        aig = random_aig(num_pis=4, num_nodes=14, seed=index)
        tasks.append(Task.from_aig(aig, "Baseline",
                                   instance_name=f"{prefix}-{index}",
                                   time_limit=10.0))
    return tasks


def quiet_supervisor(max_attempts=3):
    return Supervisor(RetryPolicy(max_attempts=max_attempts,
                                  backoff_base=0.001, jitter=0.0),
                      sleep=lambda _: None)


class TestWorkerDeath:
    def test_sigkilled_worker_mid_task_batch_completes(self, tmp_path,
                                                       monkeypatch):
        """The acceptance scenario: one worker is SIGKILLed mid-task; the

        pool is rebuilt, every task ends terminal and no record is lost."""
        flags = tmp_path / "flags"
        monkeypatch.setenv(CHAOS_ENV, f"kill_task=victim-3,flags={flags}")
        store = ResultStore(tmp_path / "store.jsonl")
        supervisor = quiet_supervisor()
        runner = BatchRunner(jobs=3, store=store, supervisor=supervisor)
        report = runner.run(small_tasks(6, prefix="victim"))
        assert [run.status for run in report.runs].count("SAT") \
            + [run.status for run in report.runs].count("UNSAT") == 6
        assert len(store) == 6                       # zero lost records
        assert supervisor.retries_granted >= 1       # the rebuild happened

    def test_unrelenting_killer_yields_terminal_error(self, tmp_path,
                                                      monkeypatch):
        # No flags dir: the fault fires on every retry until the budget is
        # spent; the victim must end as ERROR, the others must complete.
        monkeypatch.setenv(CHAOS_ENV, "kill_task=victim-1")
        supervisor = quiet_supervisor(max_attempts=2)
        runner = BatchRunner(jobs=2, supervisor=supervisor)
        report = runner.run(small_tasks(4, prefix="victim"))
        statuses = {run.instance_name: run.status for run in report.runs}
        assert statuses["victim-1"] == "ERROR"
        assert all(status in ("SAT", "UNSAT")
                   for name, status in statuses.items() if name != "victim-1")
        assert "task." in supervisor.gave_up[0]

    @pytest.mark.skipif(not _FORK, reason="slow pipeline needs fork workers")
    def test_worker_death_charges_only_its_own_task(self, tmp_path,
                                                    monkeypatch):
        """The bystander is still running when the victim's worker dies;
        only the victim's task is charged an attempt."""
        def slow_pipeline(aig):
            time.sleep(0.5)
            return baseline_pipeline(aig)

        monkeypatch.setitem(PIPELINES, "__slow__", slow_pipeline)
        monkeypatch.setenv(CHAOS_ENV,
                           f"kill_task=victim,flags={tmp_path / 'flags'}")
        aig = random_aig(num_pis=4, num_nodes=14, seed=7)
        tasks = [Task.from_aig(aig, "__slow__", instance_name="bystander",
                               time_limit=10.0),
                 Task.from_aig(aig, "Baseline", instance_name="victim",
                               time_limit=10.0)]
        supervisor = quiet_supervisor()
        report = BatchRunner(jobs=2, supervisor=supervisor).run(tasks)
        assert all(run.status in ("SAT", "UNSAT") for run in report.runs)
        assert [supervisor.attempts(f"task.{task.fingerprint()[:16]}")
                for task in tasks] == [0, 1]

    def test_worker_death_emits_obs_events_and_counters(self, tmp_path,
                                                        monkeypatch):
        flags = tmp_path / "flags"
        monkeypatch.setenv(CHAOS_ENV, f"kill_task=victim-2,flags={flags}")
        trace_path = tmp_path / "trace.jsonl"
        tracer = Tracer(trace_path)
        with use_tracer(tracer):
            BatchRunner(jobs=2, supervisor=quiet_supervisor()).run(
                small_tasks(4, prefix="victim"))
        tracer.close()
        records = read_trace(trace_path)
        events = {record.get("name") for record in records
                  if record.get("type") == "event"}
        assert "pool_rebuild" in events
        counters = {}
        for record in records:
            if record.get("type") == "metrics":
                counters.update(record.get("counters", {}))
        assert counters["resilience.worker_deaths"]["value"] >= 1
        assert counters["resilience.pool_rebuilds"]["value"] >= 1
        assert counters["resilience.retries"]["value"] >= 1


class TestStoreFaults:
    def test_injected_store_failures_lose_no_records(self, tmp_path,
                                                     monkeypatch):
        # Appends fail twice; the per-append retry loop absorbs both and
        # every record still lands on disk.
        monkeypatch.setenv(CHAOS_ENV, "store_errors=2")
        store = ResultStore(tmp_path / "store.jsonl")
        report = BatchRunner(jobs=1, store=store).run(small_tasks(4))
        assert all(run.status in ("SAT", "UNSAT") for run in report.runs)
        assert len(ResultStore(tmp_path / "store.jsonl")) == 4

    def test_unpersistable_result_stays_in_the_batch(self, tmp_path):
        # More injected failures than retry attempts: the record is dropped
        # from the cache but the batch still returns the result.
        store = ResultStore(tmp_path / "store.jsonl")
        with use_chaos("store_errors=100"):
            report = BatchRunner(jobs=1, store=store).run(small_tasks(2))
        assert all(run.status in ("SAT", "UNSAT") for run in report.runs)
        assert len(ResultStore(tmp_path / "store.jsonl")) == 0


class TestResourceFaults:
    def test_injected_oom_becomes_memout_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "oom_task=victim-0")
        store = ResultStore(tmp_path / "store.jsonl")
        report = BatchRunner(jobs=1, store=store).run(
            small_tasks(3, prefix="victim"))
        statuses = {run.instance_name: run.status for run in report.runs}
        assert statuses["victim-0"] == "MEMOUT"
        # MEMOUT is limit-dependent and must not be cached.
        assert len(store) == 2

    @pytest.mark.skipif(not _FORK, reason="needs fork start method")
    def test_mem_limit_threads_through_pool_workers(self, tmp_path):
        report = BatchRunner(jobs=2, mem_limit_mb=4096).run(small_tasks(3))
        assert all(run.status in ("SAT", "UNSAT") for run in report.runs)


class TestInlineSupervision:
    def test_transient_task_fault_is_retried_inline(self, tmp_path,
                                                    monkeypatch):
        flags = tmp_path / "flags"
        monkeypatch.setenv(CHAOS_ENV, f"fail_task=victim-1,flags={flags}")
        report = BatchRunner(jobs=1, supervisor=quiet_supervisor()).run(
            small_tasks(3, prefix="victim"))
        assert all(run.status in ("SAT", "UNSAT") for run in report.runs)

    def test_without_supervisor_fault_is_terminal(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "fail_task=victim-1")
        report = BatchRunner(jobs=1).run(small_tasks(3, prefix="victim"))
        statuses = {run.instance_name: run.status for run in report.runs}
        assert statuses["victim-1"] == "ERROR"
