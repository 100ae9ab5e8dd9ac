"""One store file, two writers: the batch runner and the solve server.

Both key their records by :meth:`Task.fingerprint` and write the same
record layout, so either one answers from what the other stored.  A
record that holds no run (the server's older wrapper layout) is a cache
miss for both, never a crash.
"""

import asyncio

import pytest

from repro.aig.aiger import write_aiger
from repro.benchgen import adder_equivalence_miter, random_aig, random_cnf
from repro.cnf import write_dimacs
from repro.runner import BatchRunner, ResultStore
from repro.runner.task import SCHEMA_VERSION
from repro.server.jobs import execute_job, parse_job
from repro.server.service import SolveService

#: Budgets stated in every spec, so the server's defaults leave the task
#: (and hence its fingerprint) exactly as the runner sees it.
_LIMITS = {"time_limit": 20, "hard_timeout": 60}

_AIG = write_aiger(random_aig(num_pis=4, num_nodes=14, seed=5))

SPECS = {
    "solve_aig": {"payload": write_aiger(
        adder_equivalence_miter(3, mutated=True, seed=2)),
        "pipeline": "ours"},
    "solve_cnf": {"payload": write_dimacs(random_cnf(10, 20, 1))},  # SAT
    "preprocess": {"payload": _AIG, "kind": "preprocess",
                   "pipeline": "ours"},
    "sweep": {"payload": _AIG, "kind": "sweep"},
}


def _task(name):
    return parse_job({**SPECS[name], **_LIMITS, "name": name})


def _untimed(body):
    """A response body without its wall-clock fields."""
    body = {key: value for key, value in body.items()
            if key not in ("transform_time", "solve_time")}
    if isinstance(body.get("stats"), dict):
        body["stats"] = {key: value for key, value in body["stats"].items()
                         if not key.endswith("_time")}
    return body


def _submit_once(store, task):
    """Submit ``task`` to a fresh one-worker service; ``(outcome, job)``."""
    async def main():
        service = SolveService(jobs=1, store=store, quota_burst=100)
        await service.start()
        try:
            job, outcome = service.submit(task)
            await asyncio.wait_for(job.done_event.wait(), 60)
            return outcome, job
        finally:
            await service.shutdown(grace=10.0)

    return asyncio.run(main())


def _wrapper_record(fingerprint):
    """A memo record in the server's layout from before the shared one."""
    return {"schema": SCHEMA_VERSION, "task": fingerprint, "server": 1,
            "kind": "solve", "result": {"kind": "solve", "status": "SAT"}}


class TestServerRecordsServeTheRunner:
    def test_server_record_is_a_runner_cache_hit(self, tmp_path):
        path = tmp_path / "store.jsonl"
        task = _task("solve_aig")
        outcome, job = _submit_once(ResultStore(path), task)
        assert outcome == "accepted"
        report = BatchRunner(store=ResultStore(path)).run([task])
        assert (report.cache_hits, report.executed) == (1, 0)
        assert report.runs[0].status == job.result["status"]
        assert report.runs[0].num_vars == job.result["num_vars"]


class TestRunnerRecordsServeTheServer:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_runner_record_is_answered_cached(self, tmp_path, name):
        path = tmp_path / "store.jsonl"
        task = _task(name)
        BatchRunner(store=ResultStore(path)).run([task])
        outcome, job = _submit_once(ResultStore(path), task)
        assert outcome == "cached"
        assert _untimed(job.result) == _untimed(execute_job(task))


class TestRunnerCacheKeepsArtefacts:
    @pytest.mark.parametrize("name,keys", [("preprocess", {"dimacs"}),
                                           ("sweep", {"aiger", "stats"})])
    def test_cache_hit_carries_the_output(self, tmp_path, name, keys):
        path = tmp_path / "store.jsonl"
        task = _task(name)
        fresh = BatchRunner(store=ResultStore(path)).run([task]).runs[0]
        report = BatchRunner(store=ResultStore(path)).run([task])
        assert report.cache_hits == 1
        assert set(report.runs[0].output) == keys
        assert report.runs[0].output == fresh.output


class TestWrapperRecordsAreMisses:
    def test_runner_re_executes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        task = _task("solve_aig")
        ResultStore(path).put_record(task.fingerprint(),
                                     _wrapper_record(task.fingerprint()))
        store = ResultStore(path)
        assert store.get(task.fingerprint()) is None
        report = BatchRunner(store=store).run([task])
        assert (report.cache_hits, report.executed) == (0, 1)
        assert ResultStore(path).get(task.fingerprint()) == report.runs[0]

    def test_server_re_executes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        task = _task("solve_cnf")
        ResultStore(path).put_record(task.fingerprint(),
                                     _wrapper_record(task.fingerprint()))
        outcome, job = _submit_once(ResultStore(path), task)
        assert outcome == "accepted"
        assert "model" in job.result
        assert ResultStore(path).get(task.fingerprint()) is not None
