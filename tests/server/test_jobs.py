"""Job specs: validation into tasks, fingerprinting, and execution."""

import asyncio

import pytest

from repro.aig.aiger import read_aiger, write_aiger
from repro.benchgen import (adder_equivalence_miter, pigeonhole_cnf,
                            random_aig, random_cnf)
from repro.cnf import write_dimacs
from repro.resilience.chaos import ChaosSpec, use_chaos
from repro.runner.store import ResultStore
from repro.runner.task import Task
from repro.sat.configs import CONFIG_PRESETS
from repro.server.jobs import BadRequest, execute_job, parse_job, sniff_format
from repro.server.service import SolveService


def _cnf_payload(num_vars=12, num_clauses=40, seed=3):
    return write_dimacs(random_cnf(num_vars, num_clauses, seed))


def _aig_payload(seed=1):
    return write_aiger(random_aig(num_pis=4, num_nodes=14, seed=seed))


UNSAT_CNF = "p cnf 1 2\n1 0\n-1 0\n"


class TestParseJob:
    def test_minimal_cnf_solve(self):
        task = parse_job({"payload": _cnf_payload()})
        assert task.kind == "solve"
        assert task.fmt == "cnf"

    def test_format_sniffing(self):
        assert sniff_format(_aig_payload()) == "aig"
        assert sniff_format(_cnf_payload()) == "cnf"
        task = parse_job({"payload": _aig_payload()})
        assert task.fmt == "aig"

    def test_pipeline_aliases(self):
        for raw, canonical in (("baseline", "Baseline"), ("comp", "Comp."),
                               ("ours", "Ours"), ("Ours", "Ours")):
            task = parse_job({"payload": _aig_payload(),
                                      "pipeline": raw})
            assert task.pipeline == canonical

    @pytest.mark.parametrize("bad", [
        "not a dict",
        {},                                              # missing payload
        {"payload": "   "},                              # blank payload
        {"payload": "p cnf 1 1\n1 0\n", "kind": "nope"},
        {"payload": "p cnf 1 1\n1 0\n", "fmt": "blif"},
        {"payload": "p cnf 1 1\n1 0\n", "bogus_key": 1},
        {"payload": "p cnf 1 1\n1 0\n", "pipeline": "magic"},
        {"payload": "p cnf 1 1\n1 0\n", "backend": "nope"},
        {"payload": "p cnf 1 1\n1 0\n", "config": "nope"},
        {"payload": "p cnf 1 1\n1 0\n", "time_limit": -3},
        {"payload": "p cnf 1 1\n1 0\n", "time_limit": "fast"},
        {"payload": "p cnf 1 1\n1 0\n", "kind": "preprocess"},  # cnf payload
        {"payload": "p cnf 1 1\n1 0\n", "kind": "sweep"},
        {"payload": "aag 0 0 0 0 0\n", "kind": "preprocess",
         "proof": True},                                 # proof w/o solve
        {"payload": "p cnf 1 1\n1 0\n", "pipeline_kwargs": [1, 2]},
        {"payload": "p cnf 1 1\n1 0\n", "backend": "portfolio",
         "backend_kwargs": {"bogus": 1}},
        {"payload": "p cnf 1 1\n1 0\n", "backend": "portfolio",
         "backend_kwargs": {"num_workers": "3"}},
        {"payload": "p cnf 1 1\n1 0\n", "backend": "portfolio",
         "backend_kwargs": {"num_workers": 2.5}},
        {"payload": "p cnf 1 1\n1 0\n", "backend": "portfolio",
         "backend_kwargs": {"cube_depth": 99}},
        {"payload": "p cnf 1 1\n1 0\n",                # not a portfolio
         "backend_kwargs": {"num_workers": 2}},
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(BadRequest):
            parse_job(bad)

    def test_valid_backend_kwargs_are_accepted(self):
        task = parse_job({"payload": "p cnf 1 1\n1 0\n",
                          "backend": "portfolio",
                          "backend_kwargs": {"num_workers": 2,
                                             "cube_depth": 1}})
        assert task.backend_kwargs == {"num_workers": 2, "cube_depth": 1}

    def test_unparsable_aiger_is_a_bad_request(self):
        with pytest.raises(BadRequest, match="unparsable AIGER"):
            parse_job({"payload": "aag 1 2 3\nnot aiger at all"})

    def test_unparsable_aiger_is_refused_every_time(self):
        for _ in range(3):
            with pytest.raises(BadRequest, match="unparsable AIGER"):
                parse_job({"payload": "aag 1 2 3\nnot aiger at all"})

    def test_resubmitted_aiger_is_parsed_once(self, monkeypatch):
        from repro.server import jobs

        parses = []
        real = jobs.read_aiger
        monkeypatch.setattr(jobs, "_canonical_aiger",
                            jobs._CanonicalAiger(1 << 20))
        monkeypatch.setattr(jobs, "read_aiger",
                            lambda text: parses.append(text) or real(text))
        raw = write_aiger(adder_equivalence_miter(3)) + "c resubmitted\n"
        first = parse_job({"payload": raw})
        second = parse_job({"payload": raw})
        assert first.payload == second.payload == write_aiger(read_aiger(raw))
        assert first.fingerprint() == second.fingerprint()
        assert parses == [raw]

    def test_canonical_map_is_bounded_by_characters(self):
        from repro.server.jobs import _CanonicalAiger

        texts = [write_aiger(adder_equivalence_miter(width))
                 for width in (2, 3, 4)]
        budget = sum(2 * len(text) for text in texts[1:])
        canonical = _CanonicalAiger(budget)
        for text in texts:
            assert canonical(text) == write_aiger(read_aiger(text))
        assert list(canonical._texts) == texts[1:]   # oldest evicted
        assert canonical._chars <= budget
        huge = _CanonicalAiger(len(texts[0]))        # one text over budget
        assert huge(texts[0]) == write_aiger(read_aiger(texts[0]))
        assert not huge._texts

    def test_aiger_payload_is_canonicalised(self):
        raw = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"  # no trailing comment
        task = parse_job({"payload": raw, "pipeline": "ours",
                          "config": "default", "time_limit": 5})
        assert task.payload == write_aiger(read_aiger(raw))
        assert task.payload != raw
        assert task.pipeline == "Ours"
        assert task.config == CONFIG_PRESETS["default"]()
        assert task.time_limit == 5.0


class TestFingerprint:
    def test_name_and_proof_do_not_change_the_key(self):
        base = {"payload": UNSAT_CNF}
        fp = parse_job(base).fingerprint()
        named = parse_job({**base, "name": "other"})
        proved = parse_job({**base, "proof": True})
        assert named.fingerprint() == fp
        assert proved.fingerprint() == fp

    def test_limits_and_payload_do_change_the_key(self):
        base = {"payload": _cnf_payload(seed=3)}
        fp = parse_job(base).fingerprint()
        assert parse_job(
            {**base, "time_limit": 5}).fingerprint() != fp
        assert parse_job(
            {"payload": _cnf_payload(seed=4)}).fingerprint() != fp

    def test_aig_solve_matches_batch_task_fingerprint(self):
        """The server cache and the batch-runner cache share keys."""
        payload = write_aiger(adder_equivalence_miter(3, mutated=True,
                                                      seed=2))
        job = parse_job({"payload": payload, "kind": "solve",
                         "pipeline": "ours", "name": "miter"})
        # What a batch runner building a task from the same AIGER file
        # would compute (serialisation normalises, so parse first).
        task = Task.from_aig(read_aiger(payload), "Ours",
                             instance_name="miter",
                             config=CONFIG_PRESETS["kissat_like"]())
        assert job.fingerprint() == task.fingerprint()

    def test_seed_is_deterministic(self):
        task = parse_job({"payload": UNSAT_CNF})
        assert task.seed() == int(task.fingerprint()[:8], 16)

    def test_cnf_solve_ignores_fields_it_does_not_read(self):
        fp = parse_job(CNF_PAIR[0]).fingerprint()
        assert parse_job(CNF_PAIR[1]).fingerprint() == fp

    def test_sweep_ignores_fields_it_does_not_read(self):
        fp = parse_job(SWEEP_PAIR[0]).fingerprint()
        assert parse_job(SWEEP_PAIR[1]).fingerprint() == fp

    def test_second_of_each_pair_is_served_cached(self, tmp_path):
        async def main():
            service = SolveService(jobs=1,
                                   store=ResultStore(tmp_path / "m.jsonl"))
            await service.start()
            try:
                outcomes = []
                for first, second in (CNF_PAIR, SWEEP_PAIR):
                    job, _ = service.submit(parse_job(first))
                    await asyncio.wait_for(job.done_event.wait(), 60)
                    again, outcome = service.submit(parse_job(second))
                    assert again.result == job.result
                    outcomes.append(outcome)
                return outcomes
            finally:
                await service.shutdown(grace=10.0)

        assert asyncio.run(main()) == ["cached", "cached"]


#: Submissions that differ only in fields their kind does not read.
CNF_PAIR = ({"payload": UNSAT_CNF},
            {"payload": UNSAT_CNF, "pipeline": "ours",
             "pipeline_kwargs": {"lut_size": 6}, "mem_limit_mb": 512})
SWEEP_PAIR = ({"payload": _aig_payload(seed=5), "kind": "sweep"},
              {"payload": _aig_payload(seed=5), "kind": "sweep",
               "backend": "portfolio", "backend_kwargs": {"num_workers": 2}})


def _run(data):
    return execute_job(parse_job(data))


class TestExecuteJob:
    def test_cnf_sat_returns_model(self):
        result = _run({"payload": "p cnf 2 2\n1 2 0\n-1 0\n"})
        assert result["status"] == "SAT"
        model = result["model"]
        assert model["2"] is True and model["1"] is False

    def test_cnf_unsat(self):
        result = _run({"payload": UNSAT_CNF})
        assert result["status"] == "UNSAT"
        assert "model" not in result

    def test_aig_solve_rides_execute_task(self):
        aig = adder_equivalence_miter(3, mutated=False, seed=1)
        result = _run({"payload": write_aiger(aig), "pipeline": "ours",
                       "name": "eq"})
        assert result["kind"] == "solve"
        assert result["status"] == "UNSAT"  # faithful mutation-free miter
        assert result["num_vars"] > 0

    def test_proof_solve_returns_drat_and_cnf(self):
        result = _run({"payload": UNSAT_CNF, "proof": True})
        assert result["status"] == "UNSAT"
        assert result["proof"].strip().endswith("0")
        assert result["proof_cnf"].startswith("p cnf")

    def test_sat_proof_solve_returns_model_but_no_proof(self):
        result = _run({"payload": "p cnf 2 2\n1 2 0\n-1 0\n", "proof": True})
        assert result["status"] == "SAT"
        assert result["model"] == {"1": False, "2": True}
        assert "proof" not in result and "proof_cnf" not in result

    def test_preprocess_returns_dimacs(self):
        result = _run({"payload": _aig_payload(seed=7),
                       "kind": "preprocess", "pipeline": "ours"})
        assert result["status"] == "DONE"
        assert result["dimacs"].startswith("p cnf")
        assert result["num_clauses"] > 0

    def test_sweep_returns_aiger(self):
        result = _run({"payload": _aig_payload(seed=9), "kind": "sweep"})
        assert result["status"] == "DONE"
        assert result["aiger"].startswith("aag ")
        assert result["stats"]["nodes_before"] >= result["stats"]["nodes_after"]

    def test_garbage_aiger_yields_error_not_crash(self):
        # Admission refuses such payloads; a worker must still answer, not
        # crash, if one slips through.
        result = execute_job(Task(instance_name="junk",
                                  payload="aag 1 2 3\nnot aiger at all"))
        assert result["status"] == "ERROR"
        assert result["error"]

    def test_chaos_fail_task_maps_to_error(self):
        with use_chaos(ChaosSpec(fail_task="boom")):
            result = _run({"payload": UNSAT_CNF, "name": "boom"})
        assert result["status"] == "ERROR"

    def test_chaos_oom_task_maps_to_memout(self):
        with use_chaos(ChaosSpec(oom_task="piggy")):
            result = _run({"payload": UNSAT_CNF, "name": "piggy"})
        assert result["status"] == "MEMOUT"

    def test_hard_timeout_maps_to_timeout(self):
        # A budget far below interpreter startup cost trips immediately.
        payload = write_dimacs(random_cnf(60, 260, 11))
        result = _run({"payload": payload, "hard_timeout": 1e-4})
        assert result["status"] in ("TIMEOUT", "SAT", "UNSAT")

    def test_aborted_jobs_answer_with_status_and_time_only(self):
        with use_chaos(ChaosSpec(oom_task="piggy", fail_task="boom")):
            memout = _run({"payload": UNSAT_CNF, "name": "piggy"})
            error = _run({"payload": _aig_payload(), "kind": "preprocess",
                          "name": "boom"})
        assert set(memout) == {"kind", "status", "solve_time"}
        assert set(error) == {"kind", "status", "solve_time", "error"}

    def test_aborted_circuit_solve_answers_with_its_record(self):
        with use_chaos(ChaosSpec(oom_task="piggy")):
            result = _run({"payload": _aig_payload(), "name": "piggy"})
        assert result["status"] == "MEMOUT"
        assert set(result) == {"kind", "status", "pipeline", "num_vars",
                               "num_clauses", "transform_time",
                               "solve_time", "stats"}

    def test_proof_job_stopped_mid_solve_is_a_timeout(self):
        """The solver has opened the proof when the budget trips; the job
        answers TIMEOUT, with no proof, and is not retried."""
        async def main():
            service = SolveService(jobs=1)
            await service.start()
            try:
                job, _ = service.submit(parse_job({
                    "payload": write_dimacs(pigeonhole_cnf(8)),
                    "proof": True, "time_limit": 60, "hard_timeout": 0.5}))
                await asyncio.wait_for(job.done_event.wait(), 60)
                return job, service
            finally:
                await service.shutdown(grace=10.0)

        job, service = asyncio.run(main())
        assert job.result == {"kind": "solve", "status": "TIMEOUT",
                              "solve_time": job.result["solve_time"]}
        assert service.metrics.counter("server.worker_retries").value == 0
