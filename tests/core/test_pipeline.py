"""Tests for the Baseline / Comp. / Ours pipelines and end-to-end runs."""

import pytest

from repro.benchgen import atpg_instance, lec_instance
from repro.benchgen.datapath import parity_tree, ripple_carry_adder
from repro.core import (
    PIPELINES,
    RunSet,
    baseline_pipeline,
    comp_pipeline,
    ours_pipeline,
    run_pipeline,
)
from repro.sat import cadical_like, kissat_like, solve_cnf


def _sat_instance():
    return lec_instance(ripple_carry_adder(3), equivalent=False, seed=11)


def _unsat_instance():
    return lec_instance(ripple_carry_adder(3), equivalent=True)


class TestPipelineEncodings:
    def test_registry_contains_paper_labels(self):
        assert set(PIPELINES) == {"Baseline", "Comp.", "Ours"}

    @pytest.mark.parametrize("pipeline", [baseline_pipeline, comp_pipeline,
                                          ours_pipeline],
                             ids=["baseline", "comp", "ours"])
    def test_all_pipelines_equisatisfiable_sat(self, pipeline):
        cnf, transform_time = pipeline(_sat_instance())
        assert transform_time >= 0.0
        assert solve_cnf(cnf).is_sat

    @pytest.mark.parametrize("pipeline", [baseline_pipeline, comp_pipeline,
                                          ours_pipeline],
                             ids=["baseline", "comp", "ours"])
    def test_all_pipelines_equisatisfiable_unsat(self, pipeline):
        cnf, _ = pipeline(_unsat_instance())
        assert solve_cnf(cnf).is_unsat

    def test_preprocessed_encodings_are_smaller(self):
        instance = lec_instance(parity_tree(12), equivalent=False, seed=3)
        baseline_cnf, _ = baseline_pipeline(instance)
        ours_cnf, _ = ours_pipeline(instance)
        assert ours_cnf.num_vars < baseline_cnf.num_vars
        assert ours_cnf.num_clauses < baseline_cnf.num_clauses


class TestRunPipeline:
    def test_run_by_name(self):
        run = run_pipeline(_sat_instance(), "Baseline", config=kissat_like())
        assert run.pipeline_name == "Baseline"
        assert run.status == "SAT"
        assert run.total_time == pytest.approx(run.transform_time + run.solve_time)
        assert run.decisions == run.stats.decisions
        assert run.num_clauses > 0

    def test_run_with_callable(self):
        run = run_pipeline(_unsat_instance(), ours_pipeline, config=cadical_like())
        assert run.status == "UNSAT"
        assert run.pipeline_name == "ours_pipeline"

    def test_run_atpg_instance(self):
        instance = atpg_instance(ripple_carry_adder(3), seed=9)
        run = run_pipeline(instance, "Ours")
        assert run.status in ("SAT", "UNSAT")

    def test_budgeted_run_can_return_unknown(self):
        instance = lec_instance(ripple_carry_adder(6), equivalent=True)
        run = run_pipeline(instance, "Baseline", max_decisions=1)
        assert run.status in ("UNKNOWN", "UNSAT")

    def test_pipelines_agree_on_status(self):
        for builder in (_sat_instance, _unsat_instance):
            instance = builder()
            statuses = {run_pipeline(instance, name).status for name in PIPELINES}
            assert len(statuses) == 1


class TestPipelineComparison:
    def test_accumulates_totals(self):
        comparison = RunSet()
        instance = _sat_instance()
        for name in PIPELINES:
            comparison.add(run_pipeline(instance, name))
        for name in PIPELINES:
            assert comparison.total_time(name) > 0.0
            assert comparison.solved(name) == 1
            assert comparison.total_decisions(name) >= 0
