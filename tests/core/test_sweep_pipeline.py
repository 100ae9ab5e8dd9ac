"""SAT sweeping threaded through the preprocessing pipelines."""

from repro.benchgen.lec import multiplier_commutativity_miter
from repro.core.pipeline import run_pipeline
from repro.core.preprocess import Preprocessor


def _miter():
    return multiplier_commutativity_miter(3)


class TestPreprocessorSweep:
    def test_sweep_shrinks_the_final_aig(self):
        plain = Preprocessor(recipe=["balance"], sweep=False).preprocess(_miter())
        swept = Preprocessor(recipe=["balance"], sweep=True).preprocess(_miter())
        assert swept.final_aig.num_ands < plain.final_aig.num_ands
        assert swept.cnf.num_vars <= plain.cnf.num_vars

    def test_sweep_kwargs_are_forwarded(self):
        # 12 inputs: too many to simulate exhaustively, so SAT decides.
        result = Preprocessor(recipe=["balance"], sweep=True,
                              sweep_kwargs={"conflict_budget": 1}).preprocess(
                                  multiplier_commutativity_miter(6))
        # A one-conflict budget proves nothing, so nothing collapses.
        assert result.final_aig.num_ands > 0


class TestPipelineSweepKwarg:
    def test_every_pipeline_accepts_sweep(self):
        for pipeline in ("Baseline", "Comp.", "Ours"):
            run = run_pipeline(_miter(), pipeline,
                               pipeline_kwargs={"sweep": True})
            assert run.status == "UNSAT", pipeline

    def test_baseline_sweep_shrinks_the_encoding(self):
        plain = run_pipeline(_miter(), "Baseline")
        swept = run_pipeline(_miter(), "Baseline",
                             pipeline_kwargs={"sweep": True})
        assert swept.status == plain.status == "UNSAT"
        assert swept.num_vars < plain.num_vars
        assert swept.stats.decisions <= plain.stats.decisions
