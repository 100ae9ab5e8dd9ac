"""Chaos tests for the parallel portfolio: dead workers, degraded verdicts.

The heavyweight races live behind the ``chaos`` marker (run with
``pytest -m chaos``): each one forks a real portfolio, SIGKILLs workers
mid-search through the ``REPRO_CHAOS`` environment variable and asserts
the verdict still lands.  A fast smoke stays in tier-1.
"""

import errno
import multiprocessing

import pytest

import repro.sat.portfolio as portfolio_module
from repro.errors import SolverError
from repro.obs import Tracer, use_tracer
from repro.resilience.chaos import CHAOS_ENV
from repro.resilience.pool import WorkerPool
from repro.sat.backends import PortfolioBackend
from repro.sat.configs import kissat_like
from repro.sat.portfolio import solve_cube_and_conquer, solve_portfolio

from tests.resilience.helpers import hard_cnf, harder_cnf

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"

needs_fork = pytest.mark.skipif(
    not _FORK, reason="portfolio chaos tests need the fork start method")


@needs_fork
class TestWorkerDeath:
    def test_survivors_return_the_verdict(self, monkeypatch):
        """Tier-1 smoke: one of two workers dies; the race still concludes.

        The instance must outlive the kill threshold by a wide margin, or
        the survivor can win before the victim's death is even noticed."""
        monkeypatch.setenv(CHAOS_ENV, "kill_worker=0@50")
        result = solve_portfolio(harder_cnf(), num_workers=2,
                                 base_config=kissat_like())
        assert result.result.status == "UNSAT"
        dead = [w for w in result.workers if w.status == "ERROR"]
        assert len(dead) == 1 and dead[0].index == 0
        assert "died" in dead[0].error
        assert not multiprocessing.active_children()

    @pytest.mark.chaos
    def test_half_killed_portfolio_still_decides(self, monkeypatch):
        """The acceptance scenario: half the workers are SIGKILLed
        mid-search and the portfolio still returns the correct verdict."""
        monkeypatch.setenv(CHAOS_ENV, "kill_worker=0|1@50")
        result = solve_portfolio(harder_cnf(), num_workers=4,
                                 base_config=kissat_like())
        assert result.result.status == "UNSAT"
        statuses = {w.index: w.status for w in result.workers}
        assert statuses[0] == "ERROR" and statuses[1] == "ERROR"

    @pytest.mark.chaos
    def test_all_workers_dead_degrades_to_sequential(self, monkeypatch):
        """Last rung of the ladder: every worker lost, one in-process
        sequential solve still produces the verdict."""
        monkeypatch.setenv(CHAOS_ENV, "kill_worker=0|1@50")
        result = solve_portfolio(hard_cnf(), num_workers=2,
                                 base_config=kissat_like())
        assert result.result.status == "UNSAT"
        assert result.winner is not None
        assert result.winner.endswith("+seq-fallback")

    def test_all_cube_workers_dead_degrades_to_sequential(self,
                                                          monkeypatch):
        """Cube mode has the same last rung: the lost partition is
        replaced by one in-process solve of the unsplit formula."""
        monkeypatch.setenv(CHAOS_ENV, "kill_worker=0|1@50")
        result = solve_cube_and_conquer(hard_cnf(), cube_depth=1,
                                        num_workers=2)
        assert result.result.status == "UNSAT"
        assert result.winner is not None
        assert result.winner.endswith("+seq-fallback")

    def test_last_resort_crash_raises(self, monkeypatch):
        """Every worker crashes, the in-process last resort included: the
        run raises instead of reporting UNKNOWN."""
        def crashing_worker(index, cnf, config, cubes, time_limit,
                            max_conflicts, max_decisions, assumptions,
                            *args, **kwargs):
            return {"kind": "error", "index": index,
                    "error": "RuntimeError('boom')", "elapsed": 0.0}

        monkeypatch.setattr(portfolio_module, "_cube_worker",
                            crashing_worker)
        with pytest.raises(SolverError, match=r"\+seq-fallback: .*boom"):
            solve_portfolio(hard_cnf(), num_workers=2,
                            base_config=kissat_like())
        assert not multiprocessing.active_children()


@needs_fork
class TestForkRefusal:
    def test_refused_fork_sheds_that_worker(self, monkeypatch):
        """The host refuses the second fork of every race: that worker is
        reported SPAWN_FAILED, the survivor decides, and the backend sheds
        the refused worker from its next race."""
        real_fork = WorkerPool.fork

        def refusing_fork(pool):
            if len(pool.workers) == 1:
                raise OSError(errno.EAGAIN, "fork refused")
            return real_fork(pool)

        monkeypatch.setattr(WorkerPool, "fork", refusing_fork)
        tracer = Tracer()
        with use_tracer(tracer):
            result = solve_portfolio(hard_cnf(), num_workers=2,
                                     base_config=kissat_like())
            assert result.result.status == "UNSAT"
            assert result.workers[0].status == "UNSAT"
            assert result.workers[1].status == "SPAWN_FAILED"
            assert tracer.metrics.counter(
                "resilience.spawn_failures").value == 1

            backend = PortfolioBackend(num_workers=2)
            assert backend.solve(hard_cnf()).status == "UNSAT"
            assert backend.num_workers == 1
            assert tracer.metrics.counter("resilience.sheds").value == 1
        assert not multiprocessing.active_children()
