"""Unit tests for the parallel portfolio / cube-and-conquer module."""

import multiprocessing

import pytest

from repro.benchgen.random_logic import pigeonhole_cnf, random_cnf
from repro.cnf.cnf import Cnf
from repro.errors import BackendError, SolverError
from repro.sat.backends import PortfolioBackend, get_backend, resolve_backend
from repro.sat.configs import SolverConfig, kissat_like
from repro.sat.portfolio import (
    cube_split_variables,
    diversified_configs,
    generate_cubes,
    solve_cube_and_conquer,
    solve_portfolio,
)
from repro.sat.solver import solve_cnf


# --------------------------------------------------------------------- #
# Diversification


def test_diversified_configs_deterministic_and_valid():
    first = diversified_configs(8, seed=3)
    second = diversified_configs(8, seed=3)
    assert first == second
    assert len(first) == 8
    assert len({config.name for config in first}) == 8
    assert len({config.seed for config in first}) == 8
    for config in first:
        # Construction re-runs __post_init__, so every jitter is in range.
        SolverConfig(**{field: getattr(config, field)
                        for field in SolverConfig.__dataclass_fields__})


def test_diversified_configs_different_seed_differs():
    assert diversified_configs(6, seed=0) != diversified_configs(6, seed=1)


def test_diversified_configs_base_anchors_worker_zero():
    base = kissat_like()
    configs = diversified_configs(4, base=base, seed=0)
    assert configs[0].var_decay == base.var_decay
    assert configs[0].restart_strategy == base.restart_strategy


def test_diversified_configs_rejects_zero_workers():
    with pytest.raises(SolverError):
        diversified_configs(0)


# --------------------------------------------------------------------- #
# Cube generation


def test_generate_cubes_covers_all_sign_combinations():
    cubes = generate_cubes([1, 2, 3])
    assert len(cubes) == 8
    assert len({tuple(cube) for cube in cubes}) == 8
    for cube in cubes:
        assert sorted(abs(literal) for literal in cube) == [1, 2, 3]


def test_generate_cubes_empty_split():
    assert generate_cubes([]) == [[]]


def test_cube_split_variables_prefers_frequent_vars():
    cnf = Cnf(4)
    for _ in range(5):
        cnf.add_clause([1, 2])
    cnf.add_clause([3, 4])
    assert cube_split_variables(cnf, 2) == [1, 2]


def test_cube_split_variables_skips_absent_vars():
    cnf = Cnf(10)
    cnf.add_clause([1, -2])
    assert set(cube_split_variables(cnf, 5)) == {1, 2}


# --------------------------------------------------------------------- #
# Portfolio racing


def test_portfolio_sat_matches_sequential_and_model_is_genuine():
    cnf = random_cnf(30, 100, seed=2, min_width=3, max_width=3)
    sequential = solve_cnf(cnf)
    report = solve_portfolio(cnf, num_workers=3, seed=5)
    assert report.status == sequential.status == "SAT"
    assert report.winner is not None
    assert cnf.evaluate(report.result.model)
    assert report.mode == "portfolio"
    assert len(report.workers) == 3
    assert not multiprocessing.active_children()


def test_portfolio_unsat():
    cnf = pigeonhole_cnf(4)
    report = solve_portfolio(cnf, num_workers=2)
    assert report.status == "UNSAT"
    assert report.result.core == []


def test_portfolio_single_worker_runs_inline():
    cnf = random_cnf(20, 60, seed=1)
    report = solve_portfolio(cnf, num_workers=1)
    assert report.status == solve_cnf(cnf).status
    assert len(report.workers) == 1
    assert report.workers[0].status in ("SAT", "UNSAT")


def test_portfolio_budget_exhaustion_reports_unknown():
    cnf = pigeonhole_cnf(6)
    report = solve_portfolio(cnf, num_workers=2, max_conflicts=3)
    assert report.status == "UNKNOWN"
    assert all(worker.status == "UNKNOWN" for worker in report.workers)
    # Aggregated stats cover all workers that reported.
    assert report.result.stats.conflicts > 0


def test_portfolio_with_assumptions_core():
    cnf = Cnf(3)
    cnf.add_clause([1, 2])
    report = solve_portfolio(cnf, num_workers=2, assumptions=[-1, -2])
    assert report.status == "UNSAT"
    assert set(report.result.core) <= {-1, -2}


def test_portfolio_explicit_configs_sets_worker_count():
    cnf = random_cnf(15, 40, seed=3)
    configs = [kissat_like(), SolverConfig(name="plain")]
    report = solve_portfolio(cnf, configs=configs)
    assert [worker.config_name for worker in report.workers] \
        == ["kissat_like", "plain"]


# --------------------------------------------------------------------- #
# Cube and conquer


def test_cube_and_conquer_sat_and_unsat_match_sequential():
    for seed in (0, 1, 2):
        cnf = random_cnf(25, 95, seed=seed, min_width=3, max_width=3)
        expected = solve_cnf(cnf).status
        report = solve_cube_and_conquer(cnf, cube_depth=2, num_workers=2)
        assert report.status == expected
        assert report.mode == "cube"
        assert report.num_cubes == 4
        if report.status == "SAT":
            assert cnf.evaluate(report.result.model)


def test_cube_and_conquer_unsat_aggregates_all_cubes():
    cnf = pigeonhole_cnf(4)
    report = solve_cube_and_conquer(cnf, cube_depth=3, num_workers=2)
    assert report.status == "UNSAT"
    solved = sum(worker.cubes_solved for worker in report.workers)
    # A decisive formula-level UNSAT may stop early; otherwise all cubes ran.
    assert 1 <= solved <= report.num_cubes
    assert not multiprocessing.active_children()


def test_cube_and_conquer_single_worker_inline():
    cnf = random_cnf(20, 70, seed=4, min_width=3, max_width=3)
    report = solve_cube_and_conquer(cnf, cube_depth=2, num_workers=1)
    assert report.status == solve_cnf(cnf).status


def test_cube_and_conquer_explicit_variables():
    cnf = random_cnf(20, 60, seed=5, min_width=3, max_width=3)
    report = solve_cube_and_conquer(cnf, cube_depth=3, num_workers=1,
                                    variables=[3, 7, 11])
    assert report.cube_variables == [3, 7, 11]
    assert report.status == solve_cnf(cnf).status


def test_cube_and_conquer_rejects_bad_arguments():
    cnf = random_cnf(10, 20, seed=0)
    with pytest.raises(SolverError):
        solve_cube_and_conquer(cnf, cube_depth=0)
    with pytest.raises(SolverError):
        solve_cube_and_conquer(cnf, cube_depth=99)
    with pytest.raises(SolverError):
        solve_cube_and_conquer(cnf, cube_depth=2, num_workers=0)
    with pytest.raises(SolverError):
        solve_cube_and_conquer(cnf, cube_depth=2, variables=[0])


def test_cube_and_conquer_budget_exhaustion_unknown():
    cnf = pigeonhole_cnf(7)
    report = solve_cube_and_conquer(cnf, cube_depth=2, num_workers=2,
                                    max_conflicts=1)
    assert report.status == "UNKNOWN"


# --------------------------------------------------------------------- #
# Backend integration


def test_portfolio_backend_registered_and_available():
    backend = get_backend("portfolio")
    assert isinstance(backend, PortfolioBackend)
    assert backend.available()


def test_portfolio_backend_solve_and_detailed():
    cnf = random_cnf(20, 60, seed=6, min_width=3, max_width=3)
    backend = PortfolioBackend(num_workers=2)
    result = backend.solve(cnf, config=kissat_like())
    assert result.status == solve_cnf(cnf).status
    backend.solve(cnf)
    detailed = backend.report
    assert detailed.mode == "portfolio"


def test_portfolio_solve_time_is_the_race_wall_clock():
    from repro.benchgen import multiplier_commutativity_miter
    from repro.core import run_pipeline

    backend = PortfolioBackend(num_workers=2)
    run = run_pipeline(multiplier_commutativity_miter(3), "Baseline",
                       config=kissat_like(), backend=backend)
    report = backend.report
    assert run.status == "UNSAT"
    assert run.solve_time == report.wall_time
    assert run.stats.solve_time == report.wall_time
    # The winner keeps its own, shorter solve time on its report.
    winner = next(worker for worker in report.workers
                  if worker.config_name == report.winner)
    assert 0 < winner.stats.solve_time < report.wall_time


def test_portfolio_backend_cube_mode():
    cnf = random_cnf(18, 55, seed=7, min_width=3, max_width=3)
    backend = PortfolioBackend(num_workers=2, cube_depth=2)
    backend.solve(cnf)
    detailed = backend.report
    assert detailed.mode == "cube"
    assert detailed.status == solve_cnf(cnf).status


def test_portfolio_backend_rejects_bad_options():
    with pytest.raises(BackendError):
        PortfolioBackend(num_workers=0)
    with pytest.raises(BackendError):
        PortfolioBackend(cube_depth=-1)
    with pytest.raises(BackendError):
        get_backend("internal", num_workers=2)
    with pytest.raises(BackendError):
        resolve_backend(PortfolioBackend(), num_workers=2)


def test_resolve_backend_builds_portfolio_with_kwargs():
    backend = resolve_backend("portfolio", num_workers=3, cube_depth=2)
    assert isinstance(backend, PortfolioBackend)
    assert backend.num_workers == 3
    assert backend.cube_depth == 2


def test_all_workers_crashing_raises_instead_of_unknown(monkeypatch):
    import repro.sat.portfolio as portfolio_module

    def crashing_worker(index, cnf, config, cubes, time_limit, max_conflicts,
                        max_decisions, assumptions, trace_path=None,
                        lemma_path=None, endpoint=None):
        return {"kind": "error", "index": index,
                "error": "RuntimeError('boom')", "elapsed": 0.0}

    monkeypatch.setattr(portfolio_module, "_cube_worker", crashing_worker)
    cnf = random_cnf(10, 30, seed=0)
    with pytest.raises(SolverError, match="every portfolio worker failed"):
        solve_portfolio(cnf, num_workers=1)


def test_get_backend_portfolio_rejects_binary():
    with pytest.raises(BackendError, match="solver-binary"):
        get_backend("portfolio", binary="/opt/kissat")


def test_cube_mode_respects_max_decisions_budget():
    cnf = pigeonhole_cnf(7)
    report = solve_cube_and_conquer(cnf, cube_depth=2, num_workers=2,
                                    max_decisions=1)
    assert report.status == "UNKNOWN"
