"""Tests for the sweep/incremental benchmarks, vs_previous deltas and the
perf-regression compare tool."""

import json

from repro.perf import default_suite, run_benchmark
from repro.perf.cli import SCHEMA_VERSION, results_payload
from repro.perf.compare import compare_payloads, main as compare_main
from repro.perf.bench import BenchResult


def _benchmark(name, quick=True):
    suite = {b.name: b for b in default_suite(quick=quick)}
    return suite[name]


class TestNewBenchmarks:
    def test_suite_contains_the_new_benchmarks(self):
        names = {b.name for b in default_suite()}
        assert {"sweep_lec", "sweep_small", "solver_incremental"} <= names

    def test_sweep_lec_collapses_and_solves_unsat(self):
        result = run_benchmark(_benchmark("sweep_lec"), repeats=1)
        assert result.counters["unsat"] == 1.0
        assert result.counters["ands_after"] < result.counters["ands_before"]
        assert result.counters["merges"] > 0
        assert result.counters["sat_calls"] > 0   # proved, not simulated

    def test_sweep_lec_miter_is_too_wide_to_simulate_in_both_modes(self):
        for quick in (True, False):
            miter = {b.name: b for b in default_suite(quick)}[
                "sweep_lec"].setup()
            assert 2 ** miter.num_pis > 2048   # the default pattern count

    def test_sweep_small_needs_no_sat(self):
        result = run_benchmark(_benchmark("sweep_small"), repeats=1)
        assert result.counters["circuits"] == 16
        assert result.counters["sat_calls"] == 0
        assert result.counters["merges"] > 0
        assert result.counters["ands_after"] < result.counters["ands_before"]

    def test_solver_incremental_agrees_and_speeds_up(self):
        result = run_benchmark(_benchmark("solver_incremental"), repeats=1)
        assert result.counters["agree"] == result.counters["queries"]
        assert result.counters["incremental_ms"] > 0
        assert result.counters["oneshot_ms"] > 0
        # No timing threshold here (CI noise); the acceptance-level >=2x
        # claim is recorded in the committed BENCH_perf.json counters.
        assert result.counters["speedup"] > 1.0

    def test_portfolio_sharing_shares_and_proves(self):
        result = run_benchmark(_benchmark("portfolio_sharing"), repeats=1)
        # The last instance is the UNSAT miter raced with DRAT logging;
        # its merged proof must pass the backward checker.
        assert result.counters["proof_valid"] == 1.0
        assert result.counters["sat"] == result.counters["instances"] - 1
        assert result.counters["exported"] > 0
        assert result.counters["imported"] > 0
        # Timing claims (median >= the racing baseline, super-linear
        # unsat_speedup) live in the committed BENCH_perf.json counters.
        assert result.counters["speedup"] > 0


def _payload(medians, mode="quick", counters=None):
    results = [
        BenchResult(name=name, category="solver", median_s=median,
                    min_s=median, repeats=1,
                    counters=(counters or {}).get(name, {"conflicts": 1.0}))
        for name, median in medians.items()
    ]
    return results_payload(results, mode=mode, repeats=1)


class TestVsPrevious:
    def test_first_run_has_null_deltas(self):
        payload = _payload({"a": 0.1})
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["benchmarks"]["a"]["vs_previous"] is None

    def test_deltas_against_previous_run(self):
        previous = _payload({"a": 0.1, "gone": 0.3})
        results = [BenchResult(name="a", category="solver", median_s=0.05,
                               min_s=0.05, repeats=1,
                               counters={"conflicts": 4.0, "new": 7.0})]
        payload = results_payload(results, mode="quick", repeats=1,
                                  previous=previous)
        delta = payload["benchmarks"]["a"]["vs_previous"]
        assert delta["mode_match"] is True
        assert delta["median_ratio"] == 0.5
        assert delta["counters_delta"] == {"conflicts": 3.0}

    def test_cross_mode_delta_is_flagged(self):
        previous = _payload({"a": 0.1}, mode="full")
        payload = _payload({"a": 0.1})
        results = [BenchResult(name="a", category="solver", median_s=0.1,
                               min_s=0.1, repeats=1, counters={})]
        payload = results_payload(results, mode="quick", repeats=1,
                                  previous=previous)
        assert payload["benchmarks"]["a"]["vs_previous"]["mode_match"] is False


class TestComparePayloads:
    def test_no_regression(self):
        baseline = _payload({"a": 0.1, "b": 0.2})
        fresh = _payload({"a": 0.11, "b": 0.19})
        verdict = compare_payloads(fresh, baseline)
        assert verdict["regressions"] == []

    def test_detects_single_benchmark_regression(self):
        baseline = _payload({"a": 0.1, "b": 0.2, "c": 0.15})
        fresh = _payload({"a": 0.5, "b": 0.2, "c": 0.15})
        verdict = compare_payloads(fresh, baseline)
        assert verdict["regressions"] == ["a"]

    def test_normalisation_forgives_uniformly_slow_machines(self):
        baseline = _payload({"a": 0.1, "b": 0.2, "c": 0.15, "d": 0.25})
        # Everything 3x slower (a slower CI runner): no *relative* regression.
        fresh = _payload({"a": 0.3, "b": 0.6, "c": 0.45, "d": 0.75})
        verdict = compare_payloads(fresh, baseline, normalize=True)
        assert verdict["regressions"] == []
        raw = compare_payloads(fresh, baseline, normalize=False)
        assert set(raw["regressions"]) == {"a", "b", "c", "d"}

    def test_normalisation_cannot_swallow_a_broad_real_regression(self):
        baseline = _payload({"a": 0.1, "b": 0.2, "c": 0.15, "d": 0.25,
                             "e": 0.3})
        # A suite-wide 10x slowdown (e.g. the shared CDCL hot path
        # regressed): the clamp keeps the gate closed.
        fresh = _payload({name: median * 10 for name, median
                          in (("a", 0.1), ("b", 0.2), ("c", 0.15),
                              ("d", 0.25), ("e", 0.3))})
        verdict = compare_payloads(fresh, baseline, normalize=True)
        assert set(verdict["regressions"]) == {"a", "b", "c", "d", "e"}

    def test_normalisation_needs_enough_samples(self):
        # With only two shared benchmarks a single regression would shift
        # the median under any threshold; raw ratios must apply instead.
        baseline = _payload({"a": 0.1, "b": 0.2})
        fresh = _payload({"a": 0.9, "b": 0.2})
        verdict = compare_payloads(fresh, baseline, normalize=True)
        assert verdict["regressions"] == ["a"]
        assert verdict["scale"] == 1.0

    def test_sub_floor_benchmarks_are_skipped(self):
        baseline = _payload({"tiny": 0.0001, "big": 0.2})
        fresh = _payload({"tiny": 0.01, "big": 0.2})
        verdict = compare_payloads(fresh, baseline)
        assert "tiny" in verdict["skipped"]
        assert verdict["regressions"] == []

    def test_counter_mismatches_are_reported(self):
        baseline = _payload({"a": 0.1},
                            counters={"a": {"conflicts": 5.0}})
        fresh = _payload({"a": 0.1},
                         counters={"a": {"conflicts": 9.0}})
        verdict = compare_payloads(fresh, baseline)
        assert verdict["counter_mismatches"] == ["a.conflicts: 5.0 -> 9.0"]

    def test_timing_derived_counters_are_not_compared(self):
        timings = {"cube_ms": 1.0, "speedup": 1.2, "unsat_speedup": 0.8,
                   "overhead": 1.02, "rps": 395.0}
        baseline = _payload({"a": 0.1},
                            counters={"a": {**timings, "conflicts": 5.0}})
        fresh = _payload({"a": 0.1}, counters={"a": {
            **{key: value * 2 for key, value in timings.items()},
            "conflicts": 5.0}})
        verdict = compare_payloads(fresh, baseline)
        assert verdict["counter_mismatches"] == []


class TestCompareCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_ok_exit_code(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json",
                               _payload({"a": 0.1, "b": 0.2}))
        fresh = self._write(tmp_path, "fresh.json",
                            _payload({"a": 0.1, "b": 0.2}))
        assert compare_main([fresh, baseline]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exit_code(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json",
                               _payload({"a": 0.1, "b": 0.2, "c": 0.15}))
        fresh = self._write(tmp_path, "fresh.json",
                            _payload({"a": 0.9, "b": 0.2, "c": 0.15}))
        assert compare_main([fresh, baseline]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_mode_mismatch_exit_code(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json",
                               _payload({"a": 0.1}, mode="full"))
        fresh = self._write(tmp_path, "fresh.json", _payload({"a": 0.1}))
        assert compare_main([fresh, baseline]) == 2
        assert "mode mismatch" in capsys.readouterr().err

    def test_strict_counters(self, tmp_path):
        baseline = self._write(
            tmp_path, "base.json",
            _payload({"a": 0.1}, counters={"a": {"conflicts": 5.0}}))
        fresh = self._write(
            tmp_path, "fresh.json",
            _payload({"a": 0.1}, counters={"a": {"conflicts": 6.0}}))
        assert compare_main([fresh, baseline]) == 0
        assert compare_main([fresh, baseline, "--strict-counters"]) == 1
