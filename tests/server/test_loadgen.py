"""Load generator: workload construction, reporting, end-to-end CLI."""

import json

from repro.server.jobs import parse_job
from repro.server.loadgen import (LoadReport, RequestOutcome, _percentile,
                                  build_workload, main)


class TestBuildWorkload:
    def test_deterministic_for_a_seed(self):
        assert build_workload(20, seed=3) == build_workload(20, seed=3)
        assert build_workload(20, seed=3) != build_workload(20, seed=4)

    def test_contains_duplicates_at_requested_fraction(self):
        workload = build_workload(60, seed=1, dup_fraction=0.5)
        payloads = [spec["payload"] for spec in workload]
        distinct = len(set(payloads))
        assert distinct < len(payloads)          # duplicates exist
        assert distinct > len(payloads) // 4     # but not everything

    def test_zero_dup_fraction_is_all_fresh(self):
        # Payload text can repeat across aig requests (the workload salts
        # them via config), so distinctness is judged by fingerprint —
        # the key the server dedups on.
        workload = build_workload(12, seed=2, dup_fraction=0.0)
        fingerprints = {parse_job(spec).fingerprint()
                        for spec in workload}
        assert len(fingerprints) == 12

    def test_every_spec_passes_admission_validation(self):
        for spec in build_workload(24, seed=5):
            parse_job(spec)  # raises BadRequest on any bad spec

    def test_mix_is_respected(self):
        only_cnf = build_workload(10, seed=1, mix=("cnf",),
                                  dup_fraction=0.0)
        assert all(spec["kind"] == "solve" and
                   spec["payload"].startswith("p cnf")
                   for spec in only_cnf)


class TestReport:
    def test_percentile_nearest_rank(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([5.0], 0.99) == 5.0
        values = [float(v) for v in range(1, 101)]
        # Nearest-rank on 100 values: round(0.5 * 99) = 50 -> value 51.
        assert _percentile(values, 0.50) == 51.0
        assert _percentile(values, 0.99) == 99.0

    def test_aggregates(self):
        report = LoadReport(outcomes=[
            RequestOutcome(kind="solve", ok=True, latency_s=0.010,
                           cached=True),
            RequestOutcome(kind="solve", ok=True, latency_s=0.030),
            RequestOutcome(kind="sweep", ok=False, retries=2,
                           error="boom"),
        ], wall_s=2.0)
        assert report.requests == 3
        assert report.ok == 2
        assert report.errors == 1
        assert report.dedup_hits == 1
        assert report.retries == 2
        assert report.rps == 1.0
        assert report.p50_ms == 10.0
        data = report.as_dict()
        assert data["ok"] == 2 and data["p99_ms"] == 30.0
        assert "2 ok" in report.summary()


def test_cli_end_to_end_spawned_server(tmp_path, capsys):
    """The satellite CI smoke in miniature: spawn, drive, report, exit 0."""
    out = tmp_path / "report.json"
    code = main(["--requests", "8", "--concurrency", "4", "--jobs", "2",
                 "--seed", "7", "--json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "8 requests: 8 ok, 0 errors" in printed
    report = json.loads(out.read_text())
    assert report["requests"] == 8
    assert report["ok"] == 8
    assert report["errors"] == 0
    assert report["rps"] > 0
