"""Perf-regression guard: ``python -m repro.perf.compare FRESH BASELINE``.

Diffs a freshly produced ``BENCH_perf.json`` against a committed baseline
and exits non-zero when any benchmark regressed beyond the allowed ratio.
CI runs this after the ``--quick`` suite, so a change that slows a hot path
by more than the threshold fails the build instead of silently landing.

Two guards keep the check meaningful on noisy, heterogeneous CI runners:

* benchmarks whose baseline median is below ``--min-median-s`` are skipped —
  sub-millisecond timings are dominated by scheduler noise;
* by default ratios are *normalised* by the median ratio across all shared
  benchmarks, so a uniformly slower (or faster) machine does not shift every
  benchmark past the threshold — only a benchmark that regressed *relative
  to the rest of the suite* trips the gate.  ``--no-normalize`` restores raw
  ratios for same-machine comparisons.  Normalisation is deliberately
  bounded so it cannot swallow real regressions: it only engages when at
  least four benchmarks survive the floor (with fewer samples a median is
  dominated by the regressions themselves), and the factor is clamped to
  4x — hardware plausibly differs by that much, a suite-wide 10x slowdown
  does not, so the latter still fails the gate.

Counter mismatches (the suite is seeded, so counters are bit-for-bit
reproducible for identical source) are reported as warnings, or as failures
under ``--strict-counters``.  So are baseline benchmarks and counters that
the fresh run lacks: a change that drops one must not pass unseen.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Normalisation only engages with at least this many shared benchmarks —
#: below that, the median ratio is dominated by the regressions themselves
#: (with 2 samples a single regression of any magnitude normalises under
#: every threshold).
MIN_NORMALIZE_SAMPLES = 4

#: The machine-speed factor is clamped here: CI runners plausibly differ
#: from the baseline machine by up to ~4x, a genuine suite-wide slowdown by
#: more — so a broad 10x regression still trips the gate.
MAX_NORMALIZE_SCALE = 4.0


def load_payload(path: str | Path) -> dict:
    """Read one ``BENCH_perf.json`` document."""
    return json.loads(Path(path).read_text())


def compare_payloads(fresh: dict, baseline: dict, max_ratio: float = 2.0,
                     min_median_s: float = 0.002,
                     normalize: bool = True) -> dict[str, object]:
    """Compare two perf payloads; return the verdict and its evidence.

    The result dictionary has ``rows`` (one per shared benchmark: name,
    medians, raw and normalised ratio, regression flag), ``regressions``
    (names over the threshold), ``counter_mismatches``, ``missing`` (baseline
    benchmarks and ``name.counter`` keys that ``fresh`` lacks) and ``scale``
    (the median raw ratio used for normalisation; 1.0 when disabled).
    """
    fresh_benchmarks = fresh.get("benchmarks", {})
    baseline_benchmarks = baseline.get("benchmarks", {})
    shared = sorted(set(fresh_benchmarks) & set(baseline_benchmarks))

    raw_ratios: dict[str, float] = {}
    skipped: list[str] = []
    for name in shared:
        base_median = float(baseline_benchmarks[name].get("median_s", 0.0))
        new_median = float(fresh_benchmarks[name].get("median_s", 0.0))
        if base_median < min_median_s:
            skipped.append(name)
            continue
        raw_ratios[name] = new_median / base_median

    scale = 1.0
    if normalize and len(raw_ratios) >= MIN_NORMALIZE_SAMPLES:
        scale = statistics.median(raw_ratios.values())
        if scale <= 0:
            scale = 1.0
        scale = min(max(scale, 1.0 / MAX_NORMALIZE_SCALE),
                    MAX_NORMALIZE_SCALE)

    rows = []
    regressions = []
    for name, raw in sorted(raw_ratios.items()):
        normalised = raw / scale
        regressed = normalised > max_ratio
        if regressed:
            regressions.append(name)
        rows.append({
            "name": name,
            "baseline_median_s": float(
                baseline_benchmarks[name]["median_s"]),
            "fresh_median_s": float(fresh_benchmarks[name]["median_s"]),
            "ratio": round(raw, 4),
            "normalized_ratio": round(normalised, 4),
            "regressed": regressed,
        })

    counter_mismatches = []
    missing = sorted(set(baseline_benchmarks) - set(fresh_benchmarks))
    for name in shared:
        base_counters = baseline_benchmarks[name].get("counters") or {}
        new_counters = fresh_benchmarks[name].get("counters") or {}
        missing += [f"{name}.{key}" for key in sorted(base_counters)
                    if key not in new_counters]
        for key in sorted(set(base_counters) & set(new_counters)):
            if key.endswith(("_ms", "speedup")) or key in ("overhead", "rps"):
                continue  # timing-derived counters are not reproducible
            if float(base_counters[key]) != float(new_counters[key]):
                counter_mismatches.append(
                    f"{name}.{key}: {base_counters[key]} -> "
                    f"{new_counters[key]}")

    return {
        "shared": shared,
        "skipped": skipped,
        "scale": scale,
        "rows": rows,
        "regressions": regressions,
        "counter_mismatches": counter_mismatches,
        "missing": missing,
    }


def format_report(verdict: dict[str, object], max_ratio: float) -> str:
    """Render the comparison as a fixed-width table plus verdict lines."""
    lines = [f"{'benchmark':<22} {'baseline':>10} {'fresh':>10} "
             f"{'ratio':>7} {'norm':>7}"]
    lines.append("-" * len(lines[0]))
    for row in verdict["rows"]:
        marker = "  << REGRESSION" if row["regressed"] else ""
        lines.append(
            f"{row['name']:<22} {row['baseline_median_s'] * 1000:>8.1f}ms "
            f"{row['fresh_median_s'] * 1000:>8.1f}ms "
            f"{row['ratio']:>7.2f} {row['normalized_ratio']:>7.2f}{marker}")
    if verdict["skipped"]:
        lines.append(f"skipped (baseline median below floor): "
                     f"{', '.join(verdict['skipped'])}")
    lines.append(f"machine-speed normalisation factor: "
                 f"{verdict['scale']:.3f}")
    if verdict["regressions"]:
        lines.append(f"FAIL: {len(verdict['regressions'])} benchmark(s) "
                     f"regressed beyond {max_ratio:.1f}x: "
                     f"{', '.join(verdict['regressions'])}")
    else:
        lines.append(f"OK: no benchmark regressed beyond {max_ratio:.1f}x")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.compare",
        description="Diff a fresh BENCH_perf.json against a committed "
                    "baseline and fail on timing regressions.",
    )
    parser.add_argument("fresh", help="freshly generated BENCH_perf.json")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when a benchmark's (normalised) median "
                             "ratio exceeds this (default: %(default)s)")
    parser.add_argument("--min-median-s", type=float, default=0.002,
                        help="ignore benchmarks whose baseline median is "
                             "below this many seconds (default: %(default)s)")
    parser.add_argument("--no-normalize", action="store_true",
                        help="compare raw ratios instead of normalising by "
                             "the suite-wide median ratio")
    parser.add_argument("--strict-counters", action="store_true",
                        help="also fail when deterministic counters differ "
                             "from the baseline, or when a baseline "
                             "benchmark or counter is missing")
    args = parser.parse_args(argv)

    try:
        fresh = load_payload(args.fresh)
        baseline = load_payload(args.baseline)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if fresh.get("mode") != baseline.get("mode"):
        print(f"error: mode mismatch — fresh is {fresh.get('mode')!r}, "
              f"baseline is {baseline.get('mode')!r}; regenerate the "
              f"baseline with the same --quick setting", file=sys.stderr)
        return 2

    verdict = compare_payloads(fresh, baseline, max_ratio=args.max_ratio,
                               min_median_s=args.min_median_s,
                               normalize=not args.no_normalize)
    if not verdict["shared"]:
        print("error: the two files share no benchmarks", file=sys.stderr)
        return 2
    print(format_report(verdict, args.max_ratio))
    problems = ([f"counter mismatch: {item}"
                 for item in verdict["counter_mismatches"]]
                + [f"missing from the fresh run: {item}"
                   for item in verdict["missing"]])
    for problem in problems:
        print(problem, file=sys.stderr if args.strict_counters else sys.stdout)
    if verdict["regressions"]:
        return 1
    if args.strict_counters and problems:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
