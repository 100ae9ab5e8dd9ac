"""End-to-end benchmark of the preprocessing flow and the solve server.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload fig4_suite --seed 1 --seconds 30 --trace 0

Workloads, metrics and their bounds are declared in ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and the
work ledger are written under ``.e2ebench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig4_suite", "lec_hard", "serve_mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Unwind on SIGTERM so that every server subprocess is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from common import emit

    traced = bool(args.trace)
    if args.workload == "serve_mixed":
        import serve

        tally, metrics, notes = serve.measure(args.seed, args.seconds, traced)
    else:
        import flow

        tally, metrics, notes = flow.measure(args.workload, args.seed,
                                             args.seconds, traced)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    result = {}
    for entry in declared:
        name = entry["name"]
        if name in metrics:
            value, unit = metrics[name]
        elif traced:
            # A layer this workload never reaches: its work is zero.
            value, unit = 0.0, entry["unit"]
        else:
            raise SystemExit(f"e2ebench: {args.workload} did not measure "
                             f"{name}")
        if unit != entry["unit"]:
            raise SystemExit(f"e2ebench: {name} measured in {unit}, "
                             f"declared in {entry['unit']}")
        result[name] = (float(value), unit)
    extra = sorted(set(metrics) - set(result))
    if extra:
        raise SystemExit(f"e2ebench: undeclared metrics {extra}")
    emit(tally, result, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
