#!/usr/bin/env python3
"""ATPG workflow: generate test patterns for stuck-at faults.

For every targeted stuck-at fault the script builds the fault-free vs.
faulty miter (the paper's ATPG instance construction), preprocesses it with
the framework and solves it:

* SAT  — the model, read back as miter input values, is a test pattern
  that detects the fault;
* UNSAT — the fault is undetectable (redundant logic).

Run with:  python examples/atpg_test_generation.py
"""

from repro import Preprocessor, kissat_like, solve_cnf
from repro.aig.simulate import evaluate
from repro.benchgen import build_miter, inject_stuck_at
from repro.benchgen.datapath import array_multiplier


def main() -> None:
    circuit = array_multiplier(4)
    print(f"Circuit under test: {circuit.name} "
          f"({circuit.num_pis} PIs, {circuit.num_ands} AND gates)\n")

    # Target a handful of faults spread across the circuit.
    and_nodes = list(circuit.and_vars())
    targets = [and_nodes[len(and_nodes) // 4],
               and_nodes[len(and_nodes) // 2],
               and_nodes[-1]]
    patterns = []
    for node in targets:
        for stuck_value in (0, 1):
            faulty = inject_stuck_at(circuit, node, stuck_value)
            miter = build_miter(circuit, faulty)
            prep = Preprocessor(use_branching_cost=True).preprocess(miter)
            result = solve_cnf(prep.cnf, config=kissat_like(), time_limit=60.0)
            fault_name = f"node{node}/stuck-at-{stuck_value}"
            if result.is_unsat:
                print(f"{fault_name:<22s} UNDETECTABLE (redundant fault)")
                continue
            assignment = prep.pi_assignment(result.model)
            good = evaluate(circuit, assignment)
            bad = evaluate(faulty, assignment)
            assert good != bad, "test pattern must distinguish good/faulty circuits"
            patterns.append((fault_name, assignment))
            bits = "".join("1" if bit else "0" for bit in assignment)
            print(f"{fault_name:<22s} test pattern {bits} "
                  f"(decisions: {result.stats.decisions})")

    print(f"\nGenerated {len(patterns)} test patterns.")


if __name__ == "__main__":
    main()
