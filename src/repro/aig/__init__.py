"""And-Inverter Graph substrate.

The AIG is the central circuit representation of the framework: benchmark
generators produce AIGs, logic-synthesis operations transform AIGs, the LUT
mapper covers AIGs with k-input LUTs, and the Tseitin encoder converts AIGs
directly to CNF for the Baseline pipeline.
"""

# Eager on purpose: once lazy, an imported submodule would shadow its function.
from repro.aig.aig import (
    AIG,
    CONST0,
    CONST1,
    lit,
    lit_is_complemented,
    lit_not,
    lit_regular,
    lit_var,
)
from repro.aig.aiger import (
    load_aiger,
    read_aiger,
    read_aiger_binary,
    read_aiger_file,
    write_aiger,
    write_aiger_binary,
    write_aiger_file,
)
from repro.aig.simulate import evaluate, simulate
from repro.aig.stats import AigStats, balance_ratio, compute_stats
from repro.aig.sweep import SweepResult, SweepStats, fraig, sweep_aig

__all__ = [
    "AIG",
    "CONST0",
    "CONST1",
    "lit",
    "lit_var",
    "lit_not",
    "lit_regular",
    "lit_is_complemented",
    "read_aiger",
    "write_aiger",
    "read_aiger_file",
    "write_aiger_file",
    "load_aiger",
    "read_aiger_binary",
    "write_aiger_binary",
    "simulate",
    "evaluate",
    "AigStats",
    "compute_stats",
    "balance_ratio",
    "SweepResult",
    "SweepStats",
    "sweep_aig",
    "fraig",
]
