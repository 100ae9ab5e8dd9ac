"""Logic-synthesis operations on AIGs (the ABC substitute).

The four operations exposed here (`rewrite`, `refactor`, `balance`, `resub`)
form the action space of the RL agent (Sec. III-B3 of the paper).  Every
operation is a pure function ``AIG -> AIG`` that preserves the functional
behaviour of each primary output while restructuring the graph.
"""

# Eager on purpose: once lazy, an imported submodule would shadow its function.
from repro.synthesis.balance import balance
from repro.synthesis.cleanup import cleanup
from repro.synthesis.cuts import Cut, enumerate_cuts
from repro.synthesis.recipe import (
    OPERATIONS,
    apply_operation,
    apply_recipe,
    initial_recipe,
    operation_names,
)
from repro.synthesis.refactor import refactor
from repro.synthesis.resub import resub
from repro.synthesis.rewrite import rewrite

__all__ = [
    "Cut",
    "enumerate_cuts",
    "rewrite",
    "refactor",
    "balance",
    "resub",
    "cleanup",
    "OPERATIONS",
    "operation_names",
    "apply_operation",
    "apply_recipe",
    "initial_recipe",
]
