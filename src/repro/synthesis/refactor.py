"""Reconvergence-driven cone refactoring (the ``refactor`` action).

Refactoring operates on larger cones than rewriting: for every node a single
reconvergence-driven cut of up to ``MAX_LEAVES`` leaves is computed, the cone
function is collapsed to a truth table, re-expressed as an irredundant SOP,
algebraically factored, and the factored structure replaces the cone when it
frees more AND nodes than it adds.  This mirrors ABC's ``refactor`` command
(Brayton's classic decomposition/factoring applied to AIG cones).
"""

from __future__ import annotations

from repro.aig.aig import AIG
from repro.synthesis.cuts import reconvergence_cut
from repro.synthesis.resynth import (
    ReplacementPass,
    cut_replacement,
    replace_nodes,
)


#: The cut size (the collapsed table has ``2**MAX_LEAVES`` bits) and the
#: fewest nodes a cone must free to be evaluated at all.
MAX_LEAVES = 10
MIN_CONE_SIZE = 3


def refactor(aig: AIG) -> AIG:
    """Return a refactored, functionally equivalent AIG."""
    return replace_nodes(aig, _find_refactoring)


def _find_refactoring(aig: AIG, var: int, fanout_counts: list[int],
                      pass_state: ReplacementPass) -> int | None:
    """Return the factored cone of ``var``'s reconvergence cut, if it wins."""
    leaves = reconvergence_cut(aig, var, max_leaves=MAX_LEAVES)
    return cut_replacement(aig, var, fanout_counts, pass_state,
                           [(leaves, None)], floor=MIN_CONE_SIZE)
