"""Reconvergence-driven cone refactoring (the ``refactor`` action).

Refactoring operates on larger cones than rewriting: for every node a single
reconvergence-driven cut of up to ``MAX_LEAVES`` leaves is computed, the cone
function is collapsed to a truth table, re-expressed as an irredundant SOP,
algebraically factored, and the factored structure replaces the cone when it
frees more AND nodes than it adds.  This mirrors ABC's ``refactor`` command
(Brayton's classic decomposition/factoring applied to AIG cones).
"""

from __future__ import annotations

from repro.aig.aig import AIG, lit_var
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import cone_truth_table, reconvergence_cut
from repro.synthesis.resynth import (
    ReplacementPass,
    build_within,
    cut_cone_gain,
    cut_program,
)


#: The cut size (the collapsed table has ``2**MAX_LEAVES`` bits) and the
#: fewest nodes a cone must free to be evaluated at all.
MAX_LEAVES = 10
MIN_CONE_SIZE = 3


def refactor(aig: AIG) -> AIG:
    """Return a refactored, functionally equivalent AIG."""
    pass_state = ReplacementPass(aig)
    aig = pass_state.aig  # private working copy; the input stays intact
    fanout_counts = aig.fanout_counts()

    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        resolved0 = pass_state.resolve(lit0)
        resolved1 = pass_state.resolve(lit1)
        fanins_changed = resolved0 != lit0 or resolved1 != lit1

        replacement = None
        leaves = reconvergence_cut(aig, var, max_leaves=MAX_LEAVES)
        if len(leaves) >= 2 and var not in leaves:
            freed = cut_cone_gain(aig, var, leaves, fanout_counts)
            if freed >= MIN_CONE_SIZE:
                nvars = len(leaves)
                table = cone_truth_table(aig, var, leaves) & tt_mask(nvars)
                if table not in (0, tt_mask(nvars)):
                    built = build_within(aig, cut_program(table, nvars),
                                         pass_state.resolve_leaves(leaves),
                                         freed - 1)
                    if built is not None:
                        replacement = built[1]

        if replacement is not None and lit_var(replacement) != var:
            pass_state.replace(var, replacement)
        elif fanins_changed:
            pass_state.replace(var, aig.add_and(resolved0, resolved1))

    return pass_state.finalize()
