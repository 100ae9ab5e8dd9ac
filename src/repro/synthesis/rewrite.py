"""DAG-aware cut rewriting (the ``rewrite`` action).

For every AND node the engine enumerates its 4-feasible cuts, resynthesises
each cut function with ISOP + algebraic factoring (looked up by exact truth
table in the process-wide library :func:`~repro.synthesis.resynth.cut_program`,
in the spirit of ABC's pre-computed NPN library) and replaces the node
whenever the replacement adds fewer AND nodes than it frees.  Gain accounting
is DAG-aware: structures already present in the strash table are free, and
only the fanout-free part of the old cone counts as freed.
"""

from __future__ import annotations

from repro.aig.aig import AIG, lit_var
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import enumerate_cuts
from repro.synthesis.resynth import (
    ReplacementPass,
    build_within,
    cut_cone_gain,
    cut_program,
)


#: Cut size and priority-cut count of the 4-feasible cut enumeration.
CUT_SIZE = 4
MAX_CUTS = 8


def rewrite(aig: AIG) -> AIG:
    """Return a rewritten, functionally equivalent AIG."""
    pass_state = ReplacementPass(aig)
    aig = pass_state.aig  # private working copy; the input stays intact
    cuts = enumerate_cuts(aig, k=CUT_SIZE, max_cuts=MAX_CUTS)
    fanout_counts = aig.fanout_counts()

    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        resolved0 = pass_state.resolve(lit0)
        resolved1 = pass_state.resolve(lit1)
        fanins_changed = resolved0 != lit0 or resolved1 != lit1

        best_literal = None
        best_gain = 1
        for cut in cuts[var]:
            size = len(cut.leaves)  # 1 for the trivial cut (var,)
            if size < 2:
                continue
            # Skip cuts whose function degenerates to a single leaf/constant:
            # those are handled by constant propagation, not rewriting.
            if cut.table in (0, tt_mask(size)):
                continue
            # A cut wins when freed - added >= best_gain, so one freeing
            # less than best_gain cannot, and one may add freed - best_gain.
            freed = cut_cone_gain(aig, var, cut.leaves, fanout_counts)
            if freed < best_gain:
                continue
            built = build_within(aig, cut_program(cut.table, size),
                                 pass_state.resolve_leaves(cut.leaves),
                                 freed - best_gain)
            if built is not None:
                added, best_literal = built
                best_gain = freed - added

        if best_literal is not None and lit_var(best_literal) != var:
            pass_state.replace(var, best_literal)
        elif fanins_changed:
            pass_state.replace(var, aig.add_and(resolved0, resolved1))

    return pass_state.finalize()
