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

from repro.aig.aig import AIG
from repro.synthesis.cuts import enumerate_cuts
from repro.synthesis.resynth import (
    ReplacementPass,
    cut_replacement,
    replace_nodes,
)


#: Cut size and priority-cut count of the 4-feasible cut enumeration.
CUT_SIZE = 4
MAX_CUTS = 8


def rewrite(aig: AIG) -> AIG:
    """Return a rewritten, functionally equivalent AIG."""
    # The pass works on a copy with the same numbering, so these are its cuts.
    cuts = enumerate_cuts(aig, k=CUT_SIZE, max_cuts=MAX_CUTS)

    def find(copy: AIG, var: int, fanout_counts: list[int],
             pass_state: ReplacementPass) -> int | None:
        return cut_replacement(copy, var, fanout_counts, pass_state,
                               [(cut.leaves, cut.table) for cut in cuts[var]])

    return replace_nodes(aig, find)
