"""Window-based Boolean resubstitution (the ``resub`` action).

For every AND node the engine builds a small window (a reconvergence-driven
cut plus all cone nodes above it), computes exact truth tables of every
window node over the window leaves, and tries to re-express the node using
existing window nodes ("divisors"):

* **0-resub** — the node equals an existing divisor (possibly complemented):
  replace it with that divisor, freeing its whole fanout-free cone.
* **1-resub** — the node equals an AND/OR of two divisors (any polarity):
  replace it when the freed cone is larger than the single node added.

All checks are exact within the window (truth tables over the window leaves),
so the transformation is always functionally safe.
"""

from __future__ import annotations

from itertools import combinations, islice

from repro.aig.aig import AIG, lit_not, lit_var
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import reconvergence_cut, window_tables
from repro.synthesis.resynth import ReplacementPass, cut_cone_gain


#: Window cut size and the divisor cap per node.
MAX_LEAVES = 8
MAX_DIVISORS = 20


def resub(aig: AIG) -> AIG:
    """Return a resubstituted, functionally equivalent AIG."""
    pass_state = ReplacementPass(aig)
    aig = pass_state.aig  # private working copy; the input stays intact
    fanout_counts = aig.fanout_counts()

    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        resolved0 = pass_state.resolve(lit0)
        resolved1 = pass_state.resolve(lit1)
        fanins_changed = resolved0 != lit0 or resolved1 != lit1

        replacement = _find_resubstitution(aig, var, fanout_counts,
                                           pass_state)

        if replacement is not None and lit_var(replacement) != var:
            pass_state.replace(var, replacement)
        elif fanins_changed:
            pass_state.replace(var, aig.add_and(resolved0, resolved1))

    return pass_state.finalize()


def _find_resubstitution(aig: AIG, var: int, fanout_counts: list[int],
                         pass_state: ReplacementPass) -> int | None:
    """Return a replacement literal for ``var`` or None when nothing is found."""
    leaves = reconvergence_cut(aig, var, max_leaves=MAX_LEAVES)
    if len(leaves) < 2 or var in leaves:
        return None
    freed = cut_cone_gain(aig, var, leaves, fanout_counts)
    if freed < 1:
        return None
    nvars = len(leaves)
    mask = tt_mask(nvars)
    tables = window_tables(aig, var, leaves)
    target = tables[var]

    # Divisors: the leaves, then the cone nodes other than ``var`` that have
    # more than one fanout (listed after the leaves, in ascending order).
    # Reusing a single-fanout cone node may keep alive a node that ``freed``
    # counts as deleted, so those are skipped.
    divisors: list[int] = list(leaves)
    for node in islice(tables, nvars, None):
        if node == var:
            continue
        if fanout_counts[node] > 1:
            divisors.append(node)
        if len(divisors) >= MAX_DIVISORS:
            break

    def divisor_literal(divisor: int, complemented: bool) -> int:
        literal = pass_state.resolve(divisor * 2)
        return lit_not(literal) if complemented else literal

    # 0-resub: the node equals an existing divisor (up to complement).
    complement = ~target & mask
    for divisor in divisors:
        if tables[divisor] == target:
            return divisor_literal(divisor, False)
        if tables[divisor] == complement:
            return divisor_literal(divisor, True)

    if freed < 2:
        return None

    # 1-resub: the node equals AND/OR of two divisors in some polarity.
    complements = {divisor: ~tables[divisor] & mask for divisor in divisors}
    for div_a, div_b in combinations(divisors, 2):
        for comp_a in (False, True):
            term_a = complements[div_a] if comp_a else tables[div_a]
            for comp_b in (False, True):
                term_b = complements[div_b] if comp_b else tables[div_b]
                if (term_a & term_b) == target:
                    lit_a = divisor_literal(div_a, comp_a)
                    lit_b = divisor_literal(div_b, comp_b)
                    return aig.add_and(lit_a, lit_b)
                if (term_a | term_b) == target:
                    lit_a = divisor_literal(div_a, comp_a)
                    lit_b = divisor_literal(div_b, comp_b)
                    return lit_not(aig.add_and(lit_not(lit_a), lit_not(lit_b)))
    return None
