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

from repro.aig.aig import AIG, lit_not
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import reconvergence_cut, window_tables
from repro.synthesis.resynth import ReplacementPass, cut_cone_gain, replace_nodes


#: Window cut size and the divisor cap per node.
MAX_LEAVES = 8
MAX_DIVISORS = 20


def resub(aig: AIG) -> AIG:
    """Return a resubstituted, functionally equivalent AIG."""
    return replace_nodes(aig, _find_resubstitution)


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
    found = _pair_resubstitution(divisors, tables, target, mask)
    if found is None:
        return None
    div_a, comp_a, div_b, comp_b, is_or = found  # a | b is !(!a & !b)
    literal = aig.add_and(divisor_literal(div_a, comp_a != is_or),
                          divisor_literal(div_b, comp_b != is_or))
    return lit_not(literal) if is_or else literal


def _pair_resubstitution(divisors: list[int], tables: dict[int, int],
                         target: int, mask: int
                         ) -> tuple[int, bool, int, bool, bool] | None:
    """Return the first ``(div_a, comp_a, div_b, comp_b, is_or)`` whose AND
    (or OR) of two divisor terms equals ``target``, in ``(div_a, div_b,
    comp_a, comp_b)`` order, AND before OR; None if there is none.

    An AND can equal the target only if both terms contain it, an OR only if
    both lie inside it, so each divisor keeps just the polarities that do; no
    term does both, as it would equal the target (a 0-resub).
    """
    polarities = []
    for divisor in divisors:
        options = []
        for complemented in (False, True):
            term = ~tables[divisor] & mask if complemented else tables[divisor]
            if target & ~term == 0:
                options.append((complemented, term, False))
            elif term & ~target == 0:
                options.append((complemented, term, True))
        if options:
            polarities.append((divisor, options))
    for (div_a, options_a), (div_b, options_b) in combinations(polarities, 2):
        for comp_a, term_a, or_a in options_a:
            for comp_b, term_b, or_b in options_b:
                if or_a == or_b and (
                        term_a | term_b if or_a else term_a & term_b) == target:
                    return div_a, comp_a, div_b, comp_b, or_a
    return None
