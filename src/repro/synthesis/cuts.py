"""k-feasible cut enumeration with truth-table computation.

Cuts are the working unit of both the rewriting engine
(:mod:`repro.synthesis.rewrite`) and the LUT mapper
(:mod:`repro.mapping.mapper`).  A *cut* of node ``n`` is a set of nodes
(leaves) such that every path from a PI to ``n`` passes through a leaf; a cut
is *k-feasible* when it has at most ``k`` leaves.

The enumeration is the standard bottom-up merge: the cut set of an AND node
is built from the cross product of its fanins' cut sets, truncated to the
``max_cuts`` best cuts per node (priority cuts).  Each cut carries the truth
table of the node expressed over the cut leaves (leaf order = ascending
variable index), which is exactly what rewriting and cost-aware mapping need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.aig import AIG, lit_is_complemented, lit_var
from repro.logic.truthtable import tt_expand, tt_mask, tt_var

#: Truth table of a trivial (unit, identity) cut: variable 0 over 1 input.
_TRIVIAL_TABLE = tt_var(0, 1)


@dataclass(frozen=True)
class Cut:
    """A k-feasible cut: sorted leaf variables plus the root's truth table.

    ``signature`` is the bitmask with one bit per leaf variable
    (``OR of 1 << leaf``).  Subset tests (domination) and leaf-union sizing
    (merge feasibility) become single integer operations on signatures
    instead of ``set`` constructions; it is derived automatically and never
    needs to be passed explicitly.
    """

    leaves: tuple[int, ...]
    table: int
    signature: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.signature < 0:
            mask = 0
            for leaf in self.leaves:
                mask |= 1 << leaf
            object.__setattr__(self, "signature", mask)

    @property
    def size(self) -> int:
        return len(self.leaves)

    def is_trivial(self) -> bool:
        """True for the unit cut consisting of the root itself."""
        return len(self.leaves) == 1 and self.table == _TRIVIAL_TABLE


def _merge_leaves(leaves0: tuple[int, ...],
                  leaves1: tuple[int, ...]) -> tuple[tuple[int, ...],
                                                     list[int], list[int]]:
    """Merge two sorted leaf tuples; return (merged, positions0, positions1).

    ``positions0[i]`` is the index of ``leaves0[i]`` inside ``merged`` (and
    likewise for ``positions1``), which is exactly the expansion map
    :func:`repro.logic.truthtable.tt_expand` needs — computed during the
    merge itself instead of through a per-merge dictionary.
    """
    merged: list[int] = []
    positions0: list[int] = []
    positions1: list[int] = []
    index0 = index1 = 0
    length0 = len(leaves0)
    length1 = len(leaves1)
    while index0 < length0 and index1 < length1:
        leaf0 = leaves0[index0]
        leaf1 = leaves1[index1]
        if leaf0 == leaf1:
            positions0.append(len(merged))
            positions1.append(len(merged))
            merged.append(leaf0)
            index0 += 1
            index1 += 1
        elif leaf0 < leaf1:
            positions0.append(len(merged))
            merged.append(leaf0)
            index0 += 1
        else:
            positions1.append(len(merged))
            merged.append(leaf1)
            index1 += 1
    while index0 < length0:
        positions0.append(len(merged))
        merged.append(leaves0[index0])
        index0 += 1
    while index1 < length1:
        positions1.append(len(merged))
        merged.append(leaves1[index1])
        index1 += 1
    return tuple(merged), positions0, positions1


def _merge_cuts(cut0: Cut, cut1: Cut, comp0: bool, comp1: bool,
                signature: int) -> Cut:
    """Merge two fanin cuts into a cut of the AND node.

    ``signature`` is the precomputed union of the two cut signatures; the
    caller (the enumeration loop) has already used it to reject infeasible
    pairs, so feasibility is not re-checked here.
    """
    leaves, positions0, positions1 = _merge_leaves(cut0.leaves, cut1.leaves)
    nvars = len(leaves)
    table0 = tt_expand(cut0.table, positions0, len(cut0.leaves), nvars)
    table1 = tt_expand(cut1.table, positions1, len(cut1.leaves), nvars)
    mask = tt_mask(nvars)
    if comp0:
        table0 = ~table0 & mask
    if comp1:
        table1 = ~table1 & mask
    return Cut(leaves=leaves, table=table0 & table1 & mask,
               signature=signature)


def _filter_cuts(cuts: list[Cut], max_cuts: int) -> list[Cut]:
    """Remove dominated cuts and keep at most ``max_cuts`` by size priority."""
    cuts = sorted(cuts, key=lambda cut: (len(cut.leaves), cut.leaves))
    kept: list[Cut] = []
    for cut in cuts:
        cut_signature = cut.signature
        if any(existing.signature & cut_signature == existing.signature
               for existing in kept):
            continue
        kept.append(cut)
        if len(kept) >= max_cuts:
            break
    return kept


def enumerate_cuts(aig: AIG, k: int = 4, max_cuts: int = 8,
                   include_trivial: bool = True) -> dict[int, list[Cut]]:
    """Enumerate k-feasible cuts for every variable of ``aig``.

    Returns a mapping from variable index to its cut list.  Every node's list
    contains its trivial cut (unless ``include_trivial`` is False, in which
    case it is still used internally but every unit identity cut — the node's
    own trivial cut *and* any single-leaf identity cut of an equivalent
    node — is stripped from the result for AND nodes).  Constant nodes never
    appear as leaves because the strashed AIG has no AND node with a constant
    fanin.
    """
    trivial = {var: Cut(leaves=(var,), table=_TRIVIAL_TABLE)
               for var in aig.nodes()}
    all_cuts: dict[int, list[Cut]] = {}
    for pi_var in aig.pis:
        all_cuts[pi_var] = [trivial[pi_var]]
    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        var0, var1 = lit_var(lit0), lit_var(lit1)
        comp0, comp1 = lit_is_complemented(lit0), lit_is_complemented(lit1)
        cuts1 = all_cuts.get(var1, [trivial[var1]])
        merged: list[Cut] = []
        for cut0 in all_cuts.get(var0, [trivial[var0]]):
            signature0 = cut0.signature
            for cut1 in cuts1:
                # Feasibility pre-check on signatures: the union popcount is
                # the merged leaf count, so infeasible pairs are rejected
                # before any truth-table work happens.
                signature = signature0 | cut1.signature
                if signature.bit_count() > k:
                    continue
                merged.append(_merge_cuts(cut0, cut1, comp0, comp1, signature))
        merged = _filter_cuts(merged, max_cuts - 1)
        all_cuts[var] = [trivial[var]] + merged
    if not include_trivial:
        stripped = {}
        for var, cuts in all_cuts.items():
            if aig.is_and(var):
                stripped[var] = [cut for cut in cuts if not cut.is_trivial()]
            else:
                stripped[var] = cuts
        return stripped
    return all_cuts


def reconvergence_cut(aig: AIG, root: int, max_leaves: int = 10) -> tuple[int, ...]:
    """Compute a reconvergence-driven cut of ``root`` with at most ``max_leaves``.

    The heuristic repeatedly expands the leaf whose replacement by its fanins
    increases the leaf count the least (ties broken towards deeper leaves),
    exactly in the spirit of ABC's reconvergence-driven cut computation used
    by refactoring.  Returns the sorted tuple of leaf variables.
    """
    leaves = {root}
    while True:
        best_leaf = None
        best_increase = None
        for leaf in leaves:
            if not aig.is_and(leaf):
                continue
            lit0, lit1 = aig.fanins(leaf)
            fanin_vars = {lit_var(lit0), lit_var(lit1)}
            new_leaves = (leaves - {leaf}) | fanin_vars
            increase = len(new_leaves) - len(leaves)
            if len(new_leaves) > max_leaves:
                continue
            if best_increase is None or increase < best_increase:
                best_increase = increase
                best_leaf = leaf
        if best_leaf is None:
            break
        lit0, lit1 = aig.fanins(best_leaf)
        leaves.remove(best_leaf)
        leaves.add(lit_var(lit0))
        leaves.add(lit_var(lit1))
        if best_increase is not None and best_increase >= 0 and len(leaves) >= max_leaves:
            break
    return tuple(sorted(leaves))


def cone_truth_table(aig: AIG, root: int, leaves: tuple[int, ...]) -> int:
    """Compute the truth table of ``root`` over the given cut ``leaves``.

    Every path from a PI to ``root`` must pass through a leaf; leaves are
    treated as free variables ordered by their position in ``leaves``.
    """
    nvars = len(leaves)
    positions = {leaf: index for index, leaf in enumerate(leaves)}
    cache: dict[int, int] = {leaf: tt_var(positions[leaf], nvars) for leaf in leaves}
    mask = tt_mask(nvars)

    def table_of(var: int) -> int:
        if var in cache:
            return cache[var]
        lit0, lit1 = aig.fanins(var)
        table0 = table_of(lit_var(lit0))
        table1 = table_of(lit_var(lit1))
        if lit_is_complemented(lit0):
            table0 = ~table0 & mask
        if lit_is_complemented(lit1):
            table1 = ~table1 & mask
        result = table0 & table1 & mask
        cache[var] = result
        return result

    return table_of(root)


def cone_nodes(aig: AIG, root: int, leaves: tuple[int, ...]) -> list[int]:
    """Return the AND nodes strictly inside the cone of ``root`` above ``leaves``.

    The root is included, the leaves are not.  Nodes are returned in
    topological (ascending-variable) order.
    """
    leaf_set = set(leaves)
    visited: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in visited or var in leaf_set or not aig.is_and(var):
            continue
        visited.add(var)
        lit0, lit1 = aig.fanins(var)
        stack.append(lit_var(lit0))
        stack.append(lit_var(lit1))
    return sorted(visited)
