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
from functools import cache
from operator import itemgetter

from repro.aig.aig import AIG
from repro.errors import AigError
from repro.logic.truthtable import tt_expand, tt_mask, tt_var

#: Truth table of a trivial (unit, identity) cut: variable 0 over 1 input.
_TRIVIAL_TABLE = tt_var(0, 1)


@dataclass(slots=True, unsafe_hash=True)
class Cut:
    """A k-feasible cut: sorted leaf variables plus the root's truth table.

    ``signature`` is the bitmask with one bit per leaf variable
    (``OR of 1 << leaf``).  Subset tests (domination) and leaf-union sizing
    (merge feasibility) become single integer operations on signatures
    instead of ``set`` constructions; it is derived automatically and never
    needs to be passed explicitly.

    Cuts are values shared by many lists (equality and hash are on
    ``(leaves, table)``); no field is assigned after construction.  It is not
    frozen because a frozen one takes 3x longer to build, once per kept cut.
    """

    leaves: tuple[int, ...]
    table: int
    signature: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.signature < 0:
            mask = 0
            for leaf in self.leaves:
                mask |= 1 << leaf
            self.signature = mask

    @property
    def size(self) -> int:
        return len(self.leaves)

    def is_trivial(self) -> bool:
        """True for the unit cut consisting of the root itself."""
        return len(self.leaves) == 1 and self.table == _TRIVIAL_TABLE


#: Largest merged cut whose fanin tables are expanded by table lookup.
_LOOKUP_LEAVES = 4


@cache
def _expansion(positions: tuple[int, ...], nvars: int) -> tuple[int, ...]:
    """The lookup row expanding a table over ``len(positions)`` inputs.

    Entry ``t`` is ``tt_expand(t, positions, len(positions), nvars)``.  Only
    fanin cuts of at most 3 leaves are looked up (one with as many leaves as
    the merged cut keeps its table), so a row has at most 256 entries, and
    with ``nvars <= 4`` there are at most 22 rows.
    """
    old_nvars = len(positions)
    return tuple(tt_expand(table, positions, old_nvars, nvars)
                 for table in range(1 << (1 << old_nvars)))


def _expand(cut: Cut, leaves: tuple[int, ...]) -> int:
    """The table of ``cut`` over ``leaves``, a superset of its own leaves.

    A cut of more than :data:`_LOOKUP_LEAVES` leaves goes through
    :func:`tt_expand`, a smaller one through one :func:`_expansion` lookup.
    """
    nvars = len(leaves)
    if len(cut.leaves) == nvars:
        return cut.table
    positions = tuple(map(leaves.index, cut.leaves))
    if nvars <= _LOOKUP_LEAVES:
        return _expansion(positions, nvars)[cut.table]
    return tt_expand(cut.table, positions, len(cut.leaves), nvars)


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

    An AND node's list is its trivial cut followed by its priority cuts: the
    feasible merges of one cut per fanin, stably sorted by (size, leaves),
    minus each merge whose leaves contain those of an earlier kept one, cut
    off after ``max_cuts - 1`` (but at least one).  Only a kept merge gets a
    truth table.
    """
    fanin_array = aig.fanin_array
    by_priority = itemgetter(0, 1)
    all_cuts: dict[int, list[Cut]] = {}
    for var in aig.nodes():
        pair = fanin_array[var]
        trivial = Cut((var,), _TRIVIAL_TABLE, 1 << var)
        if pair is None:
            all_cuts[var] = [trivial]
            continue
        lit0, lit1 = pair
        comp0 = lit0 & 1
        comp1 = lit1 & 1
        cuts1 = all_cuts[lit1 >> 1]
        merged = []
        for cut0 in all_cuts[lit0 >> 1]:
            signature0 = cut0.signature
            for cut1 in cuts1:
                # The union popcount is the merged leaf count, so infeasible
                # pairs are rejected before any leaf or table work.
                signature = signature0 | cut1.signature
                size = signature.bit_count()
                if size > k:
                    continue
                if signature == signature0:
                    leaves = cut0.leaves
                elif signature == cut1.signature:
                    leaves = cut1.leaves
                else:
                    leaves = tuple(sorted({*cut0.leaves, *cut1.leaves}))
                merged.append((size, leaves, signature, cut0, cut1))
        merged.sort(key=by_priority)
        kept = [trivial]
        kept_signatures: list[int] = []
        for size, leaves, signature, cut0, cut1 in merged:
            for kept_signature in kept_signatures:
                if kept_signature & signature == kept_signature:
                    break
            else:
                table0 = _expand(cut0, leaves)
                table1 = _expand(cut1, leaves)
                # Tables are masked: only a double complement needs the mask.
                if comp0:
                    table = (~(table0 | table1) & tt_mask(size) if comp1
                             else table1 & ~table0)
                else:
                    table = table0 & ~table1 if comp1 else table0 & table1
                kept.append(Cut(leaves, table, signature))
                kept_signatures.append(signature)
                if len(kept_signatures) >= max_cuts - 1:
                    break
        all_cuts[var] = kept
    if not include_trivial:
        for var, cuts in all_cuts.items():
            if fanin_array[var] is not None:
                all_cuts[var] = [cut for cut in cuts if not cut.is_trivial()]
    return all_cuts


def reconvergence_cut(aig: AIG, root: int, max_leaves: int = 10) -> tuple[int, ...]:
    """Compute a reconvergence-driven cut of ``root`` with at most ``max_leaves``.

    The heuristic repeatedly expands the leaf whose replacement by its fanins
    increases the leaf count the least, exactly in the spirit of ABC's
    reconvergence-driven cut computation used by refactoring.  A leaf's
    increase is the number of its fanins that are not leaves yet, minus one
    (an AND node's two fanins are distinct variables, neither of them the
    node itself); ties go to the first such leaf in the iteration order of
    the leaf set.  Returns the sorted tuple of leaf variables.
    """
    fanin_array = aig.fanin_array
    leaves = {root}
    while True:
        best_pair = None
        best_increase = max_leaves - len(leaves) + 1
        for leaf in leaves:
            pair = fanin_array[leaf]
            if pair is None:
                continue
            increase = ((pair[0] >> 1) not in leaves) + ((pair[1] >> 1) not in leaves) - 1
            if increase < best_increase:
                best_increase = increase
                best_leaf = leaf
                best_pair = pair
                if increase < 0:
                    break  # nothing can beat -1
        if best_pair is None:
            break
        leaves.remove(best_leaf)
        leaves.add(best_pair[0] >> 1)
        leaves.add(best_pair[1] >> 1)
        if best_increase >= 0 and len(leaves) >= max_leaves:
            break
    return tuple(sorted(leaves))


def window_tables(aig: AIG, root: int, leaves: tuple[int, ...]) -> dict[int, int]:
    """Return the truth table over ``leaves`` of every node in ``root``'s window.

    The window is the leaves plus the AND nodes of the cone of ``root``
    above them, ``root`` included.  Leaves are free variables ordered by
    their position in ``leaves``; every path from a PI to ``root`` must pass
    through a leaf.  The dict lists the leaves first, in the given order,
    then the cone nodes in ascending (topological) order.
    """
    fanin_array = aig.fanin_array
    nvars = len(leaves)
    tables = {leaf: tt_var(position, nvars) for position, leaf in enumerate(leaves)}
    cone: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in tables or var in cone:
            continue
        pair = fanin_array[var]
        if pair is None:
            raise AigError(f"leaves {leaves} do not cut the cone of {root}: "
                           f"variable {var} is not an AND node")
        cone.add(var)
        stack.append(pair[0] >> 1)
        stack.append(pair[1] >> 1)
    mask = tt_mask(nvars)
    for var in sorted(cone):
        lit0, lit1 = fanin_array[var]
        table0 = tables[lit0 >> 1]
        table1 = tables[lit1 >> 1]
        # Both tables are masked, so only a double complement needs the mask.
        if lit0 & 1:
            tables[var] = ~(table0 | table1) & mask if lit1 & 1 else table1 & ~table0
        else:
            tables[var] = table0 & ~table1 if lit1 & 1 else table0 & table1
    return tables


def cone_truth_table(aig: AIG, root: int, leaves: tuple[int, ...]) -> int:
    """Compute the truth table of ``root`` over the given cut ``leaves``.

    Every path from a PI to ``root`` must pass through a leaf; leaves are
    treated as free variables ordered by their position in ``leaves``.
    """
    return window_tables(aig, root, leaves)[root]


def cone_nodes(aig: AIG, root: int, leaves: tuple[int, ...]) -> list[int]:
    """Return the AND nodes strictly inside the cone of ``root`` above ``leaves``.

    The root is included, the leaves are not.  Nodes are returned in
    topological (ascending-variable) order.
    """
    fanin_array = aig.fanin_array
    leaf_set = set(leaves)
    visited: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in visited or var in leaf_set:
            continue
        pair = fanin_array[var]
        if pair is None:
            continue
        visited.add(var)
        stack.append(pair[0] >> 1)
        stack.append(pair[1] >> 1)
    return sorted(visited)
