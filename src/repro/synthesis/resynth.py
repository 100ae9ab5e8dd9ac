"""Shared machinery of the node-replacement operators: rewrite, refactor, resub.

All three walk the AND nodes of a private copy of the AIG in topological
order through one driver, :func:`replace_nodes`, and differ only in the
*finder* that proposes a replacement literal for a node:

* ``rewrite`` tries each 4-feasible cut of the node;
* ``refactor`` tries the node's one reconvergence-driven cut of up to 10
  leaves;
* ``resub`` re-expresses the node over divisors of a window around it.

The driver redirects the node to the finder's literal, or rebuilds it over
its resolved fanins when it found none, and :meth:`ReplacementPass.finalize`
applies the substitutions.  ``rewrite`` and ``refactor`` share one cut
trial, :func:`cut_replacement`:

1. take a cut of the node and the node's function over the cut leaves;
2. resynthesise that function into a (hopefully smaller) AND/INV structure:
   ISOP covers of both polarities, each factored algebraically straight into
   a flat AND program (:func:`repro.logic.sop.factor_cover`), looked up in a
   process-wide library (:func:`cut_program`) that does this once per
   function;
3. estimate the *gain*: the number of AND nodes of the original cone that
   would become dangling, minus the number of genuinely new AND nodes the
   program needs (nodes already present in the strash table are free;
   :func:`build_within` stops counting once the gain is too small);
4. if the gain is positive, build the program; its literal replaces the node.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import lru_cache

from repro.aig.aig import AIG, CONST0, CONST1, lit_var, map_literal
from repro.logic.isop import isop
from repro.logic.sop import factor_cover
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import cone_truth_table


@lru_cache(maxsize=1 << 14)
def cut_program(table: int, nvars: int) -> tuple[int, ...]:
    """Return ``table`` factored into a flat AND program over ``nvars`` leaves.

    This is the process-wide cut-function library of ``rewrite`` and
    ``refactor``: each ``(table, nvars)`` is factored once.  The program is a
    tuple of operand codes ``2*slot + negated``; slot 0 is the constant,
    slots ``1..nvars`` are the cut leaves and slot ``nvars + 1 + k`` is step
    ``k``, the AND of codes ``2k`` and ``2k + 1``.  The last code is the
    output.  Both polarities' ISOP covers are factored
    (:func:`~repro.logic.sop.factor_cover`); the offset, inverted at the
    output for free, is kept only when it has strictly fewer literals.  The
    steps are in a fixed order, so a build calls ``add_and`` the same way
    whatever the cache held before.
    """
    offset_table = ~table & tt_mask(nvars)
    onset: list[int] = []
    offset: list[int] = []
    code, literals = factor_cover(isop(table, table, nvars), nvars, onset)
    offset_code, offset_literals = factor_cover(
        isop(offset_table, offset_table, nvars), nvars, offset)
    if offset_literals < literals:
        return (*offset, offset_code ^ 1)
    return (*onset, code)


def build_within(aig: AIG, program: tuple[int, ...], leaf_literals: list[int],
                 budget: int) -> tuple[int, int] | None:
    """Build ``program`` if it adds at most ``budget`` AND nodes to ``aig``.

    A dry run applies ``add_and``'s rules and strash lookup, -1 marking a new
    node (as is any step using one; sharing inside one program is not
    credited).  It returns None once the count exceeds ``budget``, else
    ``(added, literal)``: with nothing new it has the literal and ``aig`` is
    untouched, otherwise :func:`build_factored` makes the nodes.
    """
    values = [CONST0, *leaf_literals]
    strash = aig._strash
    added = 0
    codes = iter(program)  # zip stops at the unpaired output code
    for code_a, code_b in zip(codes, codes):
        a = values[code_a >> 1]
        b = values[code_b >> 1]
        if a < 0 or b < 0:
            result = -1
        else:
            a ^= code_a & 1
            b ^= code_b & 1
            if a == CONST0 or b == CONST0 or a == b ^ 1:
                result = CONST0
            elif a == CONST1 or a == b:
                result = b
            elif b == CONST1:
                result = a
            else:
                existing = strash.get((a, b) if a <= b else (b, a))
                result = -1 if existing is None else existing * 2
        if result < 0:
            added += 1
            if added > budget:
                return None
        values.append(result)
    if added:
        return added, build_factored(aig, program, leaf_literals)
    return 0, values[program[-1] >> 1] ^ (program[-1] & 1)


def build_factored(aig: AIG, program: tuple[int, ...],
                   leaf_literals: list[int]) -> int:
    """Materialise ``program`` over ``leaf_literals`` in ``aig``; return the literal."""
    values = [CONST0, *leaf_literals]
    codes = iter(program)  # zip stops at the unpaired output code
    for code_a, code_b in zip(codes, codes):
        values.append(aig.add_and(values[code_a >> 1] ^ (code_a & 1),
                                  values[code_b >> 1] ^ (code_b & 1)))
    return values[program[-1] >> 1] ^ (program[-1] & 1)


def cut_cone_gain(aig: AIG, root: int, leaves: tuple[int, ...],
                  fanout_counts: list[int]) -> int:
    """Return the number of AND nodes freed if ``root`` were replaced.

    This is the size of the maximum fanout-free cone of ``root`` restricted
    to the cone above ``leaves``: nodes between the leaves and the root whose
    only fanouts lie inside that cone.  ``fanout_counts`` is only read; the
    decremented counts live in a dict of the cone nodes touched.
    """
    fanin_array = aig.fanin_array
    if fanin_array[root] is None:
        return 0
    remaining: dict[int, int] = {}
    freed = 0
    stack = [root]
    while stack:
        freed += 1
        for fanin in fanin_array[stack.pop()]:
            fanin_var = fanin >> 1
            if fanin_var in leaves or fanin_array[fanin_var] is None:
                continue
            count = remaining.get(fanin_var, fanout_counts[fanin_var]) - 1
            remaining[fanin_var] = count
            if count == 0:
                stack.append(fanin_var)
    return freed


def cut_replacement(aig: AIG, var: int, fanout_counts: list[int],
                    pass_state: ReplacementPass,
                    cuts: Iterable[tuple[tuple[int, ...], int | None]],
                    floor: int = 1) -> int | None:
    """Return the literal of the best resynthesis of ``var`` over ``cuts``.

    ``cuts`` yields ``(leaves, table)``: ``var``'s function over the leaves,
    or None to collapse the cone, which is done only for a cut freeing
    enough.  A cut wins when ``freed - added >= best_gain`` (1, then the
    last winner's gain), so one freeing fewer than ``max(best_gain, floor)``
    nodes is skipped before its table or program is computed, and the dry
    run may add ``freed - best_gain``.  Cuts with fewer than 2 leaves, with ``var``
    among them, or whose function is constant (left to constant
    propagation) are skipped.  Returns None when no cut wins.
    """
    best_literal = None
    best_gain = 1
    for leaves, table in cuts:
        if len(leaves) < 2 or var in leaves:
            continue
        freed = cut_cone_gain(aig, var, leaves, fanout_counts)
        if freed < best_gain or freed < floor:
            continue
        nvars = len(leaves)
        if table is None:
            table = cone_truth_table(aig, var, leaves)
        if table in (0, tt_mask(nvars)):
            continue
        built = build_within(aig, cut_program(table, nvars),
                             pass_state.resolve_leaves(leaves),
                             freed - best_gain)
        if built is not None:
            added, best_literal = built
            best_gain = freed - added
    return best_literal


class ReplacementPass:
    """Bookkeeping for one replacement pass over a private copy of an AIG.

    The pass works on ``self.aig``, a copy of the input with the same
    variable numbering: candidate and replacement structures are appended
    there, so the caller's AIG is never mutated.  It records a
    variable-to-literal substitution map.  :meth:`resolve` translates any
    original literal into its current replacement (following chains), and
    :meth:`finalize` rebuilds a clean AIG with the substitutions applied to
    every primary output.
    """

    def __init__(self, aig: AIG) -> None:
        self.aig = aig.copy()
        self._substitution: dict[int, int] = {}

    def resolve(self, literal: int) -> int:
        """Return the current replacement literal for ``literal``."""
        substitution = self._substitution
        var = literal >> 1
        if var not in substitution:
            return literal
        complemented = literal & 1
        seen = set()
        while var in substitution and var not in seen:
            seen.add(var)
            target = substitution[var]
            complemented ^= target & 1
            var = target >> 1
        return 2 * var + complemented

    def resolve_leaves(self, leaves: tuple[int, ...]) -> list[int]:
        """Return :meth:`resolve` of each leaf's positive literal."""
        return [self.resolve(2 * leaf) if leaf in self._substitution
                else 2 * leaf for leaf in leaves]

    def replace(self, var: int, new_literal: int) -> None:
        """Record that node ``var`` is now computed by ``new_literal``.

        The literal is resolved first so stored chains stay short, and the
        replacement is refused when it would create a substitution cycle
        (the resolved target being ``var`` itself).
        """
        resolved = self.resolve(new_literal)
        if lit_var(resolved) == var:
            return
        self._substitution[var] = resolved

    def finalize(self) -> AIG:
        """Apply all substitutions and return an AIG without dangling nodes.

        The rebuilt graph is constructed demand-driven from the primary
        outputs with an explicit stack, because replacement structures may be
        referenced by nodes with smaller variable indices (a plain ascending
        pass would visit them too early).
        """
        if not self._substitution:
            return self.aig.cleanup()
        rebuilt = AIG(name=self.aig.name)
        old_to_new: dict[int, int] = {0: CONST0}
        for pi_var, pi_name in zip(self.aig.pis, self.aig.pi_names):
            old_to_new[pi_var] = rebuilt.add_pi(pi_name)

        def build(start_var: int) -> None:
            stack = [start_var]
            while stack:
                var = stack[-1]
                if var in old_to_new:
                    stack.pop()
                    continue
                resolved_var = lit_var(self.resolve(var * 2))
                if resolved_var != var:
                    if resolved_var in old_to_new:
                        old_to_new[var] = old_to_new[resolved_var]
                        stack.pop()
                    else:
                        stack.append(resolved_var)
                    continue
                lit0, lit1 = self.aig.fanins(var)
                pending = []
                fanin_mapped = []
                for fanin in (lit0, lit1):
                    resolved = self.resolve(fanin)
                    fanin_var = lit_var(resolved)
                    if fanin_var not in old_to_new:
                        pending.append(fanin_var)
                    fanin_mapped.append(resolved)
                if pending:
                    stack.extend(pending)
                    continue
                old_to_new[var] = rebuilt.add_and(
                    map_literal(fanin_mapped[0], old_to_new),
                    map_literal(fanin_mapped[1], old_to_new))
                stack.pop()

        for po, po_name in zip(self.aig.pos, self.aig.po_names):
            resolved = self.resolve(po)
            po_var = lit_var(resolved)
            if po_var not in old_to_new:
                build(po_var)
            rebuilt.add_po(map_literal(resolved, old_to_new), po_name)
        # Every node is built on demand for a PO cone, so only a node that
        # maps to a constant (an AND folded by add_and, or a substitution)
        # can have stranded a fanin built for it.
        folded = any(literal < 2 for var, literal in old_to_new.items() if var)
        return rebuilt.cleanup() if folded else rebuilt


def replace_nodes(aig: AIG,
                  find: Callable[[AIG, int, list[int], ReplacementPass],
                                 int | None]) -> AIG:
    """Return ``aig`` with its AND nodes replaced where ``find`` proposes.

    ``find`` sees each AND node of the pass's private copy once, in
    topological order, with the copy, the node, the copy's fanout counts
    before the pass and the pass itself; it may add nodes to the copy and
    returns a literal computing the node, or None.  A literal other than
    the node's own replaces it; otherwise a node whose fanins were replaced
    is rebuilt over them.  The input AIG is never mutated.
    """
    pass_state = ReplacementPass(aig)
    aig = pass_state.aig
    fanout_counts = aig.fanout_counts()
    for var in aig.and_vars():
        replacement = find(aig, var, fanout_counts, pass_state)
        if replacement is not None and lit_var(replacement) != var:
            pass_state.replace(var, replacement)
            continue
        lit0, lit1 = aig.fanins(var)
        resolved0 = pass_state.resolve(lit0)
        resolved1 = pass_state.resolve(lit1)
        if resolved0 != lit0 or resolved1 != lit1:
            pass_state.replace(var, aig.add_and(resolved0, resolved1))
    return pass_state.finalize()
