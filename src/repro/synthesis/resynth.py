"""Shared machinery for cut-based resynthesis (used by rewrite and refactor).

Both rewriting and refactoring follow the same template:

1. pick a cut of a node and obtain the node's function over the cut leaves;
2. resynthesise that function into a (hopefully smaller) AND/INV structure
   via ISOP + algebraic factoring, looked up in a process-wide library
   (:func:`cut_program`) that compiles each function once into a flat AND
   program;
3. estimate the *gain*: the number of AND nodes of the original cone that
   would become dangling, minus the number of genuinely new AND nodes the
   program needs (nodes already present in the strash table are free);
4. if the gain is positive, build the program and redirect all fanouts of
   the node to the new literal.

Steps 2--4 are implemented here so that the two operations only differ in how
they choose cuts.
"""

from __future__ import annotations

from functools import lru_cache

from repro.aig.aig import AIG, CONST0, CONST1, lit_is_complemented, lit_not, lit_var
from repro.logic.sop import FactoredNode, Sop, factor_sop
from repro.logic.truthtable import tt_mask


def factored_form(table: int, nvars: int) -> FactoredNode:
    """Return a factored expression tree realising ``table`` over ``nvars`` inputs.

    Both polarities are factored and the cheaper one is kept (the complement
    is realised by a top-level inversion, which is free in an AIG).
    """
    positive = factor_sop(Sop.from_truth_table(table, nvars))
    negative = factor_sop(Sop.from_truth_table(~table & tt_mask(nvars), nvars))
    if negative.literal_count() < positive.literal_count():
        return FactoredNode(kind="not", children=[negative])
    return positive


@lru_cache(maxsize=1 << 14)
def cut_program(table: int, nvars: int) -> tuple[int, ...]:
    """Return :func:`factored_form` of ``table`` compiled to a flat AND program.

    This is the process-wide cut-function library of ``rewrite`` and
    ``refactor``: each ``(table, nvars)`` is factored once.  The program is a
    tuple of operand codes ``2*slot + negated``; slot 0 is the constant,
    slots ``1..nvars`` are the cut leaves and slot ``nvars + 1 + k`` is step
    ``k``, the AND of codes ``2k`` and ``2k + 1``.  The last code is the
    output.  Steps follow the tree in post-order, each AND/OR node pairing
    its children level by level (OR by De Morgan), so a build calls
    ``add_and`` in a fixed order whatever the cache held before.
    """
    program: list[int] = []

    def compile_node(node: FactoredNode) -> int:
        if node.kind in ("const0", "const1"):
            return int(node.kind == "const1")
        if node.kind == "lit":
            return 2 * node.var + 2 + node.negated
        if node.kind == "not":
            return compile_node(node.children[0]) ^ 1
        negate = {"and": 0, "or": 1}[node.kind]
        codes = [compile_node(child) ^ negate for child in node.children]
        while len(codes) > 1:
            paired = []
            for i in range(0, len(codes) - 1, 2):
                program.extend((codes[i], codes[i + 1]))
                paired.append(2 * nvars + len(program))
            codes = paired + codes[len(paired) * 2:]
        return codes[0] ^ negate

    program.append(compile_node(factored_form(table, nvars)))
    return tuple(program)


def count_new_nodes(aig: AIG, program: tuple[int, ...],
                    leaf_literals: list[int]) -> int:
    """Count the AND nodes that building ``program`` would add to ``aig``.

    A dry run of :func:`build_factored` that adds nothing: it applies
    ``add_and``'s simplification rules and strash lookup, with -1 marking a
    node that does not exist yet (any step using one is new as well).  A
    step repeating a new node is counted again: sharing inside one
    replacement is not credited.
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
        added += result < 0
        values.append(result)
    return added


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

    @property
    def num_replacements(self) -> int:
        return len(self._substitution)

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
                new_fanins = []
                for resolved in fanin_mapped:
                    mapped = old_to_new[lit_var(resolved)]
                    if lit_is_complemented(resolved):
                        mapped = lit_not(mapped)
                    new_fanins.append(mapped)
                old_to_new[var] = rebuilt.add_and(new_fanins[0], new_fanins[1])
                stack.pop()

        for po, po_name in zip(self.aig.pos, self.aig.po_names):
            resolved = self.resolve(po)
            po_var = lit_var(resolved)
            if po_var not in old_to_new:
                build(po_var)
            mapped = old_to_new[po_var]
            if lit_is_complemented(resolved):
                mapped = lit_not(mapped)
            rebuilt.add_po(mapped, po_name)
        # Every node is built on demand for a PO cone, so only a node that
        # maps to a constant (an AND folded by add_and, or a substitution)
        # can have stranded a fanin built for it.
        folded = any(literal < 2 for var, literal in old_to_new.items() if var)
        return rebuilt.cleanup() if folded else rebuilt
