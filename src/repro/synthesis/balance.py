"""Depth-driven AND-tree balancing (the ``balance`` action).

The operation collects maximal multi-input AND "super-gates" by expanding
non-complemented fanin edges, then rebuilds each super-gate as a
minimum-depth tree by always combining the two shallowest operands first
(Huffman-style).  The result is functionally identical but typically much
shallower, which reduces the *balance ratio* state feature of Eq. (1) and
tends to produce better LUT mappings.
"""

from __future__ import annotations

from repro.aig.aig import AIG, CONST0, lit_is_complemented, lit_var, map_literal

#: Safety bound on how many operands a single super-gate may gather.
_MAX_SUPER_GATE = 128


def balance(aig: AIG) -> AIG:
    """Return a depth-balanced, functionally equivalent AIG."""
    balanced = AIG(name=aig.name)
    old_to_new: dict[int, int] = {0: CONST0}
    for pi_var, pi_name in zip(aig.pis, aig.pi_names):
        old_to_new[pi_var] = balanced.add_pi(pi_name)

    levels_new: dict[int, int] = {}
    fanout_counts = aig.fanout_counts()

    def new_level(literal: int) -> int:
        return levels_new.get(lit_var(literal), 0)

    def collect_operands(var: int) -> list[int]:
        """Collect the operand literals of the AND super-gate rooted at ``var``.

        Expansion stops at complemented edges, at primary inputs and at
        multi-fanout nodes (so shared sub-products keep being shared).
        """
        operands: list[int] = []
        stack = [var * 2]
        while stack:
            literal = stack.pop()
            node = lit_var(literal)
            expandable = (not lit_is_complemented(literal)
                          and aig.is_and(node)
                          and (node == var or fanout_counts[node] <= 1)
                          and len(operands) + len(stack) < _MAX_SUPER_GATE)
            if expandable:
                lit0, lit1 = aig.fanins(node)
                stack.append(lit0)
                stack.append(lit1)
            else:
                operands.append(literal)
        return operands

    for var in aig.and_vars():
        operands = collect_operands(var)
        mapped = [map_literal(op, old_to_new) for op in operands]
        # Combine the two shallowest operands repeatedly to minimise depth.
        mapped.sort(key=new_level, reverse=True)
        while len(mapped) > 1:
            a = mapped.pop()
            b = mapped.pop()
            combined = balanced.add_and(a, b)
            combined_var = lit_var(combined)
            if combined_var not in levels_new and balanced.is_and(combined_var):
                levels_new[combined_var] = 1 + max(new_level(a), new_level(b))
            # Insert back keeping the list sorted by descending level.
            level = new_level(combined)
            index = len(mapped)
            while index > 0 and new_level(mapped[index - 1]) < level:
                index -= 1
            mapped.insert(index, combined)
        old_to_new[var] = mapped[0] if mapped else CONST0

    for po, po_name in zip(aig.pos, aig.po_names):
        balanced.add_po(map_literal(po, old_to_new), po_name)
    return balanced.cleanup()
