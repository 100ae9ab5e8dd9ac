"""Sum-of-products containers and algebraic factoring.

The synthesis operations (:mod:`repro.synthesis.rewrite` and
:mod:`repro.synthesis.refactor`) resynthesise a cut function by first
computing an ISOP cover (:mod:`repro.logic.isop`), then factoring it
algebraically with :func:`factor_sop`, and finally translating the factored
form into AND/INV nodes.  The factoring used here is the classic
"quick factor" style: repeatedly divide by the best single-literal divisor.
It is not optimal but mirrors what fast industrial rewriting does and is
sufficient to realise meaningful node savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TruthTableError
from repro.logic.isop import Cube, cover_to_tt, isop
from repro.logic.truthtable import TruthTable, tt_mask


@dataclass
class Sop:
    """A sum-of-products: a list of cubes over ``nvars`` variables."""

    nvars: int
    cubes: list[Cube] = field(default_factory=list)

    @classmethod
    def from_truth_table(cls, table: TruthTable, nvars: int) -> "Sop":
        """Build an irredundant SOP for ``table``."""
        return cls(nvars=nvars, cubes=isop(table, table, nvars))

    def to_tt(self) -> TruthTable:
        """Return the truth table realised by this SOP."""
        return cover_to_tt(self.cubes, self.nvars)

    @property
    def num_cubes(self) -> int:
        return len(self.cubes)

    @property
    def num_literals(self) -> int:
        return sum(cube.num_literals for cube in self.cubes)

    def is_constant(self) -> int | None:
        """Return 0 or 1 when the SOP is trivially constant, else None."""
        if not self.cubes:
            return 0
        if any(cube.pos_mask == 0 and cube.neg_mask == 0 for cube in self.cubes):
            return 1
        return None


@dataclass
class FactoredNode:
    """A node of a factored Boolean expression tree.

    ``kind`` is one of ``"lit"``, ``"and"``, ``"or"``, ``"not"``, ``"const0"``
    and ``"const1"``.  Literal nodes carry ``var``/``negated``; AND/OR nodes
    carry a list of children and a NOT node carries exactly one.
    """

    kind: str
    var: int = -1
    negated: bool = False
    children: list["FactoredNode"] = field(default_factory=list)

    @classmethod
    def literal(cls, var: int, negated: bool) -> "FactoredNode":
        return cls(kind="lit", var=var, negated=negated)

    @classmethod
    def conj(cls, children: list["FactoredNode"]) -> "FactoredNode":
        if not children:
            return cls(kind="const1")
        if len(children) == 1:
            return children[0]
        return cls(kind="and", children=children)

    @classmethod
    def disj(cls, children: list["FactoredNode"]) -> "FactoredNode":
        if not children:
            return cls(kind="const0")
        if len(children) == 1:
            return children[0]
        return cls(kind="or", children=children)

    def literal_count(self) -> int:
        """Return the number of literal leaves in the expression tree."""
        if self.kind == "lit":
            return 1
        if self.kind in ("const0", "const1"):
            return 0
        return sum(child.literal_count() for child in self.children)


def factor_sop(sop: Sop) -> FactoredNode:
    """Return an algebraically factored expression tree for ``sop``.

    The result is logically equivalent to the SOP (it is produced purely by
    algebraic division, never by Boolean manipulation).
    """
    constant = sop.is_constant()
    if constant == 0:
        return FactoredNode(kind="const0")
    if constant == 1:
        return FactoredNode(kind="const1")
    return _factor_cubes(sop.cubes, sop.nvars)


def _most_common_literal(cubes: list[Cube], nvars: int) -> int | None:
    """Return the literal key appearing in the most cubes (ties broken by key).

    A literal's key is ``2*var + negated``; counts are read off each cube's
    ``pos_mask``/``neg_mask`` bits.  Only literals appearing in at least two
    cubes are useful divisors.
    """
    counts = [0] * (2 * nvars)
    for cube in cubes:
        for mask, negated in ((cube.pos_mask, 0), (cube.neg_mask, 1)):
            while mask:
                low = mask & -mask
                counts[2 * low.bit_length() - 2 + negated] += 1
                mask ^= low
    best_key = None
    best_count = 1
    for key, count in enumerate(counts):
        if count > best_count:
            best_key = key
            best_count = count
    return best_key


def _remove_literal(cube: Cube, key: int) -> Cube:
    var, negated = divmod(key, 2)
    if negated:
        return Cube(cube.pos_mask, cube.neg_mask & ~(1 << var))
    return Cube(cube.pos_mask & ~(1 << var), cube.neg_mask)


def _cube_to_node(cube: Cube) -> FactoredNode:
    literals = [FactoredNode.literal(var, neg) for var, neg in cube.literals()]
    return FactoredNode.conj(literals)


def _factor_cubes(cubes: list[Cube], nvars: int) -> FactoredNode:
    """Recursive quick-factoring over a cube list."""
    if not cubes:
        return FactoredNode(kind="const0")
    if len(cubes) == 1:
        return _cube_to_node(cubes[0])

    divisor_key = _most_common_literal(cubes, nvars)
    if divisor_key is None:
        # No sharing: a flat OR of cube ANDs.
        return FactoredNode.disj([_cube_to_node(cube) for cube in cubes])

    var, negated = divmod(divisor_key, 2)
    var_bit = 1 << var
    quotient = []
    remainder = []
    for cube in cubes:
        if (cube.neg_mask if negated else cube.pos_mask) & var_bit:
            quotient.append(_remove_literal(cube, divisor_key))
        else:
            remainder.append(cube)

    divisor_node = FactoredNode.literal(var, bool(negated))
    quotient_node = _factor_cubes(quotient, nvars)
    product = FactoredNode.conj([divisor_node, quotient_node])
    if not remainder:
        return product
    remainder_node = _factor_cubes(remainder, nvars)
    return FactoredNode.disj([product, remainder_node])


def factored_to_tt(node: FactoredNode, nvars: int) -> TruthTable:
    """Evaluate a factored expression tree back into a truth table.

    Used by the test-suite to check that factoring preserves the function.
    """
    from repro.logic.truthtable import tt_and, tt_not, tt_or, tt_var

    if node.kind == "const0":
        return 0
    if node.kind == "const1":
        return tt_mask(nvars)
    if node.kind == "lit":
        table = tt_var(node.var, nvars)
        return tt_not(table, nvars) if node.negated else table
    if node.kind == "not":
        return tt_not(factored_to_tt(node.children[0], nvars), nvars)
    if node.kind == "and":
        result = tt_mask(nvars)
        for child in node.children:
            result = tt_and(result, factored_to_tt(child, nvars), nvars)
        return result
    if node.kind == "or":
        result = 0
        for child in node.children:
            result = tt_or(result, factored_to_tt(child, nvars), nvars)
        return result
    raise TruthTableError(f"unknown factored-node kind: {node.kind}")
