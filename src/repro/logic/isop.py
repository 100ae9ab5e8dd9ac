"""Irredundant sum-of-products covers via the Minato--Morreale algorithm.

The central entry point is :func:`isop`, which computes an irredundant
prime-ish cube cover of any function sandwiched between a lower bound ``L``
and an upper bound ``U`` (both truth tables).  For a completely specified
function ``f`` call ``isop(f, f, nvars)``.

Cubes are returned as :class:`Cube` objects carrying two bit masks: one for
positive literals and one for negative literals.  The cover of the complement
is obtained by calling :func:`isop` on the complemented bounds; the sum of the
two cover sizes is the *branching complexity* used by the cost-customized LUT
mapper (see :mod:`repro.mapping.cost`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TruthTableError
from repro.logic.truthtable import (
    _MASKS,
    TruthTable,
    _cofactor,
    _depends,
    _selectors,
    tt_mask,
    tt_not,
    tt_var,
)


@dataclass(frozen=True)
class Cube:
    """A product term over a fixed variable set.

    ``pos_mask`` has bit ``i`` set when variable ``i`` appears positively and
    ``neg_mask`` has bit ``i`` set when it appears complemented.  A variable
    absent from both masks is a don't-care in this cube.  The empty cube
    (both masks zero) is the tautology cube.
    """

    pos_mask: int
    neg_mask: int

    def __post_init__(self) -> None:
        if self.pos_mask & self.neg_mask:
            raise TruthTableError(
                "a cube cannot contain a variable both positively and negatively"
            )

    @property
    def num_literals(self) -> int:
        """Number of literals in the cube."""
        return bin(self.pos_mask).count("1") + bin(self.neg_mask).count("1")

    def literals(self) -> list[tuple[int, bool]]:
        """Return ``(variable, negated)`` pairs for every literal in the cube."""
        result = []
        mask = self.pos_mask | self.neg_mask
        while mask:
            low = mask & -mask
            result.append((low.bit_length() - 1, bool(self.neg_mask & low)))
            mask ^= low
        return result

    def contains_minterm(self, minterm: int) -> bool:
        """Return True when the input ``minterm`` lies inside the cube."""
        if (minterm & self.pos_mask) != self.pos_mask:
            return False
        if minterm & self.neg_mask:
            return False
        return True

    def to_tt(self, nvars: int) -> TruthTable:
        """Return the truth table of the cube over ``nvars`` variables."""
        table = tt_mask(nvars)
        for var, negated in self.literals():
            var_table = tt_var(var, nvars)
            table &= tt_not(var_table, nvars) if negated else var_table
        return table


def cover_to_tt(cubes: list[Cube], nvars: int) -> TruthTable:
    """Return the truth table of the disjunction of ``cubes``."""
    table = 0
    for cube in cubes:
        table |= cube.to_tt(nvars)
    return table & tt_mask(nvars)


def isop(lower: TruthTable, upper: TruthTable, nvars: int) -> list[Cube]:
    """Compute an irredundant SOP cover ``C`` with ``lower <= C <= upper``.

    Both bounds are truth tables over ``nvars`` variables and must satisfy
    ``lower & ~upper == 0``.  The classic use is ``isop(f, f, nvars)`` for a
    completely specified function ``f``.
    """
    mask = tt_mask(nvars)
    lower &= mask
    upper &= mask
    if lower & ~upper & mask:
        raise TruthTableError("isop requires lower <= upper")
    cover, cubes = _isop_rec(lower, upper, nvars, nvars)
    del cover
    return cubes


def isop_cube_count(function: TruthTable, nvars: int) -> int:
    """Return the number of cubes in the ISOP cover of ``function``."""
    return len(isop(function, function, nvars))


def _isop_rec(lower: TruthTable, upper: TruthTable, top_var: int,
              nvars: int) -> tuple[TruthTable, list[Cube]]:
    """Recursive Minato--Morreale step.

    ``top_var`` is the number of variables still eligible for splitting; the
    split variable is always the highest-indexed one that the bounds depend
    on, which keeps the recursion depth bounded by ``nvars``.
    """
    mask = _MASKS[nvars]
    if lower == 0:
        return 0, []
    if upper == mask:
        return mask, [Cube(0, 0)]

    # Find the splitting variable: the highest variable on which either bound
    # depends.  Both bounds constant would have been caught above.
    split = -1
    for var in range(top_var - 1, -1, -1):
        if _depends(lower, var, nvars) or _depends(upper, var, nvars):
            split = var
            break
    if split < 0:
        # Bounds are constants not handled above: lower != 0 and upper != 1
        # cannot both hold for constants, so lower must be 0 here.
        return 0, []

    lower0 = _cofactor(lower, split, 0, nvars)
    lower1 = _cofactor(lower, split, 1, nvars)
    upper0 = _cofactor(upper, split, 0, nvars)
    upper1 = _cofactor(upper, split, 1, nvars)

    # Cubes that must contain the negative literal of `split`.
    cover0, cubes0 = _isop_rec(lower0 & ~upper1 & mask, upper0, split, nvars)
    # Cubes that must contain the positive literal of `split`.
    cover1, cubes1 = _isop_rec(lower1 & ~upper0 & mask, upper1, split, nvars)

    # Remaining minterms handled by cubes independent of `split`.
    rest_lower = (lower0 & ~cover0 & mask) | (lower1 & ~cover1 & mask)
    cover2, cubes2 = _isop_rec(rest_lower, upper0 & upper1, split, nvars)

    var_bit = 1 << split
    result_cubes = []
    for cube in cubes0:
        result_cubes.append(Cube(cube.pos_mask, cube.neg_mask | var_bit))
    for cube in cubes1:
        result_cubes.append(Cube(cube.pos_mask | var_bit, cube.neg_mask))
    result_cubes.extend(cubes2)

    ones, zeros = _selectors(nvars)
    cover = (cover0 & zeros[split]) | (cover1 & ones[split]) | cover2
    return cover, result_cubes
