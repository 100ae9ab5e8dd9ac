"""Irredundant sum-of-products covers via the Minato--Morreale algorithm.

The central entry point is :func:`isop`, which computes an irredundant
prime-ish cube cover of any function sandwiched between a lower bound ``L``
and an upper bound ``U`` (both truth tables).  For a completely specified
function ``f`` call ``isop(f, f, nvars)``.

A cube is a plain ``(pos_mask, neg_mask)`` pair of ints (:data:`Cube`), so
a cover is a list of int pairs: :func:`clause_template` and the factoring in
:mod:`repro.logic.sop` read the masks directly.  The cover of the complement
is obtained by calling :func:`isop` on the complemented bounds; the sum of the
two cover sizes is the *branching complexity* used by the cost-customized LUT
mapper (see :mod:`repro.mapping.cost`) and the length of :func:`clause_template`.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import TruthTableError
from repro.logic.truthtable import (
    _MASKS,
    TruthTable,
    _cofactor,
    _depends,
    _selectors,
    tt_mask,
    tt_var,
)


#: A product term ``(pos_mask, neg_mask)``: bit ``i`` of ``pos_mask`` is set
#: when variable ``i`` appears positively, of ``neg_mask`` when it appears
#: complemented.  ``(0, 0)`` is the tautology cube.
Cube = tuple[int, int]


def cover_to_tt(cubes: list[Cube], nvars: int) -> TruthTable:
    """Return the truth table of the disjunction of ``cubes``."""
    mask = tt_mask(nvars)
    table = 0
    for pos_mask, neg_mask in cubes:
        cube = mask
        for var in range(nvars):
            if pos_mask >> var & 1:
                cube &= tt_var(var, nvars)
            if neg_mask >> var & 1:
                cube &= ~tt_var(var, nvars)
        table |= cube
    return table


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
    return _isop_rec(lower, upper, nvars, nvars)[1]


@lru_cache(maxsize=1 << 16)
def clause_template(table: TruthTable, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Return the CNF clauses of a LUT ``y = f(x_0, ..., x_{nvars-1})``.

    Literals are signed positions (``x_i`` is ``i + 1``, ``y`` is
    ``nvars + 1``): ``(!c | y)`` for each cube ``c`` of ``ISOP(f)``, then
    ``(!c | !y)`` for each cube of ``ISOP(!f)``, cube literals in ascending
    variable order.  The LUT encoder and the branching cost share it.
    """
    mask = tt_mask(nvars)
    table &= mask
    clauses = []
    for function, output in ((table, nvars + 1), (~table & mask, -nvars - 1)):
        for pos_mask, neg_mask in isop(function, function, nvars):
            clause = [var + 1 if neg_mask >> var & 1 else -var - 1
                      for var in range(nvars) if (pos_mask | neg_mask) >> var & 1]
            clauses.append((*clause, output))
    return tuple(clauses)


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
        return mask, [(0, 0)]

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
    result_cubes = [(pos, neg | var_bit) for pos, neg in cubes0]
    result_cubes += [(pos | var_bit, neg) for pos, neg in cubes1]
    result_cubes += cubes2

    ones, zeros = _selectors(nvars)
    cover = (cover0 & zeros[split]) | (cover1 & ones[split]) | cover2
    return cover, result_cubes
