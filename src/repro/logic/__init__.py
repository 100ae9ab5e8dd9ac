"""Boolean-function substrate: truth tables, ISOP covers, cover factoring.

This package provides the low-level Boolean-function machinery used by the
synthesis operations (:mod:`repro.synthesis`), the LUT mapper
(:mod:`repro.mapping`) and the CNF encoders (:mod:`repro.cnf`).

Truth tables are represented as plain Python integers: bit ``i`` of the
integer holds the function value for the input minterm ``i`` (variable 0 is
the least-significant input).  All operations take an explicit variable count
so the bit width is unambiguous.
"""

from repro.logic.truthtable import (
    TruthTable,
    tt_mask,
    tt_const0,
    tt_const1,
    tt_var,
    tt_not,
    tt_and,
    tt_or,
    tt_xor,
    tt_cofactor,
    tt_support,
    tt_count_ones,
    tt_eval,
    tt_from_function,
    tt_expand,
    tt_shrink_to_support,
)
from repro.logic.isop import Cube, isop, cover_to_tt
from repro.logic.sop import factor_cover

__all__ = [
    "TruthTable",
    "tt_mask",
    "tt_const0",
    "tt_const1",
    "tt_var",
    "tt_not",
    "tt_and",
    "tt_or",
    "tt_xor",
    "tt_cofactor",
    "tt_support",
    "tt_count_ones",
    "tt_eval",
    "tt_from_function",
    "tt_expand",
    "tt_shrink_to_support",
    "Cube",
    "isop",
    "cover_to_tt",
    "factor_cover",
]
