"""Per-LUT cost functions, including the paper's branching complexity.

Section III-C1 of the paper defines the *branching complexity* of a LUT as
the total number of fanin value combinations a SAT solver may have to branch
on to justify the LUT output: the combinations justifying output 1 plus those
justifying output 0.  Counting maximal combinations (cubes) rather than raw
minterms reproduces the worked example of Fig. 3 — a 2-input AND has
complexity 3 (one cube for output 1, two for output 0) while a 2-input XOR
has complexity 4 — and coincides with the number of clauses the LUT-to-CNF
encoder emits for that LUT, which is why minimising it tracks solver effort.
"""

from __future__ import annotations

from repro.logic.isop import clause_template


def branching_complexity(table: int, nvars: int) -> int:
    """Return the branching complexity of a LUT function.

    The value is ``|ISOP(f)| + |ISOP(!f)|``: the number of fanin cubes that
    justify output 1 plus the number that justify output 0, which is the
    length of the LUT's :func:`~repro.logic.isop.clause_template`.  Constant
    functions have complexity 1 (a single trivial "branch").
    """
    return len(clause_template(table, nvars))


def area_cost(table: int, nvars: int) -> float:
    """Conventional mapper cost: every LUT costs one unit of area."""
    del table, nvars
    return 1.0


def branching_cost(table: int, nvars: int) -> float:
    """Cost-customised mapper cost: the branching complexity of the LUT."""
    return float(branching_complexity(table, nvars))


def lut_cost_table(nvars: int, cost_fn=branching_cost) -> dict[int, float]:
    """Enumerate the cost of every ``nvars``-input function.

    This mirrors the paper's "enumerate all 4-LUTs and integrate their
    branching complexity into the cost function" step.  For ``nvars`` up to 3
    the full table is returned; for 4 inputs the 65 536 functions are also
    enumerated but the call takes a few seconds, so it is meant for offline
    inspection.  Nothing caches its result, and the mapper does not call it:
    :func:`branching_cost` reads the cached ``clause_template`` per function.
    """
    return {table: cost_fn(table, nvars) for table in range(1 << (1 << nvars))}
