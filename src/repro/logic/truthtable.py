"""Truth tables as bit-packed Python integers.

A truth table over ``nvars`` variables is an integer with ``2**nvars``
meaningful bits.  Bit ``i`` stores the value of the function on the input
minterm whose binary encoding is ``i`` (variable 0 is the least-significant
bit of the minterm index).  Python's arbitrary-precision integers make this
representation exact for any practical cut size (we use up to 16 variables
for refactoring cones).

Every function takes the variable count explicitly; results are always masked
to the proper width so callers can compose operations freely.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import TruthTableError

#: Type alias used throughout the code base for readability.
TruthTable = int

_MAX_VARS = 20


def _check_nvars(nvars: int) -> None:
    if not 0 <= nvars <= _MAX_VARS:
        raise TruthTableError(
            f"variable count must be between 0 and {_MAX_VARS}, got {nvars}"
        )


#: Memoised all-ones masks, indexed by variable count.  Building the mask is
#: a big-int shift, and the synthesis kernels request the same few widths
#: millions of times, so a table lookup pays for itself immediately.
_MASKS: tuple[int, ...] = tuple((1 << (1 << n)) - 1 for n in range(_MAX_VARS + 1))


def tt_mask(nvars: int) -> TruthTable:
    """Return the all-ones mask for a truth table over ``nvars`` variables."""
    _check_nvars(nvars)
    return _MASKS[nvars]


def tt_const0(nvars: int) -> TruthTable:
    """Return the constant-0 function."""
    _check_nvars(nvars)
    return 0


def tt_const1(nvars: int) -> TruthTable:
    """Return the constant-1 function."""
    return tt_mask(nvars)


#: Lazily filled selector rows, keyed by variable count:
#: ``_SELECTORS[nvars] == (ones, zeros)`` where ``ones[v]`` is
#: ``tt_var(v, nvars)`` (the minterms with ``v = 1``) and ``zeros[v]`` its
#: complement.  Cofactors and dependency tests are then a mask and a shift
#: instead of a Python loop that rebuilds the selector on every call.
_SELECTORS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _selectors(nvars: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    row = _SELECTORS.get(nvars)
    if row is None:
        _check_nvars(nvars)
        mask = _MASKS[nvars]
        # mask // (2**block + 1) repeats `block` ones then `block` zeros.
        zeros = tuple(mask // ((1 << (1 << v)) + 1) for v in range(nvars))
        ones = tuple(zero << (1 << v) for v, zero in enumerate(zeros))
        row = _SELECTORS[nvars] = (ones, zeros)
    return row


def tt_var(index: int, nvars: int) -> TruthTable:
    """Return the truth table of input variable ``index`` among ``nvars``."""
    _check_nvars(nvars)
    if not 0 <= index < nvars:
        raise TruthTableError(f"variable index {index} out of range for {nvars} vars")
    return _selectors(nvars)[0][index]


def tt_not(table: TruthTable, nvars: int) -> TruthTable:
    """Return the complement of ``table``."""
    return ~table & tt_mask(nvars)


def tt_and(a: TruthTable, b: TruthTable, nvars: int) -> TruthTable:
    """Return the conjunction of two truth tables."""
    return (a & b) & tt_mask(nvars)


def tt_or(a: TruthTable, b: TruthTable, nvars: int) -> TruthTable:
    """Return the disjunction of two truth tables."""
    return (a | b) & tt_mask(nvars)


def tt_xor(a: TruthTable, b: TruthTable, nvars: int) -> TruthTable:
    """Return the exclusive-or of two truth tables."""
    return (a ^ b) & tt_mask(nvars)


def tt_eval(table: TruthTable, assignment: Sequence[bool | int], nvars: int) -> bool:
    """Evaluate ``table`` on a concrete input ``assignment``.

    ``assignment[i]`` is the value of variable ``i``; extra entries are
    ignored, missing entries raise.
    """
    if len(assignment) < nvars:
        raise TruthTableError(
            f"assignment has {len(assignment)} values but function has {nvars} inputs"
        )
    minterm = 0
    for i in range(nvars):
        if assignment[i]:
            minterm |= 1 << i
    return bool((table >> minterm) & 1)


def tt_from_function(func: Callable[..., bool | int], nvars: int) -> TruthTable:
    """Build a truth table by evaluating ``func`` on every minterm.

    ``func`` receives ``nvars`` positional boolean arguments.
    """
    _check_nvars(nvars)
    table = 0
    for minterm in range(1 << nvars):
        args = [bool((minterm >> i) & 1) for i in range(nvars)]
        if func(*args):
            table |= 1 << minterm
    return table


def tt_cofactor(table: TruthTable, var: int, value: int, nvars: int) -> TruthTable:
    """Return the cofactor of ``table`` with variable ``var`` fixed to ``value``.

    The result is still expressed over ``nvars`` variables (the fixed variable
    becomes a don't-care in the usual positional sense: the returned table no
    longer depends on it).
    """
    _check_nvars(nvars)
    if not 0 <= var < nvars:
        raise TruthTableError(f"variable index {var} out of range for {nvars} vars")
    return _cofactor(table, var, value, nvars)


def _cofactor(table: TruthTable, var: int, value: int, nvars: int) -> TruthTable:
    """Unchecked :func:`tt_cofactor` for the ISOP recursion."""
    ones, zeros = _selectors(nvars)
    # Keep the half where `var` equals `value`, then smear it onto the other
    # half so the result ignores `var`.
    if value:
        kept = table & ones[var]
        return kept | (kept >> (1 << var))
    kept = table & zeros[var]
    return kept | (kept << (1 << var))


def _depends(table: TruthTable, var: int, nvars: int) -> bool:
    """Return True when ``table`` depends on ``var``: one shift-xor, no cofactors.

    Bit ``m`` of ``(table >> 2**var) ^ table`` compares minterm ``m`` with its
    neighbour across ``var``; only the minterms with ``var = 0`` are kept.
    """
    return bool(((table >> (1 << var)) ^ table) & _selectors(nvars)[1][var])


def tt_support(table: TruthTable, nvars: int) -> list[int]:
    """Return the list of variables the function actually depends on."""
    return [var for var in range(nvars) if _depends(table, var, nvars)]


def tt_count_ones(table: TruthTable, nvars: int) -> int:
    """Return the number of minterms on which the function is 1."""
    return int(bin(table & tt_mask(nvars)).count("1"))


def tt_expand(table: TruthTable, old_positions: Sequence[int], old_nvars: int,
              new_nvars: int) -> TruthTable:
    """Re-express ``table`` (over ``old_nvars`` inputs) over ``new_nvars`` inputs.

    ``old_positions[i]`` gives the position of old variable ``i`` in the new
    variable ordering.  Variables not mentioned become don't-cares.  This is
    the workhorse used when merging cut truth tables expressed over different
    leaf sets.
    """
    _check_nvars(old_nvars)
    _check_nvars(new_nvars)
    if len(old_positions) < old_nvars:
        raise TruthTableError("old_positions must cover every old variable")
    monotonic = all(old_positions[i] < old_positions[i + 1]
                    for i in range(old_nvars - 1))
    if monotonic:
        # Order-preserving mapping (the cut-merge case): expansion is a
        # sequence of don't-care variable insertions, each a chunked
        # duplicate-and-shift over the whole table — O(2^n / chunk) big-int
        # operations instead of one Python iteration per output minterm.
        mentioned = set(old_positions[:old_nvars])
        nvars = old_nvars
        for position in range(new_nvars):
            if position in mentioned:
                continue
            table = _tt_insert_var(table, position, nvars)
            nvars += 1
        return table & _MASKS[new_nvars]
    result = 0
    for new_minterm in range(1 << new_nvars):
        old_minterm = 0
        for old_var in range(old_nvars):
            if (new_minterm >> old_positions[old_var]) & 1:
                old_minterm |= 1 << old_var
        if (table >> old_minterm) & 1:
            result |= 1 << new_minterm
    return result


def _tt_insert_var(table: TruthTable, position: int, nvars: int) -> TruthTable:
    """Insert a don't-care variable at ``position`` into an ``nvars`` table."""
    chunk = 1 << position
    chunk_mask = (1 << chunk) - 1
    result = 0
    total_bits = 1 << nvars
    shift_in = 0
    shift_out = 0
    while shift_in < total_bits:
        part = (table >> shift_in) & chunk_mask
        result |= (part | (part << chunk)) << shift_out
        shift_in += chunk
        shift_out += 2 * chunk
    return result


def tt_shrink_to_support(table: TruthTable, nvars: int) -> tuple[TruthTable, list[int]]:
    """Project ``table`` onto its true support.

    Returns ``(new_table, support)`` where ``new_table`` is expressed over
    ``len(support)`` variables and ``support[i]`` is the original index of new
    variable ``i``.
    """
    support = tt_support(table, nvars)
    new_nvars = len(support)
    result = 0
    for new_minterm in range(1 << new_nvars):
        old_minterm = 0
        for new_var, old_var in enumerate(support):
            if (new_minterm >> new_var) & 1:
                old_minterm |= 1 << old_var
        if (table >> old_minterm) & 1:
            result |= 1 << new_minterm
    return result, support


def tt_to_string(table: TruthTable, nvars: int) -> str:
    """Return the binary string of the table, most-significant minterm first."""
    width = 1 << nvars
    return format(table & tt_mask(nvars), f"0{width}b")
