"""Bit-parallel simulation of AIGs.

Simulation serves three purposes in the framework:

* functional-equivalence checking in the test-suite (exhaustive simulation);
* random-pattern signatures for the DeepGate2-substitute embedding
  (:mod:`repro.features.deepgate`);
* the simulation benchmarks of :mod:`repro.perf`.

Patterns are packed 64 per machine word using ``numpy.uint64`` arrays, so a
single pass over the AIG evaluates 64 input vectors at once.  numpy is
imported by the functions that take or return arrays, on their first call,
so importing this module (or :mod:`repro.aig`) does not load it; SAT
sweeping simulates on Python ints instead (:mod:`repro.aig.sweep`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

from repro.aig.aig import AIG, lit_is_complemented, lit_var
from repro.errors import AigError

if TYPE_CHECKING:
    import numpy as np

#: Per-AIG cache of the flattened AND-node fanin arrays used by simulate().
#: AIGs are append-only (a node's fanins never change once created), so a
#: cached entry stays valid as long as the variable count is unchanged.
_FANIN_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def _fanin_arrays(aig: AIG) -> tuple[list[int], list[int], list[int],
                                     list[int], list[int]]:
    """Return (and_vars, fanin0, fanin1, comp0, comp1) as plain int lists.

    Flattening the per-node ``fanins()`` tuples into parallel lists once per
    AIG removes all attribute lookups and literal decoding from the
    simulation inner loop.
    """
    cached = _FANIN_CACHE.get(aig)
    if cached is not None and cached[0] == aig.num_vars:
        return cached[1]
    and_vars: list[int] = []
    fanin0: list[int] = []
    fanin1: list[int] = []
    comp0: list[int] = []
    comp1: list[int] = []
    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        and_vars.append(var)
        fanin0.append(lit0 >> 1)
        fanin1.append(lit1 >> 1)
        comp0.append(lit0 & 1)
        comp1.append(lit1 & 1)
    arrays = (and_vars, fanin0, fanin1, comp0, comp1)
    _FANIN_CACHE[aig] = (aig.num_vars, arrays)
    return arrays


def simulate(aig: AIG, pi_words: np.ndarray) -> np.ndarray:
    """Simulate ``aig`` on packed input patterns.

    ``pi_words`` has shape ``(num_pis, num_words)`` and dtype ``uint64``; bit
    ``j`` of word ``w`` of row ``i`` is the value of PI ``i`` in pattern
    ``64*w + j``.  The return value has shape ``(num_vars, num_words)`` and
    holds the simulated words of every variable (the constant node is row 0,
    all zeros).
    """
    import numpy as np

    pi_words = np.asarray(pi_words, dtype=np.uint64)
    if pi_words.ndim != 2 or pi_words.shape[0] != aig.num_pis:
        raise AigError(
            f"pi_words must have shape (num_pis={aig.num_pis}, num_words), "
            f"got {pi_words.shape}"
        )
    num_words = pi_words.shape[1]
    values = np.zeros((aig.num_vars, num_words), dtype=np.uint64)
    for row, pi_var in enumerate(aig.pis):
        values[pi_var] = pi_words[row]
    and_vars, fanin0, fanin1, comp0, comp1 = _fanin_arrays(aig)
    # Scratch buffers for complemented edges keep the per-node work
    # allocation-free: every numpy op below writes into preallocated memory.
    scratch0 = np.empty(num_words, dtype=np.uint64)
    scratch1 = np.empty(num_words, dtype=np.uint64)
    for index, var in enumerate(and_vars):
        word0 = values[fanin0[index]]
        word1 = values[fanin1[index]]
        if comp0[index]:
            np.bitwise_not(word0, out=scratch0)
            word0 = scratch0
        if comp1[index]:
            np.bitwise_not(word1, out=scratch1)
            word1 = scratch1
        np.bitwise_and(word0, word1, out=values[var])
    return values


def po_values(aig: AIG, values: np.ndarray) -> np.ndarray:
    """Extract primary-output words from a full simulation array."""
    import numpy as np

    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    outputs = np.zeros((aig.num_pos, values.shape[1]), dtype=np.uint64)
    for index, po in enumerate(aig.pos):
        word = values[lit_var(po)]
        outputs[index] = word ^ ones if lit_is_complemented(po) else word
    return outputs


def simulate_random(aig: AIG, num_patterns: int = 64,
                    seed: int = 0) -> np.ndarray:
    """Simulate ``aig`` on pseudo-random patterns; return the full value array.

    ``num_patterns`` is rounded up to a multiple of 64.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    num_words = max(1, (num_patterns + 63) // 64)
    pi_words = rng.integers(0, 2 ** 64, size=(aig.num_pis, num_words),
                            dtype=np.uint64)
    return simulate(aig, pi_words)


def exhaustive_pi_words(num_pis: int) -> np.ndarray:
    """Return packed input words enumerating all ``2**num_pis`` patterns.

    Supported for up to 16 PIs (65 536 patterns = 1 024 words).
    """
    if num_pis > 16:
        raise AigError("exhaustive simulation supports at most 16 primary inputs")
    import numpy as np

    num_patterns = 1 << num_pis
    num_words = max(1, num_patterns // 64)
    total_bits = num_words * 64
    # Pattern index of every bit position, broadcast against the PI axis:
    # bits[pi, b] is the value of PI `pi` in pattern `b` (zero-padded when
    # fewer than 64 patterns exist).
    pattern_index = np.arange(total_bits, dtype=np.uint64)
    pi_shift = np.arange(num_pis, dtype=np.uint64)[:, None]
    bits = (pattern_index[None, :] >> pi_shift) & np.uint64(1)
    if num_patterns < total_bits:
        bits &= (pattern_index[None, :] < num_patterns).astype(np.uint64)
    # Pack 64 consecutive pattern bits into each output word.
    bit_shift = np.arange(64, dtype=np.uint64)[None, None, :]
    packed = bits.reshape(num_pis, num_words, 64) << bit_shift
    return np.bitwise_or.reduce(packed, axis=2)


def simulate_exhaustive(aig: AIG) -> np.ndarray:
    """Simulate every input pattern (requires at most 16 PIs)."""
    return simulate(aig, exhaustive_pi_words(aig.num_pis))


def po_truth_tables(aig: AIG) -> list[int]:
    """Return the complete truth table of every PO as a bit-packed integer.

    Bit ``i`` of the result corresponds to the input minterm ``i`` with PI 0
    as the least-significant bit.  Requires at most 16 PIs.
    """
    values = simulate_exhaustive(aig)
    outputs = po_values(aig, values)
    num_patterns = 1 << aig.num_pis
    tables = []
    for row in outputs:
        table = 0
        for word_index, word in enumerate(row):
            table |= int(word) << (64 * word_index)
        mask = (1 << num_patterns) - 1
        tables.append(table & mask)
    return tables


def evaluate(aig: AIG, assignment: dict[int, bool] | list[bool]) -> list[bool]:
    """Evaluate the AIG on one concrete input assignment.

    ``assignment`` is either a list ordered like ``aig.pis`` or a mapping from
    PI variable index to Boolean value.  Returns one Boolean per PO.
    """
    if isinstance(assignment, dict):
        ordered = [bool(assignment[pi]) for pi in aig.pis]
    else:
        if len(assignment) != aig.num_pis:
            raise AigError(
                f"assignment has {len(assignment)} values for {aig.num_pis} inputs"
            )
        ordered = [bool(v) for v in assignment]
    values = [False] * aig.num_vars
    for row, pi_var in enumerate(aig.pis):
        values[pi_var] = ordered[row]
    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        val0 = values[lit_var(lit0)] ^ lit_is_complemented(lit0)
        val1 = values[lit_var(lit1)] ^ lit_is_complemented(lit1)
        values[var] = val0 and val1
    results = []
    for po in aig.pos:
        value = values[lit_var(po)] ^ lit_is_complemented(po)
        results.append(bool(value))
    return results
