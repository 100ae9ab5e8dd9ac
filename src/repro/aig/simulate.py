"""Bit-parallel simulation of AIGs on Python ints.

One kernel, :func:`simulate_rows`, simulates every input pattern at once:
a *row* is a Python int holding one bit per pattern, and a single pass over
the AIG computes the row of every variable.  Everything else is that kernel
on particular rows:

* :func:`evaluate` runs one pattern (one-bit rows);
* :func:`po_truth_tables` runs every pattern of up to
  :data:`EXHAUSTIVE_MAX_PIS` inputs (the rows of
  :func:`exhaustive_pi_rows`, input ``i``'s truth table);
* SAT sweeping (:mod:`repro.aig.sweep`) builds its candidate classes from
  exhaustive or :func:`random_pi_rows` rows and replays each counterexample
  as one-bit rows;
* the DeepGate2-substitute embedding (:mod:`repro.features.deepgate`)
  popcounts random-pattern rows for its signal probabilities.

:func:`simulate`, :func:`po_values` and :func:`exhaustive_pi_words` keep an
array interface for callers that hold patterns as ``numpy.uint64`` words
(64 patterns per word); they convert at the edge.  numpy is imported only by
those three functions and by :func:`random_pi_rows`, on their first call, so
importing this module, :func:`evaluate` and :func:`po_truth_tables` never
load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.aig.aig import AIG, lit_is_complemented, lit_var
from repro.errors import AigError
from repro.logic.truthtable import tt_var

if TYPE_CHECKING:
    import numpy as np

#: The most inputs whose every pattern is simulated (65 536 patterns).
EXHAUSTIVE_MAX_PIS = 16


def simulate_rows(aig: AIG, pi_rows: list[int], full: int) -> list[int]:
    """Simulate patterns held one per bit; return every variable's row.

    ``pi_rows[i]`` holds PI ``i``'s value in each pattern and ``full`` has
    a one for each pattern.  The constant node's row is 0.
    """
    values = [0] * aig.num_vars
    for pi_var, row in zip(aig.pis, pi_rows):
        values[pi_var] = row
    flip = (0, full)
    for var, fanins in enumerate(aig.fanin_array):
        if fanins is not None:
            lit0, lit1 = fanins
            values[var] = ((values[lit0 >> 1] ^ flip[lit0 & 1])
                           & (values[lit1 >> 1] ^ flip[lit1 & 1]))
    return values


def exhaustive_pi_rows(num_pis: int) -> list[int]:
    """Return the rows enumerating all ``2**num_pis`` patterns.

    Pattern ``m`` gives PI ``i`` bit ``i`` of ``m``, so input ``i``'s row is
    its truth table :func:`repro.logic.truthtable.tt_var`.  Supported for up
    to :data:`EXHAUSTIVE_MAX_PIS` inputs.
    """
    if num_pis > EXHAUSTIVE_MAX_PIS:
        raise AigError(f"exhaustive simulation supports at most "
                       f"{EXHAUSTIVE_MAX_PIS} primary inputs")
    return [tt_var(index, num_pis) for index in range(num_pis)]


def random_pi_rows(num_pis: int, num_patterns: int, seed: int) -> list[int]:
    """Return seeded pseudo-random rows for ``num_pis`` inputs.

    ``num_patterns`` is rounded up to a multiple of 64 (at least 64).  The
    patterns are ``numpy.random.default_rng(seed)``'s 64-bit draws, one
    ``(num_pis, num_words)`` array, word ``w`` holding patterns
    ``64*w .. 64*w + 63``.
    """
    import numpy as np

    num_words = max(1, (num_patterns + 63) // 64)
    rng = np.random.default_rng(seed)
    return _words_to_rows(rng.integers(0, 2 ** 64, size=(num_pis, num_words),
                                       dtype=np.uint64))


def _words_to_rows(words: np.ndarray) -> list[int]:
    return [int.from_bytes(row.astype("<u8", copy=False).tobytes(), "little")
            for row in words]


def _rows_to_words(rows: list[int], num_words: int) -> np.ndarray:
    import numpy as np

    width = 8 * num_words
    words = np.empty((len(rows), num_words), dtype=np.uint64)
    for index, row in enumerate(rows):
        words[index] = np.frombuffer(row.to_bytes(width, "little"), dtype="<u8")
    return words


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
    values = simulate_rows(aig, _words_to_rows(pi_words),
                           (1 << (64 * num_words)) - 1)
    return _rows_to_words(values, num_words)


def po_values(aig: AIG, values: np.ndarray) -> np.ndarray:
    """Extract primary-output words from a full simulation array."""
    import numpy as np

    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    outputs = np.zeros((aig.num_pos, values.shape[1]), dtype=np.uint64)
    for index, po in enumerate(aig.pos):
        word = values[lit_var(po)]
        outputs[index] = word ^ ones if lit_is_complemented(po) else word
    return outputs


def exhaustive_pi_words(num_pis: int) -> np.ndarray:
    """Return packed input words enumerating all ``2**num_pis`` patterns.

    Supported for up to 16 PIs (65 536 patterns = 1 024 words); fewer than
    64 patterns are zero-padded to one word.
    """
    rows = exhaustive_pi_rows(num_pis)
    return _rows_to_words(rows, max(1, (1 << num_pis) // 64))


def po_truth_tables(aig: AIG) -> list[int]:
    """Return the complete truth table of every PO as a bit-packed integer.

    Bit ``i`` of the result corresponds to the input minterm ``i`` with PI 0
    as the least-significant bit.  Requires at most 16 PIs.
    """
    pi_rows = exhaustive_pi_rows(aig.num_pis)
    full = (1 << (1 << aig.num_pis)) - 1
    values = simulate_rows(aig, pi_rows, full)
    return [values[po >> 1] ^ (full if po & 1 else 0) for po in aig.pos]


def evaluate(aig: AIG, assignment: dict[int, bool] | list[bool]) -> list[bool]:
    """Evaluate the AIG on one concrete input assignment.

    ``assignment`` is either a list ordered like ``aig.pis`` or a mapping from
    PI variable index to Boolean value.  Returns one Boolean per PO.
    """
    if isinstance(assignment, dict):
        ordered = [assignment[pi] for pi in aig.pis]
    else:
        if len(assignment) != aig.num_pis:
            raise AigError(
                f"assignment has {len(assignment)} values for {aig.num_pis} inputs"
            )
        ordered = assignment
    values = simulate_rows(aig, [1 if value else 0 for value in ordered], 1)
    return [bool(values[po >> 1] ^ (po & 1)) for po in aig.pos]
