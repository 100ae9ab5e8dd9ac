"""Algebraic factoring of an ISOP cover straight into a flat AND program.

The synthesis operations (:mod:`repro.synthesis.rewrite` and
:mod:`repro.synthesis.refactor`) resynthesise a cut function by computing
ISOP covers of both polarities (:mod:`repro.logic.isop`) and factoring each
with :func:`factor_cover` into the program format of
:func:`repro.synthesis.resynth.cut_program`.  The factoring is the classic
"quick factor" style: repeatedly divide by the literal that appears in the
most cubes.  It is not optimal but mirrors what fast industrial rewriting
does and is sufficient to realise meaningful node savings.
"""

from __future__ import annotations

from repro.logic.isop import Cube


def factor_cover(cubes: list[Cube], nvars: int,
                 program: list[int]) -> tuple[int, int]:
    """Append the quick-factored form of ``cubes`` to ``program``.

    ``program`` holds the operand pairs of ``cut_program``'s format (step
    ``k`` is slot ``nvars + 1 + k``).  Returns ``(code, literals)``: the
    output code and the literal count of the factored form.  Steps come in
    post-order; the operands of an AND or an OR (by De Morgan) pair up level
    by level.  An empty cover is const0, a cover holding the tautology cube
    const1 and a one-literal cube that literal, none with a step.
    """
    if not cubes:
        return 0, 0
    if (0, 0) in cubes:
        return 1, 0
    return _factor(cubes, nvars, program)


def _factor(cubes: list[Cube], nvars: int, program: list[int]) -> tuple[int, int]:
    """Recursive quick factoring of a non-empty cover."""
    if len(cubes) == 1:
        return _cube_code(cubes[0], nvars, program)

    key = _most_common_literal(cubes, nvars)
    if key is None:
        # No sharing: a flat OR of cube ANDs.
        factored = [_cube_code(cube, nvars, program) for cube in cubes]
        return (_and_all([code ^ 1 for code, _ in factored], nvars, program) ^ 1,
                sum(count for _, count in factored))

    var, negated = divmod(key, 2)
    bit = 1 << var
    quotient = []
    remainder = []
    for cube in cubes:
        if cube[negated] & bit:
            quotient.append((cube[0] & ~bit, cube[1] & ~bit))
        else:
            remainder.append(cube)
    code, literals = _factor(quotient, nvars, program)
    product = _and_all([key + 2, code], nvars, program)
    if not remainder:
        return product, literals + 1
    code, count = _factor(remainder, nvars, program)
    return (_and_all([product ^ 1, code ^ 1], nvars, program) ^ 1,
            literals + 1 + count)


def _cube_code(cube: Cube, nvars: int, program: list[int]) -> tuple[int, int]:
    """Return ``(code, literals)`` of the AND of the cube's literals."""
    pos_mask, neg_mask = cube
    codes = []
    mask = pos_mask | neg_mask
    while mask:
        low = mask & -mask
        codes.append(2 * low.bit_length() + bool(neg_mask & low))
        mask ^= low
    return (_and_all(codes, nvars, program) if codes else 1), len(codes)


def _and_all(codes: list[int], nvars: int, program: list[int]) -> int:
    """AND ``codes`` pairwise, level by level; return the result's code."""
    while len(codes) > 1:
        paired = []
        for i in range(0, len(codes) - 1, 2):
            program.extend((codes[i], codes[i + 1]))
            paired.append(2 * nvars + len(program))
        codes = paired + codes[len(paired) * 2:]
    return codes[0]


def _most_common_literal(cubes: list[Cube], nvars: int) -> int | None:
    """Return the literal key appearing in the most cubes (ties broken by key).

    A literal's key is ``2*var + negated``; counts are read off each cube's
    ``pos_mask``/``neg_mask`` bits.  Only literals appearing in at least two
    cubes are useful divisors.
    """
    counts = [0] * (2 * nvars)
    for cube in cubes:
        for negated, mask in enumerate(cube):
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
