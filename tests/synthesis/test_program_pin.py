"""The cut-function library and the LUT clause templates, pinned byte for byte.

``cut_program`` turns a cut function into the flat AND program that
``rewrite`` and ``refactor`` build, and ``clause_template`` into the clauses
of a LUT.  These digests were recorded from the reference implementation:

* the sha256 of ``cut_program(table, nvars)`` over a seeded corpus: every 2-
  and 3-input function; for 4 to 10 inputs, seeded random and sparse (AND of
  three random) tables with their complements; and the cone tables that
  ``refactor`` collapses on the golden instances;
* the sha256 of ``clause_template`` over the corpus entries of at most six
  inputs.

A mismatch means a factored program or a LUT encoding changed, not just its
speed.
"""

import hashlib
import random

import pytest

from repro.logic.isop import clause_template
from repro.logic.truthtable import tt_mask
from repro.synthesis import apply_operation, resynth
from repro.synthesis.resynth import cut_program
from tests.synthesis.test_golden import INSTANCES

#: Seeded random and sparse tables per input count, before complements.
PER_WIDTH = 4


def _seeded_tables():
    tables = []
    for nvars in range(4, 11):
        rng = random.Random(7919 * nvars)
        mask = tt_mask(nvars)
        for _ in range(PER_WIDTH):
            dense = rng.getrandbits(1 << nvars)
            sparse = (rng.getrandbits(1 << nvars) & rng.getrandbits(1 << nvars)
                      & rng.getrandbits(1 << nvars))
            for table in (dense, sparse):
                tables += [(nvars, table), (nvars, ~table & mask)]
    return tables


def _refactor_cone_tables(monkeypatch):
    """The ``(nvars, table)`` pairs ``refactor`` looks up on the golden instances.

    The instances are built before the patch: building one runs ``rewrite``,
    whose lookups go through the same shared cut trial.
    """
    circuits = [build() for build in INSTANCES.values()]
    seen = set()

    def recording_cut_program(table, nvars):
        seen.add((nvars, table))
        return cut_program(table, nvars)

    monkeypatch.setattr(resynth, "cut_program", recording_cut_program)
    for aig in circuits:
        apply_operation(aig, "refactor")
    return sorted(seen)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: corpus part -> (entries, sha256 of the programs, sha256 of the clause
#: templates of the entries with at most six inputs).
GOLDEN_PROGRAMS = {
    "exhaustive": (272,
        "d6a7fc41f791565509ba822ec18374b7bdb4a72cda112da76810ff97478c6cc4",
        "c8c40d28337c0a7b5b16ceadbf10c8b0120e386a7019e8580db87418cff57248"),
    "seeded": (112,
        "036fb8dd8be7a6e1887620f591521027a5190624892f2ec9684c7549d352e746",
        "8c999c8507a442bbd22f830c5ee1dba85fbb76eb7dcb407fa289d47946070115"),
    "refactor_cones": (212,
        "52ad9fad70ff404f6f8ff65b736b6e10d4fed28cf936df45c8d3014d5214da0e",
        "786559581cb1454c4ffe5fff19bce93e1d83aa06b32f96889a28aefb38e4d6ac"),
}


@pytest.fixture(scope="module")
def corpus():
    with pytest.MonkeyPatch.context() as monkeypatch:
        cones = _refactor_cone_tables(monkeypatch)
    return {
        "exhaustive": [(nvars, table) for nvars in (2, 3)
                       for table in range(1 << (1 << nvars))],
        "seeded": _seeded_tables(),
        "refactor_cones": cones,
    }


@pytest.mark.parametrize("part", sorted(GOLDEN_PROGRAMS))
def test_programs_and_clause_templates_are_pinned(corpus, part):
    entries = corpus[part]
    programs = _digest(f"{nvars} {table:x} {cut_program(table, nvars)}"
                       for nvars, table in entries)
    templates = _digest(f"{nvars} {table:x} {clause_template(table, nvars)}"
                        for nvars, table in entries if nvars <= 6)
    assert (len(entries), programs, templates) == GOLDEN_PROGRAMS[part]
