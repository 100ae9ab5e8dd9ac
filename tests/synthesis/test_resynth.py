"""Tests for ``repro.synthesis.resynth``: the cut-function library and the
replacement driver."""

import random

import pytest

from repro.aig import AIG, lit_var
from repro.aig.aiger import write_aiger
from repro.aig.simulate import po_truth_tables
from repro.logic.isop import isop
from repro.logic.sop import factor_cover
from repro.logic.truthtable import tt_mask, tt_var
from repro.synthesis import apply_operation
from repro.synthesis.resynth import (
    ReplacementPass,
    build_factored,
    build_within,
    cut_program,
    replace_nodes,
)
from tests.helpers import functionally_equivalent, random_aig
from tests.synthesis.test_golden import INSTANCES, RECIPES

#: Seeded random truth tables, 12 per input count, constants excluded.
TABLES = {f"n{nvars}-{i}":
          (nvars, random.Random(1000 * nvars + i).getrandbits(1 << nvars))
          for nvars in range(1, 11) for i in range(12)}
TABLES = {name: (nvars, table) for name, (nvars, table) in TABLES.items()
          if table not in (0, tt_mask(nvars))}


@pytest.mark.parametrize("nvars, table", TABLES.values(), ids=TABLES.keys())
def test_factored_form_evaluates_to_its_table(nvars, table):
    """Both polarities' factored forms compute their function, not only the
    one ``cut_program`` keeps."""
    for function in (table, ~table & tt_mask(nvars)):
        program, _ = _factored_polarity(function, nvars)
        aig = AIG()
        leaves = [aig.add_pi() for _ in range(nvars)]
        aig.add_po(build_factored(aig, program, leaves))
        assert po_truth_tables(aig) == [function]


@pytest.mark.parametrize("nvars, table", TABLES.values(), ids=TABLES.keys())
def test_compiled_program_matches_exhaustive_simulation(nvars, table):
    """The program computes its table, and the dry run counts its new nodes."""
    program = cut_program(table, nvars)
    aig = AIG()
    leaves = [aig.add_pi() for _ in range(nvars)]
    first_new_var = aig.num_vars
    results = []
    add_and = aig.add_and

    def recording_add_and(a, b):
        results.append(add_and(a, b))
        return results[-1]

    aig.add_and = recording_add_and
    predicted, literal = build_within(aig, program, leaves, len(program))
    aig.add_po(literal)
    assert po_truth_tables(aig) == [table]
    # The dry run counts every step whose result is a node the build
    # creates, a step that meets a node built earlier in the same program
    # included; without such repeats that is exactly the ANDs added.
    new_steps = [lit_var(r) for r in results if lit_var(r) >= first_new_var]
    assert predicted == len(new_steps)
    assert aig.num_ands == len(set(new_steps))
    assert isinstance(program, tuple)
    assert hash(program) == hash(cut_program(table, nvars))
    with pytest.raises(TypeError):
        program[0] = 0


def _factored_polarity(table, nvars):
    """The program of one polarity's factored ISOP cover, output code last."""
    program = []
    code, literals = factor_cover(isop(table, table, nvars), nvars, program)
    return (*program, code), literals


def test_offset_wins_when_it_has_fewer_literals():
    # ~(ab + cd): the onset ~a(~c + ~d) + ~b(~c + ~d) has 6 literals and 5
    # steps, the offset ab + cd has 4 literals and 3 steps.
    nvars = 4
    offset = (tt_var(0, nvars) & tt_var(1, nvars)) | (tt_var(2, nvars) & tt_var(3, nvars))
    table = ~offset & tt_mask(nvars)
    onset_program, onset_literals = _factored_polarity(table, nvars)
    offset_program, offset_literals = _factored_polarity(offset, nvars)
    assert (onset_literals, len(onset_program)) == (6, 11)
    assert (offset_literals, len(offset_program)) == (4, 7)
    program = cut_program(table, nvars)
    assert program == (*offset_program[:-1], offset_program[-1] ^ 1)
    assert len(program) == 7


def test_a_literal_tie_keeps_the_onset():
    # XOR: the onset a~b + ~ab and the offset ab + ~a~b both have 4 literals.
    nvars = 2
    table = tt_var(0, nvars) ^ tt_var(1, nvars)
    onset_program, onset_literals = _factored_polarity(table, nvars)
    offset_program, offset_literals = _factored_polarity(~table & tt_mask(nvars), nvars)
    assert onset_literals == offset_literals == 4
    assert onset_program[:-1] != offset_program[:-1]
    assert cut_program(table, nvars) == onset_program


def test_dry_run_reuses_existing_structure():
    nvars, table = TABLES["n10-0"]
    program = cut_program(table, nvars)
    aig = AIG()
    leaves = [aig.add_pi() for _ in range(nvars)]
    literal = build_factored(aig, program, leaves)
    num_vars = aig.num_vars
    assert build_within(aig, program, leaves, 0) == (0, literal)
    assert aig.num_vars == num_vars


def test_one_entry_per_table():
    cut_program.cache_clear()
    first = cut_program(0b0110, 2)
    assert cut_program(0b0110, 2) is first
    info = cut_program.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _recipe_texts(aig, recipe_name):
    texts = []
    for name in RECIPES[recipe_name]:
        aig = apply_operation(aig, name)
        texts.append(write_aiger(aig))
    return texts


#: The two golden instances these tests synthesise.
LABELS = ("alu4_stuck_at", "rca16_stuck_at")


@pytest.fixture(scope="module")
def instances():
    return {label: INSTANCES[label]() for label in LABELS}


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("recipe_name", sorted(RECIPES))
def test_outputs_do_not_depend_on_library_contents(instances, label,
                                                   recipe_name):
    """Same input, same output, whatever the process synthesised before."""
    (other,) = set(instances) - {label}
    cut_program.cache_clear()
    cold = _recipe_texts(instances[label], recipe_name)
    cut_program.cache_clear()
    _recipe_texts(instances[other], recipe_name)
    warmed = _recipe_texts(instances[label], recipe_name)
    again = _recipe_texts(instances[label], recipe_name)
    assert warmed == cold
    assert again == cold


@pytest.mark.parametrize("second", ["same", "complement", "const0", "const1"])
def test_dry_run_applies_add_and_rules(second):
    aig = AIG()
    x = aig.add_pi()
    leaves = [x, {"same": x, "complement": x ^ 1, "const0": 0, "const1": 1}[second]]
    program = cut_program(0b1000, 2)  # x0 AND x1
    assert build_within(aig, program, leaves, 0) == (
        0, build_factored(aig, program, leaves))
    assert aig.num_ands == 0


def _structure(aig):
    return (list(aig.fanin_array), aig.pis, aig.pos, aig.pi_names,
            aig.po_names)


def _has_no_dangling_nodes(aig):
    return _structure(aig) == _structure(aig.cleanup())


@pytest.mark.parametrize("recipe_name", sorted(RECIPES))
def test_operator_outputs_equal_their_own_cleanup(instances, recipe_name):
    """``ReplacementPass.finalize`` builds only what the POs reach."""
    circuits = [random_aig(num_pis=6, num_nodes=60, seed=seed)
                for seed in range(12)] + list(instances.values())
    for aig in circuits:
        for name in RECIPES[recipe_name]:
            aig = apply_operation(aig, name)
            assert _has_no_dangling_nodes(aig), (recipe_name, name)


def test_finalize_drops_a_fanin_stranded_by_a_folded_and():
    aig = AIG()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    x = aig.add_and(a, b)
    z = aig.add_and(a, c)
    aig.add_po(aig.add_and(x, z))
    pass_state = ReplacementPass(aig)
    pass_state.replace(lit_var(z), x ^ 1)  # the PO's AND becomes x AND NOT x
    result = pass_state.finalize()
    assert result.pos == [0]
    assert result.num_ands == 0
    assert _has_no_dangling_nodes(result)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("finder", ["none", "own literal"])
def test_replace_nodes_without_replacements_is_cleanup(seed, finder):
    aig = random_aig(num_pis=6, num_nodes=60, seed=seed)
    before = _structure(aig)
    seen = []

    def find(copy, var, fanout_counts, pass_state):
        assert copy is not aig
        seen.append(var)
        return None if finder == "none" else 2 * var

    result = replace_nodes(aig, find)
    assert seen == list(aig.and_vars())
    assert _structure(result) == _structure(aig.cleanup())
    assert _structure(aig) == before


def test_replace_nodes_rebuilds_fanouts_over_the_replacement():
    aig = AIG()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    ab = aig.add_and(a, b)
    redundant = aig.add_and(ab, a)  # computes ab again
    aig.add_po(aig.add_and(redundant, c))
    before = _structure(aig)

    def find(copy, var, fanout_counts, pass_state):
        return ab if var == lit_var(redundant) else None

    result = replace_nodes(aig, find)
    assert result.num_ands == 2
    root = lit_var(result.pos[0])
    assert sorted(result.fanins(root)) == sorted((ab, c))
    assert functionally_equivalent(result, aig)
    assert _structure(aig) == before
