"""Tests for the process-wide cut-function library in ``repro.synthesis.resynth``."""

import random

import pytest

from repro.aig import AIG, lit_var
from repro.aig.aiger import write_aiger
from repro.aig.simulate import po_truth_tables
from repro.benchgen import generate_test_suite
from repro.logic.sop import factored_to_tt
from repro.logic.truthtable import tt_mask
from repro.synthesis import apply_operation
from repro.synthesis.resynth import (
    ReplacementPass,
    build_factored,
    count_new_nodes,
    cut_program,
    factored_form,
)
from tests.helpers import random_aig
from tests.synthesis.test_golden import INSTANCES, RECIPES

#: Seeded random truth tables, 12 per input count, constants excluded.
TABLES = {f"n{nvars}-{i}":
          (nvars, random.Random(1000 * nvars + i).getrandbits(1 << nvars))
          for nvars in range(1, 11) for i in range(12)}
TABLES = {name: (nvars, table) for name, (nvars, table) in TABLES.items()
          if table not in (0, tt_mask(nvars))}


@pytest.mark.parametrize("nvars, table", TABLES.values(), ids=TABLES.keys())
def test_factored_form_evaluates_to_its_table(nvars, table):
    assert factored_to_tt(factored_form(table, nvars), nvars) == table


@pytest.mark.parametrize("nvars, table", TABLES.values(), ids=TABLES.keys())
def test_compiled_program_matches_exhaustive_simulation(nvars, table):
    program = cut_program(table, nvars)
    aig = AIG()
    leaves = [aig.add_pi() for _ in range(nvars)]
    predicted = count_new_nodes(aig, program, leaves)
    first_new_var = aig.num_vars
    results = []
    add_and = aig.add_and

    def recording_add_and(a, b):
        results.append(add_and(a, b))
        return results[-1]

    aig.add_and = recording_add_and
    aig.add_po(build_factored(aig, program, leaves))
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


def test_count_new_nodes_reuses_existing_structure():
    nvars, table = TABLES["n10-0"]
    program = cut_program(table, nvars)
    aig = AIG()
    leaves = [aig.add_pi() for _ in range(nvars)]
    build_factored(aig, program, leaves)
    assert count_new_nodes(aig, program, leaves) == 0


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


@pytest.fixture(scope="module")
def instances():
    return {label: generate_test_suite(size, seed=seed)[index].aig
            for label, (size, seed, index) in INSTANCES.items()}


@pytest.mark.parametrize("label", sorted(INSTANCES))
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
def test_count_new_nodes_applies_add_and_rules(second):
    aig = AIG()
    x = aig.add_pi()
    leaves = [x, {"same": x, "complement": x ^ 1, "const0": 0, "const1": 1}[second]]
    program = cut_program(0b1000, 2)  # x0 AND x1
    predicted = count_new_nodes(aig, program, leaves)
    build_factored(aig, program, leaves)
    assert predicted == aig.num_ands == 0


def _has_no_dangling_nodes(aig):
    clean = aig.cleanup()
    return (list(aig.fanin_array) == list(clean.fanin_array)
            and aig.pos == clean.pos and aig.pis == clean.pis)


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
