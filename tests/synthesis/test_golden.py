"""Golden outputs of the paper's synthesis recipes, pinned byte for byte.

Kernel optimisations (truth tables, ISOP, factoring, cut handling) must
change constant factors only.  These digests were recorded from the
reference implementation: the sha256 of ``write_aiger`` after every
operation of the Ours default recipe and of the Comp. (compress2) recipe, on
two seeded ``generate_test_suite`` instances where every operator does work.
A mismatch means a synthesis result changed, not just its speed.
"""

import hashlib

import pytest

from repro.aig.aiger import write_aiger
from repro.benchgen import generate_test_suite
from repro.synthesis import apply_operation
from repro.synthesis.recipe import COMPRESS2_RECIPE

#: The fixed recipe Ours runs when no agent or recipe is given
#: (``Preprocessor._choose_recipe``).
OURS_RECIPE = ("balance", "rewrite", "refactor", "rewrite", "resub", "balance")

#: instance label -> (suite size, suite seed, index in the suite).
INSTANCES = {
    "alu4_stuck_at": (12, 0, 11),
    "rca16_stuck_at": (11, 2, 10),
}

#: (instance, recipe) -> [(AND count, sha256 of write_aiger)] after each op.
GOLDEN = {
    ("alu4_stuck_at", "ours"): [
        (57, "20c28c3b5d7e4abc7af614aac0f5e0b049f75f7b6c10b9eb285f034406c90389"),
        (51, "6f36e5c57511f93938c9e98ab2d8843a8e03e567d056d8fad85944db01520762"),
        (14, "358dced09b3b2ad9c23679d2da508e3857c11acc0879453c246d524163b9455a"),
        (14, "358dced09b3b2ad9c23679d2da508e3857c11acc0879453c246d524163b9455a"),
        (14, "358dced09b3b2ad9c23679d2da508e3857c11acc0879453c246d524163b9455a"),
        (14, "721f05d380f8a1725ba3b21df850d24354a26220e342cad38f29b1d253220461"),
    ],
    ("alu4_stuck_at", "comp"): [
        (57, "20c28c3b5d7e4abc7af614aac0f5e0b049f75f7b6c10b9eb285f034406c90389"),
        (51, "6f36e5c57511f93938c9e98ab2d8843a8e03e567d056d8fad85944db01520762"),
        (14, "358dced09b3b2ad9c23679d2da508e3857c11acc0879453c246d524163b9455a"),
        (14, "721f05d380f8a1725ba3b21df850d24354a26220e342cad38f29b1d253220461"),
        (11, "ec400621161ae042b266593244e1bb78bce7e3b752c597afecabd1cd6da5855b"),
        (11, "ec400621161ae042b266593244e1bb78bce7e3b752c597afecabd1cd6da5855b"),
        (11, "9b61901f1866c03b34bcecc92330260de5f68784671ed680c99bf2c063f7d02d"),
    ],
    ("rca16_stuck_at", "ours"): [
        (262, "68261d7504de586ad24b51d32cbc96a5c3f742706f5777f508648b2581391941"),
        (175, "32d97460f0eee82758509cc8a8c9688cabcff9b031b9ae47bc5e228d3b903dd8"),
        (156, "acd1def5014e126c95dba70d2faa66333dc9b5d684e3ce0628e3c1d47823382e"),
        (140, "2b4c05ea365eb6fc2a79fe64b51440b24111b7ed1159436e4ecc7d68903b50b1"),
        (134, "995c38ae3393dee8218a825b3e01d18fd50b60d255bdb57e54c8b5e23c443125"),
        (134, "595814e15027e09457a7b83b86fa7c9699e1f90e9cbbf26264bf9c902cb4f571"),
    ],
    ("rca16_stuck_at", "comp"): [
        (262, "68261d7504de586ad24b51d32cbc96a5c3f742706f5777f508648b2581391941"),
        (175, "32d97460f0eee82758509cc8a8c9688cabcff9b031b9ae47bc5e228d3b903dd8"),
        (156, "acd1def5014e126c95dba70d2faa66333dc9b5d684e3ce0628e3c1d47823382e"),
        (156, "8fd6269198872705f170ad9d681a4cb251afbe128e110b09177aaada1fe2ceb1"),
        (146, "ea795e8a2765fd6f1b3b3fc6070ee8fe3bd6e9e12f2db9c2333bbb7a9f7b5630"),
        (144, "a2bb1acb8aeabe16b5de366765dc871bf070828042eb3ddc8af38258bb331682"),
        (144, "534ecff4579e6a805e1b602451fed39bf3081b2ca71aa066ef0e6561e58352ee"),
    ],
}

RECIPES = {"ours": OURS_RECIPE, "comp": COMPRESS2_RECIPE}


@pytest.fixture(scope="module")
def instances():
    return {label: generate_test_suite(size, seed=seed)[index].aig
            for label, (size, seed, index) in INSTANCES.items()}


@pytest.mark.parametrize("label, recipe_name", sorted(GOLDEN))
def test_recipe_outputs_match_golden_digests(instances, label, recipe_name):
    current = instances[label]
    observed = []
    for name in RECIPES[recipe_name]:
        current = apply_operation(current, name)
        digest = hashlib.sha256(write_aiger(current).encode()).hexdigest()
        observed.append((current.num_ands, digest))
    assert observed == GOLDEN[(label, recipe_name)]
