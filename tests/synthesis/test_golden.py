"""Golden outputs of the paper's synthesis recipes, pinned byte for byte.

Kernel optimisations (truth tables, ISOP, factoring, cut handling) must
change constant factors only.  These digests were recorded from the
reference implementation: the sha256 of ``write_aiger`` after every
operation of the Ours default recipe and of the Comp. (compress2) recipe, on
two seeded ``generate_test_suite`` instances where every operator does work,
the seed-1000 adder-equivalence miter and a width-4 multiplier-commutativity
miter.  The LUT mapper consumes the same cut engine, so its k=4 netlist of
each instance after the Ours recipe is pinned too, under both cost
functions, and so is the DIMACS text of that netlist's LUT encoding.
A mismatch means a synthesis result changed, not just its speed.
"""

import hashlib
from functools import partial

import pytest

from repro.aig.aiger import write_aiger
from repro.benchgen import generate_test_suite, multiplier_commutativity_miter
from repro.cnf.dimacs import render_dimacs
from repro.cnf.lut2cnf import lut_netlist_to_cnf
from repro.mapping.cost import area_cost, branching_cost
from repro.mapping.mapper import map_aig
from repro.synthesis import apply_operation
from repro.synthesis.recipe import COMPRESS2_RECIPE

#: The fixed recipe Ours runs when no agent or recipe is given
#: (``Preprocessor._choose_recipe``).
OURS_RECIPE = ("balance", "rewrite", "refactor", "rewrite", "resub", "balance")


def _suite_instance(size, seed, index):
    return generate_test_suite(size, seed=seed)[index].aig


#: instance label -> builder of the circuit.
INSTANCES = {
    "alu4_stuck_at": partial(_suite_instance, 12, 0, 11),
    "rca16_stuck_at": partial(_suite_instance, 11, 2, 10),
    "adder18_equivalence": partial(_suite_instance, 5, 1000, 4),
    "mult4_commutativity": partial(multiplier_commutativity_miter, 4),
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
    ("adder18_equivalence", "ours"): [
        (352, "aac2d85682085864adb204f371b35e99e5f43ee437ca18486e56f4d2139dab89"),
        (309, "462715cdb2ce8da806c0eccc871b4b7cb507724b55185ad4bac9a236370e0845"),
        (296, "334c5a462853d8d6fa090d4a885d9399199184fdc687ed679f57d187d26da716"),
        (275, "a45cc259f1fcffa5d77bc5b8423d85fa8965e038d6257e664c554715f344665a"),
        (275, "a45cc259f1fcffa5d77bc5b8423d85fa8965e038d6257e664c554715f344665a"),
        (274, "271f242863e41aeffbcff9f58832532da1afd0145282a3e0e60e8ed2b4fba1d7"),
    ],
    ("adder18_equivalence", "comp"): [
        (352, "aac2d85682085864adb204f371b35e99e5f43ee437ca18486e56f4d2139dab89"),
        (309, "462715cdb2ce8da806c0eccc871b4b7cb507724b55185ad4bac9a236370e0845"),
        (296, "334c5a462853d8d6fa090d4a885d9399199184fdc687ed679f57d187d26da716"),
        (294, "b3269aa9338ab3ed53b15fac49732ce871fac2cb796d489b3f6090103a72e632"),
        (269, "97e61a8ee3ab7cec59e665ca614840eaf98c179e21731fe985436f134bbc1881"),
        (269, "97e61a8ee3ab7cec59e665ca614840eaf98c179e21731fe985436f134bbc1881"),
        (269, "6bc8f086f612ec10115667a4f5bae94e6be8cf5f9e54b7c28e5e8cb2efa03019"),
    ],
    ("mult4_commutativity", "ours"): [
        (207, "594d52db6b61a5f45774024db81a8c53727abb68b2e7df132ce1bd175864451a"),
        (203, "4bac348ccbe99733720116b6af3982cb74b33d17d0c036c642e48718e90b2d3b"),
        (207, "d309c1f46f7fbef27fe40fa70d05b60d969793fe25dbfe00adb74e483d90b9ef"),
        (180, "fed4c9cdf94d559df0ca4f8907f23334086811669cc23c16aa5d060f0226ea9f"),
        (180, "fed4c9cdf94d559df0ca4f8907f23334086811669cc23c16aa5d060f0226ea9f"),
        (180, "ba5502884e09b2e3ee7aab69a61b65fb518dfcdfb74bc26f8b4f598ff917ee6e"),
    ],
    ("mult4_commutativity", "comp"): [
        (207, "594d52db6b61a5f45774024db81a8c53727abb68b2e7df132ce1bd175864451a"),
        (203, "4bac348ccbe99733720116b6af3982cb74b33d17d0c036c642e48718e90b2d3b"),
        (207, "d309c1f46f7fbef27fe40fa70d05b60d969793fe25dbfe00adb74e483d90b9ef"),
        (207, "62d5e94408ab9e8847a80c4aa68c650bbb523156da213ede4086afa6fca428df"),
        (180, "bc3412981a731a7e385961dd2c010764986bfab0f64b9671af355537de3a4a1e"),
        (180, "bc3412981a731a7e385961dd2c010764986bfab0f64b9671af355537de3a4a1e"),
        (180, "a766422071adfcc6dd66b1b5431a4418856505a8c4fa1d33f3061dc253f2ba77"),
    ],
}

#: (instance, cost) -> (LUTs, total cost, sha256 of the netlist text) of the
#: k=4 mapping of the instance after the Ours recipe.
GOLDEN_MAPPING = {
    ("adder18_equivalence", "area"): (
        93, 93.0, "af28575e493e309727cb40548956b67f45c68c38d49fd495a0844855ff29f2b7"),
    ("adder18_equivalence", "branching"): (
        135, 520.0, "5e73f59511445d3a231281291d97f93de7cd77e4b95263c38dc9d687fbc027bd"),
    ("alu4_stuck_at", "area"): (
        4, 4.0, "9ca6b8f3d0792a686b4605cf8b39d479a90f02bfe2df68e83dee26d8d2348b0e"),
    ("alu4_stuck_at", "branching"): (
        4, 20.0, "9ca6b8f3d0792a686b4605cf8b39d479a90f02bfe2df68e83dee26d8d2348b0e"),
    ("mult4_commutativity", "area"): (
        69, 69.0, "ded2592f54435a1272b479448ff066b25135b93ccd5ec626a3c796f4951bb3f5"),
    ("mult4_commutativity", "branching"): (
        91, 368.0, "275ff5c30e9fe9bbfc98e0c382e7702355e809f19569555244a169bfe5eccc5e"),
    ("rca16_stuck_at", "area"): (
        48, 48.0, "817dee6a9aebfc12e942d6ec823a41760246dd9234cb71f416f76e069ac06f09"),
    ("rca16_stuck_at", "branching"): (
        51, 242.0, "06cb8626ee977e22e46be673103e8f34e67d98c74d8de6b4e5a7c109ced82b62"),
}

#: (instance, cost) -> (variables, clauses, sha256 of ``render_dimacs``) of
#: the LUT encoding of that k=4 mapping.
GOLDEN_CNF = {
    ("adder18_equivalence", "area"): (
        129, 635, "1eed5c80eb6d6dac367145c8ea84c2ca34dbcc31bb78e7892f98a2b6e8920dd2"),
    ("adder18_equivalence", "branching"): (
        171, 521, "966f2b51fd9bb8a57e596abdddecea863e58ab00643bf8bb5a5c702703093f06"),
    ("alu4_stuck_at", "area"): (
        14, 21, "4c889e2554910328b9da2a584646211f482bdbe63c8ff8e28885d020a8532a0f"),
    ("alu4_stuck_at", "branching"): (
        14, 21, "4c889e2554910328b9da2a584646211f482bdbe63c8ff8e28885d020a8532a0f"),
    ("mult4_commutativity", "area"): (
        77, 412, "67865bd257b14b7d4e9aa247e399b5f22e9ab274a8e785b90a933e3bcd06110b"),
    ("mult4_commutativity", "branching"): (
        99, 369, "6e6edcc2eebc44b532d93dae59f1f046f6b9ce42afbf4d1d9c24f7ddb93817ae"),
    ("rca16_stuck_at", "area"): (
        80, 270, "e4aa260d5ad46b46cbe34c7d487c60a2d69d8d97754292c241bed8be60cc6fda"),
    ("rca16_stuck_at", "branching"): (
        83, 243, "11135bbca0e277ac16a5c38f273aaf6ee0762d39aef6d0a00039de1cc251bb11"),
}

RECIPES = {"ours": OURS_RECIPE, "comp": COMPRESS2_RECIPE}
COSTS = {"area": area_cost, "branching": branching_cost}


@pytest.fixture(scope="module")
def instances():
    return {label: build() for label, build in INSTANCES.items()}


@pytest.fixture(scope="module")
def after_ours(instances):
    """Each instance after the Ours recipe."""
    outputs = {}
    for label, current in instances.items():
        for name in OURS_RECIPE:
            current = apply_operation(current, name)
        outputs[label] = current
    return outputs


@pytest.mark.parametrize("label, recipe_name", sorted(GOLDEN))
def test_recipe_outputs_match_golden_digests(instances, label, recipe_name):
    current = instances[label]
    observed = []
    for name in RECIPES[recipe_name]:
        current = apply_operation(current, name)
        digest = hashlib.sha256(write_aiger(current).encode()).hexdigest()
        observed.append((current.num_ands, digest))
    assert observed == GOLDEN[(label, recipe_name)]


def _netlist_text(netlist):
    """One line per PI, LUT and PO: everything a mapping decides."""
    lines = [f"pi {node} {name}"
             for node, name in zip(netlist.pis, netlist.pi_names)]
    lines += [f"lut {lut.node_id} {' '.join(map(str, lut.inputs))} {lut.table:x}"
              for lut in netlist.luts()]
    lines += [f"po {node} {int(complemented)} {name}"
              for (node, complemented), name in zip(netlist.pos, netlist.po_names)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("label, cost_name", sorted(GOLDEN_MAPPING))
def test_mapping_after_ours_matches_golden(after_ours, label, cost_name):
    result = map_aig(after_ours[label], k=4, cost_fn=COSTS[cost_name])
    digest = hashlib.sha256(_netlist_text(result.netlist).encode()).hexdigest()
    assert (result.num_luts, result.total_cost, digest) == GOLDEN_MAPPING[(label, cost_name)]


@pytest.mark.parametrize("label, cost_name", sorted(GOLDEN_CNF))
def test_lut_encoding_after_ours_matches_golden(after_ours, label, cost_name):
    netlist = map_aig(after_ours[label], k=4, cost_fn=COSTS[cost_name]).netlist
    cnf = lut_netlist_to_cnf(netlist)
    digest = hashlib.sha256(render_dimacs(cnf).encode()).hexdigest()
    assert (cnf.num_vars, cnf.num_clauses, digest) == GOLDEN_CNF[(label, cost_name)]
