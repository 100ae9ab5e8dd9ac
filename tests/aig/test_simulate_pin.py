"""AIG simulation pinned byte for byte.

These digests were recorded from the reference implementation over a seeded
corpus: random AIGs of 1 to 20 inputs, the instances of
``generate_test_suite(12, seed=3)``, two multiplier miters and two
hand-built circuits with constant and complemented outputs.  Per circuit
they pin

* ``simulate`` and ``po_values`` on seeded random words of width 1, 3 and
  40 (the arrays' shape, dtype and bytes);
* ``po_truth_tables`` (up to 16 inputs; ``None`` above);
* ``evaluate`` on 16 seeded patterns, as lists and as PI-keyed dicts;
* ``DeepGateEmbedder.embed`` under three settings (the float64 bytes).

``exhaustive_pi_words(n)`` is pinned separately for every ``n`` up to 16.
Each digest is the first 16 hex digits of a sha256.  A mismatch means a
simulated value changed, not just the speed.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.aig import AIG, CONST0, CONST1, lit_not
from repro.aig.simulate import (
    evaluate,
    exhaustive_pi_words,
    po_truth_tables,
    po_values,
    simulate,
)
from repro.benchgen import generate_test_suite
from repro.benchgen.lec import multiplier_commutativity_miter
from repro.benchgen.random_logic import random_aig
from repro.features.deepgate import DeepGateEmbedder

#: word widths of the pinned ``simulate`` calls.
WIDTHS = (1, 3, 40)

#: DeepGateEmbedder keyword arguments, in digest order.
EMBED_SETTINGS = (
    {},
    {"dim": 16, "num_patterns": 64, "seed": 1},
    {"dim": 32, "num_patterns": 1000, "seed": 5},
)

#: circuit label -> (simulate at each width, truth tables, evaluate, embed).
GOLDEN = {
    "const_only": (("162f119dd42f37a2", "6148ac9815e01a59", "26123f1cf801c925"),
                   "bd50b9b224d13778", "3e097723f5b829be", "ff4292e549e60922"),
    "mult_comm_3": (("81f36876c4528a09", "36a2c677e728f8b9", "f936006fd135a29d"),
                    "80f444e7d481fcd2", "4865f1e9c19bf08c", "90cd358a45e0a273"),
    "mult_comm_4": (("96830c2d52365a4b", "f1d56921ab241956", "6c6bfeb9b16b34ee"),
                    "80f444e7d481fcd2", "4865f1e9c19bf08c", "ad2d5c6aab2c17b7"),
    "random_12_10_0": (("dfc4ef6d717fd43d", "ac6b9cffd4742837", "a4bbfdded33e3d5d"),
                       "6d0c07768a46b196", "f1410d94ca72a95c", "08576f1bc5c9e541"),
    "random_12_10_1": (("7709609218ecfd2c", "9775ea56bee7e761", "03539de6729b1a52"),
                       "4534744415748320", "3979a091a7542373", "3bf3173afb39a020"),
    "random_12_80_0": (("c48e35721c943c0e", "19231db9cbc3b9d7", "af396789601ce067"),
                       "b0eadcf37f820651", "054a49dee7953e06", "5fabb64c5dc8d77e"),
    "random_12_80_1": (("858ea7410bab4302", "67e3cd66bf32c2de", "5427e6af609493c4"),
                       "642106ef3fef3939", "1b59c63c5e98665f", "3dab8cc0fb833cbb"),
    "random_16_10_0": (("5c8e81499f8dfb82", "1bdb7ff522453bb1", "5513f6a1fcfb06ee"),
                       "b1336bb056623dab", "51e7de42a9ba1e34", "8d5e3c69312ffdc5"),
    "random_16_10_1": (("5b850593dcc8cfef", "e011c5d14fd6d4fa", "c0cd67c5795ea8c0"),
                       "352e845fd81ca581", "67c5227478baf92d", "1948356f6c073c2a"),
    "random_16_80_0": (("ce30765b9a2eb441", "f1ee88a62d874524", "3af06dbe78eb8974"),
                       "b44bec701ca80973", "91870691021c6878", "2aa8f405ead42cd9"),
    "random_16_80_1": (("334917431e09e83d", "22d7e4e6f7fa9ca7", "b4a0ae170462587c"),
                       "f800222703c9e83d", "163558aee63a6931", "22069465b3828cad"),
    "random_1_10_0": (("9ec062129b6b4474", "6e54ff99a021e6d9", "8ce2e22cecc94553"),
                      "e8913d4fe33747c3", "cf3bb80139d6d8d2", "ff4292e549e60922"),
    "random_1_10_1": (("b47cfeb07cedfcb3", "120062eecc5405a9", "cb97da07af9cb74e"),
                      "48001d6012bd3278", "41d42aa96e043ad2", "ff4292e549e60922"),
    "random_1_80_0": (("4b6b61cdfc74eb9e", "e5854670f29e16e8", "d9adf6bfcd99e613"),
                      "30a171c46074a55a", "30fe2e00a633129e", "ff4292e549e60922"),
    "random_1_80_1": (("434e59bdbd507e53", "006a6e26139fa1ff", "bd7089c66ec8c4dc"),
                      "13736960fb308aaf", "1f01e7dee711c7e5", "ff4292e549e60922"),
    "random_20_10_0": (("7e9632e648435d4b", "2d6070931126c11d", "28044a2ab53afc50"),
                       None, "96a0bcec2d072955", "862f78670d049087"),
    "random_20_10_1": (("921c56cd3c81b6cf", "c6b10e5b2b47e65d", "ee066b1664a60beb"),
                       None, "6bb85608516e4cdb", "701bd055c980b80b"),
    "random_20_80_0": (("cb4187ba4a054e7c", "aaf1dea5d9faf0c9", "ebdd0bb965ae984d"),
                       None, "420692eb8d32b638", "a2895e8f9af0f088"),
    "random_20_80_1": (("91bf183309877918", "0e86ca8559286ef4", "7215bbe325428961"),
                       None, "600c1684e512015b", "b2ef2c1c85c65bfe"),
    "random_2_10_0": (("8a8e5fef0c87d09d", "b9c0cf877fb44bd0", "4b039a06844b76f9"),
                      "ea0d2e1aa68460cc", "0ac5be1d1428fdb3", "82b3ced26882c9c6"),
    "random_2_10_1": (("7af1392066a8f132", "6337453e81c69511", "d7d6c08419a7847f"),
                      "08e678fc0e62fbf6", "43cb8bfb03ff08c4", "a4da7dff33e3cc84"),
    "random_2_80_0": (("a8990e95aa31bbc9", "0eec5470314c0bbf", "529455e410b89836"),
                      "69249ac99a97fcb4", "8e4ed9b118bfe1f0", "fea520b75bc1e8ee"),
    "random_2_80_1": (("4793ff3413bed44d", "d8c4442047512480", "8bbf374fcfe5c4e8"),
                      "969efbc260bf3feb", "01f0b5f2c7cba928", "160c65685ec07f35"),
    "random_5_10_0": (("4d7c8f23ba83a101", "56ba962393dfe38f", "70f2bd3e6339bfe8"),
                      "254a5cc9dfb705b1", "103454c2d6b3c852", "fade792688a1e102"),
    "random_5_10_1": (("70d88d7fcbc3225e", "cff3abf1846a3e83", "4f6f14c1feb07591"),
                      "3b2f457a0da78b06", "e063080f980993ec", "d9019156405a8744"),
    "random_5_80_0": (("8d71762bc0b4a5e9", "5e959b48806486c2", "f2dc073b424697d9"),
                      "dcf779810761e928", "bf6b52e011fe6f96", "d1fbf0ea7a420954"),
    "random_5_80_1": (("d4ebd94bf80ad255", "affeffde63451762", "4d76405eb1cde288"),
                      "9d973a70293e2fc8", "cb220e46453d86c1", "0f9be5e8ca43a75a"),
    "random_8_10_0": (("e87e5f2b61059085", "129b341ff8eff42a", "c8c67e53077ba159"),
                      "ff50c9170e8c8ca4", "9825ad03e188e8b6", "9ec1fc7e8577e5ad"),
    "random_8_10_1": (("529a63ca20337e8b", "00d97d2c58cfa696", "d753a6947508d835"),
                      "6a899dfe9543d510", "e68d3181e95b6765", "631f74ae476c342d"),
    "random_8_80_0": (("e68b4b8e8bc28e70", "c9a4adb8d6b23f45", "bcf7ecba7082597d"),
                      "5022b7c8bcfd25b8", "2753d6a5d4fee0d6", "e85c44c12900afdf"),
    "random_8_80_1": (("05b2b10cf8ac425c", "55df63bd55f85b4d", "6454106089a42dcf"),
                      "b51877fdebbdff6b", "5776e960bb564e52", "02ae07fd9ecddf63"),
    "suite3_00": (("bf735c7f963e176e", "474ecd5a5825edd3", "88638e4d4b7d6ef5"),
                  None, "74488df095aa7274", "fd1dd68a7b07de5c"),
    "suite3_01": (("ea436874801f2e9d", "5ad80f56389f0208", "3ca34bb6c666a722"),
                  None, "4865f1e9c19bf08c", "af00155c2d1509a3"),
    "suite3_02": (("f3a707599dfbfa96", "5ac1f3c9f1a95650", "75b5b5aef7deeb01"),
                  None, "4865f1e9c19bf08c", "f8f58123f6f2121b"),
    "suite3_03": (("f3a707599dfbfa96", "5ac1f3c9f1a95650", "75b5b5aef7deeb01"),
                  None, "4865f1e9c19bf08c", "f8f58123f6f2121b"),
    "suite3_04": (("2a46d824829bea76", "f30c21a97df8248b", "9b8d3803502fa049"),
                  "80f444e7d481fcd2", "4865f1e9c19bf08c", "13ef7471d9130c98"),
    "suite3_05": (("ff6feb78b1fa3c24", "4beb2adb75e26590", "0849ad66116291ac"),
                  "c5e3dcf622e08856", "ce54885723455c79", "8aa9bd2304382899"),
    "suite3_06": (("b0ce953cff6954d7", "e3177720f1a91313", "afc048cf8f318f13"),
                  None, "ce10f41203f3d477", "ac544843a10a9e7d"),
    "suite3_07": (("ea436874801f2e9d", "5ad80f56389f0208", "3ca34bb6c666a722"),
                  None, "4865f1e9c19bf08c", "af00155c2d1509a3"),
    "suite3_08": (("ea436874801f2e9d", "5ad80f56389f0208", "3ca34bb6c666a722"),
                  None, "4865f1e9c19bf08c", "af00155c2d1509a3"),
    "suite3_09": (("2a46d824829bea76", "f30c21a97df8248b", "9b8d3803502fa049"),
                  "80f444e7d481fcd2", "4865f1e9c19bf08c", "13ef7471d9130c98"),
    "suite3_10": (("25a9f59159f74180", "df9f70bef65ef72c", "be4cd5e0fcda4620"),
                  None, "9f1603b35a163877", "3514266cdb06d955"),
    "suite3_11": (("2ecedae45765579e", "f0e6cf7cf2f5a3e8", "2420f668fa81ac82"),
                  None, "4865f1e9c19bf08c", "a3a413d971080241"),
    "wires": (("dba1b98ecd72bf10", "1ff6a4dc2c9afab0", "afd5480432b3cf1e"),
              "ba23b8f1100d42c5", "f5aa2009dd70db4e", "1f7b69b55f03072e"),
}

#: n -> digest of exhaustive_pi_words(n).
EXHAUSTIVE_GOLDEN = {
    0: "a294078a464d5552",
    1: "bcb91b8054f23ba0",
    2: "38884301a6d41029",
    3: "016b34dad415600a",
    4: "f7bffb54723a5e90",
    5: "082c042da34a72ab",
    6: "cef16d1bd2e57eef",
    7: "3dc5688b2d5ee1bb",
    8: "8dcd152bb1ad4730",
    9: "1df580acc5d82ff2",
    10: "5d0901ca8c44e700",
    11: "afc8f8c4e2db3d5a",
    12: "679c506657c7bc5e",
    13: "bd416518e6072961",
    14: "4a5e5a60b0203997",
    15: "a88c285bde81c3ad",
    16: "b27a5541f96e7809",
}


def _digest(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part if isinstance(part, bytes) else str(part).encode())
        hasher.update(b"|")
    return hasher.hexdigest()[:16]


def _array_parts(array):
    return (array.shape, array.dtype.str, array.tobytes())


def _wires() -> AIG:
    aig = AIG(name="wires")
    a, b, c = (aig.add_pi() for _ in range(3))
    for literal in (CONST0, CONST1, a, lit_not(c), aig.add_and(a, b),
                    lit_not(aig.add_xor(b, c))):
        aig.add_po(literal)
    return aig


def _const_only() -> AIG:
    aig = AIG(name="const_only")
    aig.add_po(CONST0)
    aig.add_po(CONST1)
    return aig


@pytest.fixture(scope="module")
def circuits():
    built = {
        f"random_{pis}_{nodes}_{seed}": random_aig(pis, nodes, seed=seed)
        for pis in (1, 2, 5, 8, 12, 16, 20)
        for nodes in (10, 80)
        for seed in range(2)
    }
    for index, instance in enumerate(generate_test_suite(12, seed=3)):
        built[f"suite3_{index:02d}"] = instance.aig
    for width in (3, 4):
        built[f"mult_comm_{width}"] = multiplier_commutativity_miter(width)
    built["wires"] = _wires()
    built["const_only"] = _const_only()
    return built


def _simulate_digest(aig: AIG, width: int) -> str:
    words = np.random.default_rng(width).integers(
        0, 2 ** 64, size=(aig.num_pis, width), dtype=np.uint64)
    values = simulate(aig, words)
    return _digest(*_array_parts(values), *_array_parts(po_values(aig, values)))


def _tables_digest(aig: AIG) -> str | None:
    if aig.num_pis > 16:
        return None
    return _digest(*(hex(table) for table in po_truth_tables(aig)))


def _evaluate_digest(aig: AIG) -> str:
    rng = random.Random(aig.num_pis * 1000 + aig.num_ands)
    results = []
    for _ in range(16):
        pattern = [rng.random() < 0.5 for _ in aig.pis]
        results.append(evaluate(aig, pattern))
        results.append(evaluate(aig, dict(zip(aig.pis, pattern))))
    return _digest(json.dumps(results))


def _embed_digest(aig: AIG) -> str:
    return _digest(*(DeepGateEmbedder(**setting).embed(aig).tobytes()
                     for setting in EMBED_SETTINGS))


def _circuit_digests(aig: AIG) -> tuple:
    return (tuple(_simulate_digest(aig, width) for width in WIDTHS),
            _tables_digest(aig), _evaluate_digest(aig), _embed_digest(aig))


def test_corpus_is_pinned_in_full(circuits):
    assert set(circuits) == set(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_simulation_matches_golden_digests(circuits, label):
    assert _circuit_digests(circuits[label]) == GOLDEN[label]


def test_exhaustive_pi_words_match_golden_digests():
    assert {n: _digest(*_array_parts(exhaustive_pi_words(n)))
            for n in range(17)} == EXHAUSTIVE_GOLDEN
