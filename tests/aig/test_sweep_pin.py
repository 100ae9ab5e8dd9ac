"""SAT sweeping pinned byte for byte.

``sweep_aig`` takes two routes: circuits whose every input pattern fits in
the simulated patterns are swept exactly by simulation, the rest by
random simulation plus incremental SAT proofs.  These digests were recorded
from the reference implementation, for every circuit of the corpus under
three settings that between them take both routes: the exhaustive route
covers up to 11 inputs at the default 2 048 patterns, 6 at 64 and 12 at
4 096, and the 14- and 20-input circuits always take the SAT route.

Each digest is the first 16 hex digits of the sha256 of the swept AIG's
ASCII AIGER text followed by its stats (without ``sweep_time``) as sorted
JSON.  A mismatch means a merge, a class or a counter changed, not just the
speed.
"""

import hashlib
import json

import pytest

from repro.aig.aiger import write_aiger
from repro.aig.sweep import sweep_aig
from repro.benchgen import generate_test_suite
from repro.benchgen.lec import multiplier_commutativity_miter
from repro.benchgen.random_logic import random_aig

#: setting label -> sweep_aig keyword arguments, in digest order.
SETTINGS = {
    "default": {},
    "p64": {"num_patterns": 64},
    "p4096_s7": {"num_patterns": 4096, "seed": 7},
}

#: circuit label -> one digest per setting of SETTINGS.
GOLDEN = {
    "random_2_10_0": ("bf83e71e56883409", "bf83e71e56883409", "bf83e71e56883409"),
    "random_2_10_1": ("862f7b80a69b8019", "862f7b80a69b8019", "862f7b80a69b8019"),
    "random_2_10_2": ("3e1ab39fdfed77a2", "3e1ab39fdfed77a2", "3e1ab39fdfed77a2"),
    "random_2_40_0": ("eadca9648d49725a", "eadca9648d49725a", "eadca9648d49725a"),
    "random_2_40_1": ("3c45715bfea27d19", "3c45715bfea27d19", "3c45715bfea27d19"),
    "random_2_40_2": ("94a83e45fa388dfd", "94a83e45fa388dfd", "94a83e45fa388dfd"),
    "random_2_120_0": ("d18adece96461d91", "d18adece96461d91", "d18adece96461d91"),
    "random_2_120_1": ("2ab2546bef43f6ea", "2ab2546bef43f6ea", "2ab2546bef43f6ea"),
    "random_2_120_2": ("ae21082615723a8d", "ae21082615723a8d", "ae21082615723a8d"),
    "random_3_10_0": ("50ecfcc4ccc8134c", "50ecfcc4ccc8134c", "50ecfcc4ccc8134c"),
    "random_3_10_1": ("c8c59d6f483b4b3e", "c8c59d6f483b4b3e", "c8c59d6f483b4b3e"),
    "random_3_10_2": ("1dc133d81cf51648", "1dc133d81cf51648", "1dc133d81cf51648"),
    "random_3_40_0": ("69571fcd6ef41e9b", "69571fcd6ef41e9b", "69571fcd6ef41e9b"),
    "random_3_40_1": ("797c7e58c001a95e", "797c7e58c001a95e", "797c7e58c001a95e"),
    "random_3_40_2": ("aa29e3b636c2a654", "aa29e3b636c2a654", "aa29e3b636c2a654"),
    "random_3_120_0": ("4deb3518d69a29ba", "4deb3518d69a29ba", "4deb3518d69a29ba"),
    "random_3_120_1": ("08f2b099c17aa068", "08f2b099c17aa068", "08f2b099c17aa068"),
    "random_3_120_2": ("881e7d9baae0562b", "881e7d9baae0562b", "881e7d9baae0562b"),
    "random_5_10_0": ("3dc92ba7e4a013c5", "3dc92ba7e4a013c5", "3dc92ba7e4a013c5"),
    "random_5_10_1": ("09ee41aaae8f5880", "09ee41aaae8f5880", "09ee41aaae8f5880"),
    "random_5_10_2": ("74db81f28792d3ac", "74db81f28792d3ac", "74db81f28792d3ac"),
    "random_5_40_0": ("a397bc9b8e0125b5", "a397bc9b8e0125b5", "a397bc9b8e0125b5"),
    "random_5_40_1": ("aa78830bd390efce", "aa78830bd390efce", "aa78830bd390efce"),
    "random_5_40_2": ("4bfa2420e3361391", "4bfa2420e3361391", "4bfa2420e3361391"),
    "random_5_120_0": ("1ae60299d7c9064f", "1ae60299d7c9064f", "1ae60299d7c9064f"),
    "random_5_120_1": ("c2b63f918de02f96", "c2b63f918de02f96", "c2b63f918de02f96"),
    "random_5_120_2": ("01c414162b3edd6c", "01c414162b3edd6c", "01c414162b3edd6c"),
    "random_6_10_0": ("4c4d5ab0476380a3", "4c4d5ab0476380a3", "4c4d5ab0476380a3"),
    "random_6_10_1": ("2ffdf4332661bcf9", "2ffdf4332661bcf9", "2ffdf4332661bcf9"),
    "random_6_10_2": ("f2ee24b48ee4f5ae", "f2ee24b48ee4f5ae", "f2ee24b48ee4f5ae"),
    "random_6_40_0": ("4e724297057bd303", "4e724297057bd303", "4e724297057bd303"),
    "random_6_40_1": ("8b863f755125888b", "8b863f755125888b", "8b863f755125888b"),
    "random_6_40_2": ("2af28633229fa305", "2af28633229fa305", "2af28633229fa305"),
    "random_6_120_0": ("c1b96de877482e13", "c1b96de877482e13", "c1b96de877482e13"),
    "random_6_120_1": ("a001ec03f6955f5d", "a001ec03f6955f5d", "a001ec03f6955f5d"),
    "random_6_120_2": ("480ca2fbdce2b681", "480ca2fbdce2b681", "480ca2fbdce2b681"),
    "random_8_10_0": ("9248915f9962eb02", "0808ac9184afaf53", "9248915f9962eb02"),
    "random_8_10_1": ("7fb0d86a36a7b5da", "2c4a36a5b1367700", "7fb0d86a36a7b5da"),
    "random_8_10_2": ("b444063d45e8c343", "825f24fbbe4efd50", "b444063d45e8c343"),
    "random_8_40_0": ("e7c6175b549c4e58", "c34ba40bd2d7f4af", "e7c6175b549c4e58"),
    "random_8_40_1": ("af0b0c5b96526770", "1880f5d584d529f5", "af0b0c5b96526770"),
    "random_8_40_2": ("a4e917772e9a80b8", "375fa49ccbb1a81d", "a4e917772e9a80b8"),
    "random_8_120_0": ("2abd314fc0d3e38b", "d57ae922508ef152", "2abd314fc0d3e38b"),
    "random_8_120_1": ("77fe6e817bc51c8a", "dc5cdebee83e27c6", "77fe6e817bc51c8a"),
    "random_8_120_2": ("3ddb82827d9320de", "cb930141fc174a9f", "3ddb82827d9320de"),
    "random_11_10_0": ("30632f5c94b6ac84", "6fbbc4bbc2c5c57c", "30632f5c94b6ac84"),
    "random_11_10_1": ("73ae9ba87cda3a3c", "1f2a5a25c0766ba4", "73ae9ba87cda3a3c"),
    "random_11_10_2": ("62dd133b68472016", "3142d00fbbd9c3d4", "62dd133b68472016"),
    "random_11_40_0": ("3b1363334c983c30", "f930706c318346c5", "3b1363334c983c30"),
    "random_11_40_1": ("caeec55a64f79bfb", "40889bbbd60a3725", "caeec55a64f79bfb"),
    "random_11_40_2": ("42b77acb2970db00", "7f6a2c6acc21b06c", "42b77acb2970db00"),
    "random_11_120_0": ("d62e850935e0f7ca", "a5008064107b5866", "d62e850935e0f7ca"),
    "random_11_120_1": ("562f50b60c673778", "33800472ec6ea8da", "562f50b60c673778"),
    "random_11_120_2": ("4969617a913a3d93", "c611f8dcbf12b0b3", "4969617a913a3d93"),
    "random_12_10_0": ("ce760ef1c62f5833", "ef7c2b42e680afaa", "cf7c0b6352ee98d4"),
    "random_12_10_1": ("cabe6d2657e521e9", "00e652bd2bef95d4", "cca9c8bb829c720c"),
    "random_12_10_2": ("f7235da7f43fa4c7", "cab30be71f8a543b", "3a36ce17f0cab691"),
    "random_12_40_0": ("25d892367744b3f2", "02c179b1ac3b119e", "c0ab13dd1160538a"),
    "random_12_40_1": ("0c4267619f0b6f5e", "27aa0fd4539d2d62", "860e9c5d8cd95f5f"),
    "random_12_40_2": ("5d7b99267738fdbf", "a3659b5be02679e0", "53a20e6c5b439fe4"),
    "random_12_120_0": ("e37bf66340654b9e", "ebad5dfbe6adad84", "09141858eefeb1df"),
    "random_12_120_1": ("bdb46fe0487f3b0a", "d940081dd783f459", "2c29345e21669d5c"),
    "random_12_120_2": ("cb418ffe7230ffce", "fd6a8f8d005b7491", "ea16ac805159f356"),
    "random_14_10_0": ("caeb88167d254743", "0a1457947a9932a0", "6eae532b6a2ddc83"),
    "random_14_10_1": ("be52582efc149d51", "5901897c1270d7f0", "dda0383c133460c1"),
    "random_14_10_2": ("a713fcf11d6183d8", "efc3b16fa002e69a", "03a0b32f7691700a"),
    "random_14_40_0": ("516cba338d0a6f92", "abc1b89cd8090a9a", "8e00bb04468d310c"),
    "random_14_40_1": ("284dfd642668f13c", "215189aa83c92f27", "2b24d4716fb7aa9c"),
    "random_14_40_2": ("830d0ca448c50261", "3149a9a34a8294d8", "fe036d4799b7b47f"),
    "random_14_120_0": ("f8679c02a473d0a3", "75761ea42136a64f", "b61c8fee23259d3a"),
    "random_14_120_1": ("5edc14bdd867ed98", "c2063fdfd54fa5bf", "76d7cae58ca48388"),
    "random_14_120_2": ("43bb0539d9c267f4", "2074a1c80048427e", "c578cdf8bf4fa7e3"),
    "random_20_10_0": ("d403734ec1977d3d", "db2e9fadea44682b", "3fd2ccc66dfab2f9"),
    "random_20_10_1": ("574a592e48c9225e", "1d3b52805f61fc37", "a293af4d6392e0fa"),
    "random_20_10_2": ("46519de633b31ea5", "5b04bfc59eef3525", "f3dfc82dced08b93"),
    "random_20_40_0": ("4714b22825633bf5", "9608f36acce6a50c", "91546c501acc42fd"),
    "random_20_40_1": ("a78e02e7e2cc1d0f", "accdd309d205a06f", "2da4a73034f98704"),
    "random_20_40_2": ("d2da024177e02e68", "e379740afac36f29", "601722f4b3ef1ed8"),
    "random_20_120_0": ("e2ae4a1d71b5908e", "ba2ebc529f046fd6", "dc5a8a88f4b0703b"),
    "random_20_120_1": ("ee76c7cec538f05a", "29a27e69f2fca081", "2b9444bf0855fbb2"),
    "random_20_120_2": ("2bf9fc915b867f1a", "046227bf7ffad6f9", "98d8fa0d58253319"),
    "suite3_00": ("f8d41fde6470692a", "77404e5661115d48", "7553636f652077e2"),
    "suite3_01": ("f77775ab0be9c3d8", "fc352bc4c051ab7c", "0e3a4f602cabe3ec"),
    "suite3_02": ("03bc0bcac56e68d3", "bb0b9f314eff3fa6", "87d11a726996090f"),
    "suite3_03": ("03bc0bcac56e68d3", "bb0b9f314eff3fa6", "87d11a726996090f"),
    "suite3_04": ("376dc7bbc01baad8", "d6952b65687928eb", "376dc7bbc01baad8"),
    "suite3_05": ("db3358fff890384c", "edbd194d2ea2f900", "db3358fff890384c"),
    "suite3_06": ("34e2793b0fe6b635", "9a058dc5206ff672", "349ff2dca4ee6257"),
    "suite3_07": ("f77775ab0be9c3d8", "fc352bc4c051ab7c", "0e3a4f602cabe3ec"),
    "suite3_08": ("f77775ab0be9c3d8", "fc352bc4c051ab7c", "0e3a4f602cabe3ec"),
    "suite3_09": ("376dc7bbc01baad8", "d6952b65687928eb", "376dc7bbc01baad8"),
    "suite3_10": ("01edb054b40170e2", "2eef81230c84211c", "fa9ae1781ccb8a88"),
    "suite3_11": ("18ecfac4a5d2e611", "a39ff18511969e8a", "d4f0c776544abcf5"),
    "mult_comm_3": ("01b9ff0533044051", "01b9ff0533044051", "01b9ff0533044051"),
}


@pytest.fixture(scope="module")
def circuits():
    built = {
        f"random_{pis}_{nodes}_{seed}": random_aig(pis, nodes, seed=seed)
        for pis in (2, 3, 5, 6, 8, 11, 12, 14, 20)
        for nodes in (10, 40, 120)
        for seed in range(3)
    }
    for index, instance in enumerate(generate_test_suite(12, seed=3)):
        built[f"suite3_{index:02d}"] = instance.aig
    built["mult_comm_3"] = multiplier_commutativity_miter(3)
    return built


def _digest(result):
    stats = result.stats.as_dict()
    del stats["sweep_time"]
    text = write_aiger(result.aig) + json.dumps(stats, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_corpus_is_pinned_in_full(circuits):
    assert set(circuits) == set(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_sweep_matches_golden_digest(circuits, label, setting):
    result = sweep_aig(circuits[label], **SETTINGS[setting])
    assert _digest(result) == GOLDEN[label][list(SETTINGS).index(setting)]
