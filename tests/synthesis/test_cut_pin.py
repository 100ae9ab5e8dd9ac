"""The priority-cut engine and the LUT mapper, pinned byte for byte.

``enumerate_cuts`` feeds both ``rewrite`` and ``map_aig``, so a change to
its merge, its priority filter or its tables changes every recipe output
and every LUT netlist.  These digests were recorded from the reference
implementation:

* the sha256 of every variable's cut list (leaves and table, in order) at
  four settings, on two seeded ``generate_test_suite`` instances and the
  random AIG of the ``cuts_enumerate`` benchmark;
* the sha256 of the ``map_aig`` netlist text at k=3 and k=6 under both cost
  functions (``test_golden.py`` pins k=4).

A mismatch means a cut list or a mapping changed, not just its speed.
"""

import hashlib

import pytest

from repro.benchgen import generate_test_suite
from repro.benchgen.random_logic import random_aig
from repro.mapping.cost import area_cost, branching_cost
from repro.mapping.mapper import map_aig
from repro.synthesis.cuts import enumerate_cuts

#: circuit label -> builder.
CIRCUITS = {
    "alu4_stuck_at": lambda: generate_test_suite(12, seed=0)[11].aig,
    "rca16_stuck_at": lambda: generate_test_suite(11, seed=2)[10].aig,
    "random_12_300": lambda: random_aig(12, 300, seed=7),
}

#: setting label -> (k, max_cuts, include_trivial).
SETTINGS = {
    "k4_m8": (4, 8, True),
    "k6_m20": (6, 20, True),
    "k4_m8_nontrivial": (4, 8, False),
    "k3_m1": (3, 1, True),
}

#: (circuit, setting) -> (total cuts, sha256 of the cut-list text).
GOLDEN_CUTS = {
    ("alu4_stuck_at", "k4_m8"): (
        494, "fe51547f2157cabdc97d2288a4de3da3b21b8aa1bd736f87ee31ccd6b8f29738"),
    ("alu4_stuck_at", "k6_m20"): (
        906, "4ef33dea2beadb08f34e18b92300b31ee20ea21e8fe80b75d63910bdeb91d014"),
    ("alu4_stuck_at", "k4_m8_nontrivial"): (
        408, "b4fea558a4bcbbc58a95636ff5d64ef35352950af463fe8c336f20085a243fc7"),
    ("alu4_stuck_at", "k3_m1"): (
        182, "f43c8c3531ae314b2b32646321e01f03bba4e32afeb4fd3007c239bb58dccd2d"),
    ("rca16_stuck_at", "k4_m8"): (
        1804, "6ae3ee220b3f575003d0643fc54d29109838bd0114dfa0c877625bb5add72d4a"),
    ("rca16_stuck_at", "k6_m20"): (
        4186, "0074c12667b4a1fc333c532a04a69a86fbc6fe295ded16f782a96a72f94948e2"),
    ("rca16_stuck_at", "k4_m8_nontrivial"): (
        1536, "fa35be0dc76a9297f6b5bc723bdf4720c1a0a25aaf35aab3007f3c69ed8e963d"),
    ("rca16_stuck_at", "k3_m1"): (
        568, "f91a1a6383a885c2e8cf43024a09c9eba810ac4bea1b143050e7a395339f64a0"),
    ("random_12_300", "k4_m8"): (
        3683, "fc601e498473df7b5661820971307549e4e85c19a9386fa238928a7c1e07627b"),
    ("random_12_300", "k6_m20"): (
        8494, "5f330af6da257504680a4e20145f52700ad3e7e16524f9188f234362f9300414"),
    ("random_12_300", "k4_m8_nontrivial"): (
        3171, "2470b0027052208110401eb59a8c13b3709456490d46c77a1945c322076c2ad4"),
    ("random_12_300", "k3_m1"): (
        1036, "3596127cfee55d22aecce734790edbea3f0f6ae9d2390daa9aa190b4e70baa40"),
}

#: (circuit, k, cost) -> (LUTs, total cost, depth, sha256 of the netlist text).
GOLDEN_MAPPINGS = {
    ("alu4_stuck_at", 3, "area"): (
        20, 20.0, 7, "4796c29570dac234b467f8f4e99c0338a38fe103c629e35019a34716b7293671"),
    ("alu4_stuck_at", 3, "branching"): (
        23, 95.0, 7, "5b26e9f3aa8788b8d70504659450e2ad62815ad54938bc4573452b5a8cc45961"),
    ("alu4_stuck_at", 6, "area"): (
        14, 14.0, 5, "d9128aa02dc0d7ee235513890908c5f2154603729bc38d8ce60c9733d8801f7e"),
    ("alu4_stuck_at", 6, "branching"): (
        18, 92.0, 6, "7e83db6f0695f6fc0fbb23b3a0e26db7e6e19d1ea85156e4401b10f717541b07"),
    ("rca16_stuck_at", 3, "area"): (
        68, 68.0, 19, "963e5a2773b484a0c79df48c336b09bfc7f14b5291f1f66c8ef150a5d032e055"),
    ("rca16_stuck_at", 3, "branching"): (
        71, 342.0, 19, "1e45d4bdec18c4b5d4a8e74bcd22c8ef55a3410643c9303526c29d003f8afdf9"),
    ("rca16_stuck_at", 6, "area"): (
        61, 61.0, 18, "b2feb4a4aa10088197c6bfcca6a7baf5a52e88f417a254b6bfc33069a0d8ac45"),
    ("rca16_stuck_at", 6, "branching"): (
        62, 312.0, 19, "50952a551106060a443e285531b9074982e4d8f156c68e903b04de06fe1a3cec"),
}

COSTS = {"area": area_cost, "branching": branching_cost}


@pytest.fixture(scope="module")
def circuits():
    return {label: build() for label, build in CIRCUITS.items()}


def _cut_text(cuts):
    """One line per variable: its cuts as ``leaves/table`` in list order."""
    return "".join(
        f"{var}: " + " ".join(f"{','.join(map(str, cut.leaves))}/{cut.table:x}"
                              for cut in cut_list) + "\n"
        for var, cut_list in cuts.items())


def _netlist_text(netlist):
    """One line per PI, LUT and PO: everything a mapping decides."""
    lines = [f"pi {node} {name}"
             for node, name in zip(netlist.pis, netlist.pi_names)]
    lines += [f"lut {lut.node_id} {' '.join(map(str, lut.inputs))} {lut.table:x}"
              for lut in netlist.luts()]
    lines += [f"po {node} {int(complemented)} {name}"
              for (node, complemented), name in zip(netlist.pos, netlist.po_names)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("label, setting", sorted(GOLDEN_CUTS))
def test_cut_lists_match_golden_digests(circuits, label, setting):
    k, max_cuts, include_trivial = SETTINGS[setting]
    cuts = enumerate_cuts(circuits[label], k=k, max_cuts=max_cuts,
                          include_trivial=include_trivial)
    digest = hashlib.sha256(_cut_text(cuts).encode()).hexdigest()
    total = sum(len(cut_list) for cut_list in cuts.values())
    assert (total, digest) == GOLDEN_CUTS[(label, setting)]


@pytest.mark.parametrize("label, k, cost_name", sorted(GOLDEN_MAPPINGS))
def test_mappings_match_golden_digests(circuits, label, k, cost_name):
    result = map_aig(circuits[label], k=k, cost_fn=COSTS[cost_name])
    digest = hashlib.sha256(_netlist_text(result.netlist).encode()).hexdigest()
    assert ((result.num_luts, result.total_cost, result.depth, digest)
            == GOLDEN_MAPPINGS[(label, k, cost_name)])
