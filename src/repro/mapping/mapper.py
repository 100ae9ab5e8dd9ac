"""Priority-cut LUT mapping with a pluggable per-LUT cost function.

The mapper follows the classic two-phase scheme used by FlowMap-style and
mockturtle mappers:

1. **Delay-oriented pass** — every AND node receives the cut with the
   smallest arrival time (ties broken by cost flow).  The resulting PO
   arrival times define the depth constraint.
2. **Cost-recovery passes** — nodes re-select cuts minimising *cost flow*
   (cut cost plus the fanout-shared cost of the leaves) subject to not
   violating the depth constraint established in phase 1.  With
   ``area_cost`` this is conventional area recovery; with ``branching_cost``
   it minimises the total branching complexity of the mapped netlist, which
   is the paper's cost-customised mapping (Sec. III-C2).
3. **Cover derivation** — starting from the POs, the selected cuts are
   materialised as LUTs.

Only structural information is used, so the mapping is valid for any AIG and
preserves functionality by construction (each LUT carries the exact cut
function).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.aig.aig import AIG, lit_is_complemented, lit_var
from repro.errors import MappingError
from repro.mapping.cost import area_cost
from repro.mapping.lut import LutNetlist
from repro.synthesis.cuts import Cut, enumerate_cuts

CostFunction = Callable[[int, int], float]
Candidate = tuple[tuple[int, ...], float, Cut]


@dataclass
class MappingResult:
    """The outcome of :func:`map_aig`."""

    netlist: LutNetlist
    total_cost: float
    depth: int
    num_luts: int


def map_aig(aig: AIG, k: int = 4, cost_fn: CostFunction = area_cost,
            max_cuts: int = 8, recovery_passes: int = 2) -> MappingResult:
    """Map ``aig`` into a k-LUT netlist minimising the given cost function.

    ``cost_fn`` must be pure: it is called once per non-trivial cut of each
    AND node, and that cost is reused by every pass and by the final total.
    """
    if k < 2:
        raise MappingError("LUT size must be at least 2")
    cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    # Estimated fanout used for cost flow; at least 1 to avoid division by 0.
    est_refs = [max(1, count) for count in aig.fanout_counts()]

    and_vars = list(aig.and_vars())
    # Each AND node's non-trivial cuts as (leaves, cost, cut), costed once.
    candidates: dict[int, list[Candidate]] = {}
    for var in and_vars:
        usable = [(cut.leaves, cost_fn(cut.table, cut.size), cut)
                  for cut in cuts[var] if cut.leaves != (var,)]
        if not usable:
            raise MappingError(f"node {var} has no non-trivial cut")
        candidates[var] = usable
    best: dict[int, Candidate] = {}
    # A cut's arrival is 1 + the latest leaf arrival, and its flow is its
    # cost + the sum of ``flow[leaf] / est_refs[leaf]`` over its leaves;
    # ``share`` holds those quotients, indexed by variable like ``arrival``.
    arrival = [0] * aig.num_vars
    share = [0.0] * aig.num_vars
    arrival_of = arrival.__getitem__
    share_of = share.__getitem__

    # Phase 1: delay-oriented selection, the first cut of least
    # (arrival, flow); the index makes ``min`` keep the first of equals.
    for var in and_vars:
        options = candidates[var]
        depth, flow, index = min([
            (1 + max(map(arrival_of, leaves)),
             cost + sum(map(share_of, leaves)), index)
            for index, (leaves, cost, _) in enumerate(options)])
        best[var] = options[index]
        arrival[var] = depth
        share[var] = flow / est_refs[var]

    if not aig.pos:
        return MappingResult(netlist=LutNetlist(name=aig.name), total_cost=0.0,
                             depth=0, num_luts=0)

    # Depth constraint from the delay-oriented pass.
    required_depth = max(arrival[lit_var(po)] for po in aig.pos)

    # Phase 2: cost recovery, the first cut of least (flow, arrival) among
    # those meeting the depth constraint, or among all when none does.
    for _ in range(max(0, recovery_passes)):
        for var in and_vars:
            options = candidates[var]
            scored = [(cost + sum(map(share_of, leaves)),
                       1 + max(map(arrival_of, leaves)), index)
                      for index, (leaves, cost, _) in enumerate(options)]
            flow, depth, index = min(
                [score for score in scored if score[1] <= required_depth]
                or scored)
            best[var] = options[index]
            arrival[var] = depth
            share[var] = flow / est_refs[var]

    # Phase 3: derive the cover from the POs.
    netlist = LutNetlist(name=aig.name)
    aig_to_lut: dict[int, int] = {}
    for pi_var, pi_name in zip(aig.pis, aig.pi_names):
        aig_to_lut[pi_var] = netlist.add_pi(pi_name)

    # ``best`` holds exactly the AND nodes.
    needed: set[int] = set()
    stack = [lit_var(po) for po in aig.pos if lit_var(po) in best]
    while stack:
        var = stack.pop()
        if var not in needed:
            needed.add(var)
            stack.extend(leaf for leaf in best[var][0] if leaf in best)

    total_cost = 0.0
    for var in sorted(needed):
        leaves, cost, cut = best[var]
        aig_to_lut[var] = netlist.add_lut(
            tuple([aig_to_lut[leaf] for leaf in leaves]), cut.table)
        total_cost += cost

    for po, po_name in zip(aig.pos, aig.po_names):
        # A constant output is encoded as a 0-input LUT.
        node = aig_to_lut[lit_var(po)] if po > 1 else netlist.add_lut((), 0)
        netlist.add_po(node, lit_is_complemented(po), po_name)

    return MappingResult(
        netlist=netlist,
        total_cost=total_cost,
        depth=netlist.depth(),
        num_luts=netlist.num_luts,
    )
