"""CNF encoding of a LUT netlist (the proposed pipeline's final step).

Each netlist node (primary input or LUT) receives one CNF variable; the AIG
nodes hidden inside each LUT never appear in the formula.  A LUT with
function ``f`` over fanins ``x1..xk`` and output ``y`` contributes:

* for every cube ``c`` of ``ISOP(f)``: the clause ``(!c | y)`` — whenever the
  fanins satisfy a 1-cube the output must be 1;
* for every cube ``c`` of ``ISOP(!f)``: the clause ``(!c | !y)`` — whenever
  the fanins satisfy a 0-cube the output must be 0.

The number of clauses contributed by a LUT therefore equals its *branching
complexity* (:func:`repro.mapping.cost.branching_complexity`), which is the
formal link between the cost-customised mapper and the size/behaviour of the
final CNF.  Both read the same cached per-function clauses,
:func:`repro.logic.isop.clause_template`, which the encoder instantiates over
each LUT's variables.
"""

from __future__ import annotations

from repro.cnf.cnf import Cnf
from repro.errors import CnfError
from repro.logic.isop import clause_template
from repro.mapping.lut import LutNetlist


def lut_netlist_to_cnf(netlist: LutNetlist, output_mode: str = "any") -> Cnf:
    """Encode a LUT netlist into CNF.

    ``output_mode`` follows the same convention as
    :func:`repro.cnf.tseitin.tseitin_encode` (``"any"``, ``"all"`` or
    ``"none"``).  The returned CNF's ``var_map`` maps netlist node ids to CNF
    variables.
    """
    if output_mode not in ("any", "all", "none"):
        raise CnfError(f"unknown output mode {output_mode!r}")
    cnf = Cnf()
    var_map: dict[int, int] = {}
    for pi in netlist.pis:
        var_map[pi] = cnf.new_var()

    clauses = cnf.clauses  # every literal below is an allocated variable
    for node in netlist.luts():
        output = cnf.new_var()
        var_map[node.node_id] = output
        slots = [0, *[var_map[fanin] for fanin in node.inputs], output]
        for template in clause_template(node.table, node.num_inputs):
            clauses.append([slots[code] if code > 0 else -slots[-code]
                            for code in template])

    if output_mode != "none" and netlist.pos:
        po_literals = []
        for node_id, complemented in netlist.pos:
            literal = var_map[node_id]
            po_literals.append(-literal if complemented else literal)
        if output_mode == "any":
            cnf.add_clause(po_literals)
        else:
            for literal in po_literals:
                cnf.add_clause([literal])

    cnf.var_map = var_map
    return cnf

