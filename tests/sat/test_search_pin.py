"""Pin the exact CDCL search trajectory, not just the verdict.

Hot-path rewrites of :class:`repro.sat.CdclSolver` (propagation, conflict
analysis, VSIDS upkeep) are meant to do the *same* search in fewer
interpreter steps.  These tests hold the solver to that: for a fixed set of
instances and configurations they compare the status, the six search
counters, and a sha256 of the DRAT proof bytes (UNSAT) or of the model (SAT)
against literal values recorded before such a rewrite.  Any change to the
decision order, the learned clauses, their literal order, or the deletion
schedule shows up here as a mismatch.

The configurations cover both presets, random decisions (whose pick reads
the heap's array layout) and an aggressive reduction schedule, so clause
deletion and slot recycling run too.  One incremental session pins the
assumption interface: cores, ``add_clause`` between solves, and counters
that accumulate across calls.

A deliberate change of the search must re-record these values and say so.
"""

import hashlib

import pytest

from repro.benchgen import multiplier_commutativity_miter, pigeonhole_cnf, random_cnf
from repro.cnf import tseitin_encode
from repro.sat import CdclSolver, SolverConfig, cadical_like, kissat_like
from repro.sat.proof import DratWriter

COUNTERS = ("decisions", "conflicts", "propagations", "restarts",
            "learned_clauses", "deleted_clauses")

CONFIGS = {
    "kissat": kissat_like,
    "cadical": cadical_like,
    "random": lambda: SolverConfig(random_decision_freq=0.05, seed=3),
    "reduce": lambda: SolverConfig(reduce_interval=10, reduce_fraction=0.9,
                                   max_lbd_keep=1, restart_interval=8),
}

INSTANCES = {
    "php6": lambda: pigeonhole_cnf(6),
    # Fixed-width 3-SAT at the phase transition: seed 8 is SAT, 2 and 9 UNSAT.
    "rand2": lambda: random_cnf(60, 256, seed=2, min_width=3, max_width=3),
    "rand8": lambda: random_cnf(60, 256, seed=8, min_width=3, max_width=3),
    "rand9": lambda: random_cnf(60, 256, seed=9, min_width=3, max_width=3),
    "mul4": lambda: tseitin_encode(multiplier_commutativity_miter(4)),
}

#: (instance, config) -> (status, counters, sha256 of DRAT bytes or model).
EXPECTED = {
    ("php6", "kissat"): ("UNSAT", (921, 731, 9495, 6, 725, 0),
        "ab2008c88ae5a64b0efb2fbb8bc5b0b189d85509d2c1330382a587ef7788e857"),
    ("php6", "cadical"): ("UNSAT", (848, 716, 9018, 2, 711, 0),
        "f4fb275650383b6eafce71198b2d14f99a16798bb97724a04b01d04ddd0af040"),
    ("php6", "random"): ("UNSAT", (1027, 862, 10641, 6, 856, 0),
        "6333861f6e99bc8c1c8b329c536d43023169339091ed874b6712ae3ed5c1eb46"),
    ("php6", "reduce"): ("UNSAT", (5998, 3455, 47211, 126, 3450, 3134),
        "239ca94e57d2218ced2fe1e64c251defeac9c1bc3c7c4ecf540d665330f9274b"),
    ("rand2", "kissat"): ("UNSAT", (137, 126, 2012, 1, 120, 0),
        "da49089e155f2976ef764ab5a1122ac5a71f0072039515a5199cf6239956207f"),
    ("rand2", "cadical"): ("UNSAT", (157, 133, 2100, 0, 128, 0),
        "e1566531a611d049875097afc1235b576cf15cedf26b1d29712f1fbf4adbbcd9"),
    ("rand2", "random"): ("UNSAT", (147, 129, 2073, 1, 121, 0),
        "e7e3c11c94244152388ec6a34cbe3ca7fcdf7ea1158f825f1043bbfeec3b5714"),
    ("rand2", "reduce"): ("UNSAT", (196, 139, 2361, 10, 131, 120),
        "6afe1ee2989ef1012f22a00c68e7199392086e8ca5e6667f45a499e9086e4834"),
    ("rand8", "kissat"): ("SAT", (105, 82, 1246, 1, 80, 0),
        "e320dd69a9408c44a05b4aca869622c1bff25febc91967df61680acdf1dcea67"),
    ("rand8", "cadical"): ("SAT", (32, 18, 346, 0, 18, 0),
        "86684e8d03b665d90dec42bfbaf11bc9feb1e0d43f9c2173660fd95a734b3251"),
    ("rand8", "random"): ("SAT", (87, 65, 1040, 0, 64, 0),
        "e3efc6c5cbe91eac1daec43dbf4fb3adacd7257836ce660c9a9d753c1e809cbb"),
    ("rand8", "reduce"): ("SAT", (28, 8, 155, 1, 8, 0),
        "b87bf9de5398f853a74c5e259e694c8f31ecb78feb941649aeef1f5d6f30d131"),
    ("rand9", "kissat"): ("UNSAT", (158, 120, 1817, 1, 116, 0),
        "1e42983e870cb2512514f6bac129b2017b5966c546a914b6b1f47b69e40b3878"),
    ("rand9", "cadical"): ("UNSAT", (172, 154, 2293, 0, 148, 0),
        "52f177a28d0efdb4915d1f710cb64b5c8be3e6893456a52feb606c1486ad992e"),
    ("rand9", "random"): ("UNSAT", (168, 136, 1928, 1, 128, 0),
        "0ab087d2d911c276454c033c8d6e43a50a081e38884c2c7179c3fa89c2b0ac83"),
    ("rand9", "reduce"): ("UNSAT", (162, 121, 1929, 8, 111, 90),
        "33801156b29a33215fc4082564f65affa6714e1e29278c6353a9e8ff15b0004d"),
    ("mul4", "kissat"): ("UNSAT", (338, 281, 25744, 3, 274, 0),
        "ba30055778cba89a09dfbf119c136d3b71491c604e1fc1dc66a92cc71cf71d95"),
    ("mul4", "cadical"): ("UNSAT", (367, 312, 27760, 1, 304, 0),
        "4d6a42f02cf0902b67d08b3113f3fc12cc36ad7be136a1b2085ad7eaac071d7e"),
    ("mul4", "random"): ("UNSAT", (394, 334, 27988, 2, 326, 0),
        "0d4b4a89d66d107b0e0c51dff6b9500b789b9a191316a208efe8703c6515a551"),
    ("mul4", "reduce"): ("UNSAT", (2014, 1428, 121362, 62, 1421, 1284),
        "043d40686c5f98bfdaeeff160681cf111a1913887c9db63e84102bd5c5cf60c9"),
}

#: One incremental session on rand0 under kissat_like: each step is
#: ("solve", assumptions, status, counters, core, model sha256 or None)
#: or ("add", clause, returned value).
SESSION = [
    ("solve", [1, 2], "UNSAT", (25, 20, 408, 0, 20, 0), [2, 1], None),
    ("solve", [-1, 2], "SAT", (44, 33, 671, 0, 33, 0), None,
     "b4d4127f1bcbdb374c297c8cd9d795ffdf507a179e104b2e4d1cd2e5a0cc0bf4"),
    ("add", [1, -2], True),
    ("solve", [-1, 2], "UNSAT", (44, 33, 673, 0, 33, 0), [2, -1], None),
    ("solve", [3, 4, 5], "UNSAT", (50, 40, 839, 0, 40, 0), [5, 4, 3], None),
    ("solve", None, "SAT", (77, 52, 1071, 0, 51, 0), None,
     "679a3275c2a7dc891c2be7ecdd22eb8a86a17ac0ef02982be38fa33a4b79cf21"),
]


def _counters(stats) -> tuple[int, ...]:
    return tuple(getattr(stats, name) for name in COUNTERS)


def _model_digest(model: dict[int, bool]) -> str:
    text = " ".join(str(var if value else -var)
                    for var, value in sorted(model.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _run(instance: str, config: str, proof_path) -> tuple[str, tuple, str]:
    solver = CdclSolver(INSTANCES[instance](), config=CONFIGS[config]())
    with DratWriter(str(proof_path)) as writer:
        solver.set_proof(writer)
        result = solver.solve()
    if result.is_sat:
        digest = _model_digest(result.model)
    else:
        digest = hashlib.sha256(proof_path.read_bytes()).hexdigest()
    return result.status, _counters(result.stats), digest


@pytest.mark.parametrize("instance,config", sorted(EXPECTED))
def test_search_matches_recorded_trajectory(instance, config, tmp_path):
    assert _run(instance, config, tmp_path / "proof.drat") \
        == EXPECTED[instance, config]


def test_incremental_session_matches_recorded_trajectory():
    cnf = random_cnf(60, 256, seed=0, min_width=3, max_width=3)
    solver = CdclSolver(cnf, config=kissat_like())
    for step in SESSION:
        if step[0] == "add":
            assert solver.add_clause(step[1]) is step[2]
            continue
        _, assumptions, status, counters, core, digest = step
        result = solver.solve(assumptions=assumptions)
        model_digest = _model_digest(result.model) if result.is_sat else None
        assert (result.status, _counters(result.stats), result.core,
                model_digest) == (status, counters, core, digest)
