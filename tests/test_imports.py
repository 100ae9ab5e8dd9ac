"""What importing the package loads, and which names it binds.

``repro solve``, ``repro serve`` and the batch runner must not load numpy or
the RL, feature, generator and evaluation packages: a short solve would pay
for them in start-up time, and every forked server worker would inherit
them.  Truth tables and single-pattern evaluation simulate on Python ints
and load no numpy either.  The package root resolves its exports on first
use (PEP 562), while ``repro.synthesis`` and ``repro.aig`` stay eager
because their exports shadow submodules of the same name.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.aig.aiger import write_aiger
from repro.benchgen.random_logic import random_aig

#: Modules that neither solving, serving nor preprocessing without an agent
#: may load.
HEAVY = ("numpy", "repro.rl", "repro.features", "repro.benchgen", "repro.eval")


def _run_python(code: str, stdin: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          input=stdin, capture_output=True, text=True,
                          env=env, timeout=120)


def test_solve_serve_and_runner_paths_load_no_heavy_module():
    done = _run_python(f"""
        import json, sys
        import repro.cli.main, repro.runner.batch, repro.server.http
        from repro.aig.aiger import read_aiger
        from repro.aig.sweep import sweep_aig
        from repro.core.preprocess import Preprocessor

        aig = read_aiger(sys.stdin.read())
        sweep_aig(aig)
        Preprocessor().preprocess(aig)
        loaded = sorted(set({HEAVY!r}) & set(sys.modules))
        import repro
        print(json.dumps([loaded, repro.DqnAgent.__module__]))
        """, stdin=write_aiger(random_aig(5, 40, seed=3)))
    assert done.returncode == 0, done.stderr
    loaded, agent_module = json.loads(done.stdout)
    assert loaded == []
    assert agent_module == "repro.rl.agent"


def test_truth_tables_and_evaluate_load_no_numpy():
    done = _run_python("""
        import json, sys
        from repro.aig.aiger import read_aiger
        from repro.aig.simulate import evaluate, po_truth_tables

        aig = read_aiger(sys.stdin.read())
        po_truth_tables(aig)
        evaluate(aig, [True] * aig.num_pis)
        print(json.dumps("numpy" in sys.modules))
        """, stdin=write_aiger(random_aig(5, 40, seed=3)))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) is False


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from repro import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(repro.__all__)
    assert set(repro.__all__) <= set(dir(repro))


def test_eager_packages_export_functions_not_submodules():
    import repro.aig.simulate  # noqa: F401
    import repro.synthesis.recipe  # noqa: F401
    from repro.aig import simulate
    from repro.synthesis import balance, cleanup, refactor, resub, rewrite

    for exported in (rewrite, refactor, resub, balance, cleanup, simulate):
        assert inspect.isfunction(exported), exported
