"""`import dissolve`, the paths the benchmark runs and a polyhedral projection
at a member point leave scipy unloaded.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.  scipy's subpackages cost most of a cold start; sets.py
imports them only where they are called (see its module docstring).
"""

import json

from conftest import run_fresh

HEAVY = ("scipy.linalg", "scipy.optimize")

# prints, after each step, which of HEAVY are in sys.modules
PROBE = """
import contextlib, io, json, sys
loaded = {}
def mark(step):
    loaded[step] = [m for m in %r if m in sys.modules]

import dissolve
mark("import dissolve")
import dissolve.cli
mark("import dissolve.cli")

from dissolve import problems, solvers
inst, prob = problems.gen_instance("npca", seed=0, n=20, m_cols=5, beta=100.0)
res = solvers.solve(prob, inst.x0)
assert res.status == "converged", res.status
mark("npca solve")

with contextlib.redirect_stdout(io.StringIO()) as out:
    dissolve.cli.main(["check", "--family", "fpca", "--n", "4", "--seed", "0",
                      "--grad-points", "1", "--struct-points", "1",
                      "--probe-samples", "20", "--json"])
assert [r["check_name"] for r in json.loads(out.getvalue())] == [
    "grad_check", "assumption_a_check", "pi_sigma", "local_error_bound_probe"]
mark("check --family fpca")

import numpy as np
from dissolve.sets import LinearInequalities
poly = LinearInequalities(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0]))
assert poly.project(np.array([0.5, -3.0])).tolist() == [0.5, -3.0]
mark("polyhedral project at a member")
print(json.dumps(loaded))
""" % (HEAVY,)


def test_scipy_subpackages_stay_unloaded():
    loaded = json.loads(run_fresh(PROBE).splitlines()[-1])
    assert list(loaded) == ["import dissolve", "import dissolve.cli", "npca solve",
                            "check --family fpca", "polyhedral project at a member"]
    assert loaded == {step: [] for step in loaded}
