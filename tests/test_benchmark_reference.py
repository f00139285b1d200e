"""The benchmark's reference solves, checked at test time.

`perfbench/run.py` at seed 0 compares every npca, fpca and qpb-l4 solve
with `perfbench/reference.json`: the iteration count must match and `f_val`
must lie within the workload's tolerance.  qpb-l4 is the one workload on the
lq ball's kernels.  A rounding slip on the solve path
fails that comparison, and this test makes it fail here instead of at
benchmark time.  It solves each reference instance once, with the
benchmark's own workloads and its `check_records`, in a child process that
pins BLAS to one thread as the benchmark does (the thread count changes the
floating-point path).  Nothing is written: bytecode caching is off and
run.py writes spans only when tracing.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

CHECK = """
import json, sys
import program  # pins BLAS threads before numpy loads
import run
import workloads as W

w = W.WORKLOADS[sys.argv[1]]
reference = run.load_reference(w, 0)
cases = [W.make_case(w, 0, base) for base in range(w.pool)]
records = []
for i, case in enumerate(cases):
    out, _, _ = W.run_op(w, case)
    records.append({"case": i, "fp": W.fingerprint(w, out), "out": out})
attempted, failed, failures, _, _ = run.check_records(w, cases, records, reference)
print(json.dumps({"pool": w.pool, "reference": sorted(reference or {}),
                  "attempted": attempted, "failed": failed, "failures": failures}))
"""


@pytest.mark.parametrize("workload", ["npca", "fpca", "qpb-l4"])
def test_reference_solves_match_at_seed_0(workload):
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, workload], cwd=ROOT / "perfbench",
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["reference"] == list(range(out["pool"]))
    assert out["failures"] == []
    assert (out["attempted"], out["failed"]) == (out["pool"], 0)
