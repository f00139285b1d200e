"""Smoke test of the benchmark's traced path.

`perfbench/run.py --trace 1` replaces the names `h_value` and `h_grad` in
`dissolve.solvers` and `dissolve.diagnostics` and wraps the problem's
callbacks.  A library change that breaks those lookups, or that adds an
evaluation per point, shows here at test time instead of at benchmark time.  The run happens in a copy of `src/` and
`perfbench/`, so its span file lands in a temporary directory.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# calls per diagnostic suite on the check-fpca pool; the same at seeds 1, 2, 7.
# A stacked call counts once: grad_check's gradient point and its 60 stencil
# points are one h_value, one A(x) and one c(x), h_grad reading the point's
# row, and the probe's 140 samples over its 7 radii are one c(x) and one
# G(x) c; f stays one call per point.  A vjp over a block counts once too:
# one in h_grad, and assumption_a_check's one over its 10 kernel directions
# and the identity side by side.  Each vjp makes one stacked Hessian call,
# and the first at a point one _q and one G(x) c; the block products of Q and
# DQ and the block normal-cone projection go through kernels the tracer does
# not wrap
CHECK_FPCA_CALLS = {
    "mappings.h_value": 1, "mappings.h_grad": 1, "mappings.A_value": 2,
    "mappings.A_vjp": 2, "sets.project": 1, "sets.q": 2, "problems.f": 62,
    "problems.c_value": 4, "problems.c_jac": 6,
}


@pytest.mark.parametrize("workload", ["npca", "check-fpca"])
def test_traced_benchmark_run_reports_every_layer(tmp_path, workload):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert missing == []
    calls = {name[:-len(".calls")]: m["value"]
             for name, m in result["metrics"].items() if name.endswith(".calls")}
    if workload == "npca":
        # one A(x) and one c(x) per h_value, one vjp and one G v per h_grad
        assert calls["mappings.h_value"] > 0
        assert calls["mappings.A_value"] == calls["mappings.h_value"] == calls["problems.c_value"]
        assert calls["mappings.A_vjp"] == calls["mappings.h_grad"] == calls["problems.c_jac"]
        # f once per h_value and once per h_grad, and never again at the exit
        assert calls["problems.f"] == pytest.approx(
            calls["mappings.h_value"] + calls["mappings.h_grad"], rel=1e-12)
    else:
        assert calls == CHECK_FPCA_CALLS
