import dataclasses
import importlib.util
import pathlib

import pytest

from dissolve import cli
from dissolve.mappings import DissolvingMap

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SMALL = ["--struct-points", "3", "--grad-points", "3", "--probe-samples", "20"]
FAMILIES = [
    ["--family", "npca", "--n", "12", "--cols", "6", *SMALL],
    ["--family", "qpb", "--n", "8", *SMALL],
    ["--family", "fpca", "--n", "5", "--k", "2", "--d", "2", *SMALL],
]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_structure():
    return _load("check_structure")


def test_check_structure_accepts_the_documented_red(check_structure, capsys):
    assert check_structure.run(FAMILIES) == 0
    out = capsys.readouterr().out
    assert "FAIL  assumption_a_check" in out
    assert "unexpected" not in out


@pytest.mark.parametrize("shifted", ["npca", "fpca"])
def test_check_structure_fails_on_a_shifted_map(check_structure, capsys,
                                                monkeypatch, shifted):
    # a map shifted by a constant no longer fixes the feasible points; on
    # fpca the kernel residual stays inside span(N(x)), so only the
    # fixed-point identity tells this failure from the documented one
    gen_instance = cli.problems.gen_instance

    def faulty(family, *args, **kwargs):
        inst, prob = gen_instance(family, *args, **kwargs)
        if family != shifted:
            return inst, prob
        amap = prob.amap
        moved = DissolvingMap(value=lambda x, point=None: amap.value(x, point) + 1e-3,
                              vjp=amap.vjp, mode=amap.mode, sigma=amap.sigma)
        return inst, dataclasses.replace(prob, amap=moved)

    monkeypatch.setattr(cli.problems, "gen_instance", faulty)
    assert check_structure.run(FAMILIES) == 1
    out = capsys.readouterr().out
    assert out.count("unexpected:") == 1


def _report(passed, span=1e-15, fixed_point=0.0, idempotency=1e-15):
    detail = {"fixed_point": fixed_point, "kernel": 2.0,
              "kernel_outside_normal_span": span, "idempotency": idempotency}
    return {"check_name": "assumption_a_check", "passed": passed,
            "details": [detail]}


@pytest.mark.parametrize("family,report,reasons", [
    ("fpca", _report(False), 0),
    ("fpca", _report(False, idempotency=None), 0),
    ("fpca", _report(True), 1),
    ("fpca", _report(False, span=1e-9), 1),
    ("fpca", _report(False, idempotency=1e-3), 1),
    ("npca", _report(False), 1),
    ("npca", _report(True), 0),
])
def test_check_structure_names_each_unexpected_verdict(check_structure, family,
                                                       report, reasons):
    assert len(check_structure.unexpected(family, [report])) == reasons


@pytest.mark.parametrize("flags,calls", [([], 3), (["--full", "--jobs", "2"], 5)])
def test_run_benchmarks_passes_flags_that_bench_parses(monkeypatch, tmp_path, flags,
                                                       calls):
    # the script's cli only collects its argv lists, so no solve runs
    run_benchmarks = _load("run_benchmarks")
    seen = []
    monkeypatch.setattr(run_benchmarks, "cli", lambda argv: seen.append(argv) or 0)
    assert run_benchmarks.run(["--out", str(tmp_path), *flags]) == 0
    assert len(seen) == calls
    parser = cli.build_parser()
    for argv in seen:
        args = parser.parse_args(argv)
        assert args.func is cli.cmd_bench
