import csv
import dataclasses
import json

import numpy as np
import pytest

from dissolve import cli
from dissolve.cli import CSV_COLUMNS, main
from dissolve.mappings import DissolvingMap
from dissolve.problems import (ProblemInstance, feasible_points, gen_qpb,
                               reference_small_oracle)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_solve_writes_csv_and_json(tmp_path):
    csv_path = tmp_path / "runs.csv"
    json_path = tmp_path / "rec.json"
    rc = main(["solve", "--family", "npca", "--n", "30", "--cols", "15",
               "--rho", "0.0", "--seed", "0", "--beta", "100",
               "--csv", str(csv_path), "--json-out", str(json_path)])
    assert rc == 0
    rows = read_rows(csv_path)
    assert len(rows) == 1
    row = rows[0]
    assert list(row.keys()) == CSV_COLUMNS
    assert row["family"] == "npca" and row["status"] == "converged"
    assert float(row["feas"]) <= 1e-6 and float(row["stat"]) <= 1e-6
    record = json.loads(json_path.read_text())
    assert record["fval"] == row["fval"]
    assert len(record["x_final"]) == 30


def test_solve_qpb_small_matches_oracle(tmp_path):
    inst_path = tmp_path / "inst.json"
    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", "--family", "qpb", "--n", "2", "--seed", "0",
               "--csv", str(csv_path), "--dump-instance", str(inst_path)])
    assert rc == 0
    inst = ProblemInstance.load(inst_path)
    oracle = reference_small_oracle(inst)
    row = read_rows(csv_path)[0]
    assert abs(float(row["fval"]) - oracle) <= 1e-4


def test_loaded_qpb_instance_solves_on_its_own_sphere(tmp_path):
    # the file's centre d is the sphere's: moved to 0.9 e_6, the solve ends on
    # ||x - d|| = 1 (it used to solve about 0.5 e_1 whatever d said); the
    # feasible sampler and the oracle, closed forms for 0.5 e_1, refuse it
    inst_path = tmp_path / "inst.json"
    json_path = tmp_path / "rec.json"
    assert main(["dump-instance", "--family", "qpb", "--n", "6", "--out", str(inst_path)]) == 0
    obj = json.loads(inst_path.read_text())
    obj["data"]["d"] = [0.0] * 5 + [0.9]
    inst_path.write_text(json.dumps(obj))
    assert main(["solve", "--instance", str(inst_path), "--json-out", str(json_path)]) == 0
    x = np.array(json.loads(json_path.read_text())["x_final"])
    assert abs(np.linalg.norm(x - obj["data"]["d"]) - 1.0) <= 1e-6
    with pytest.raises(ValueError, match="centre"):
        feasible_points(ProblemInstance.from_json(obj), 1)
    inst, _ = gen_qpb(2)
    with pytest.raises(ValueError, match="centre"):
        reference_small_oracle(dataclasses.replace(inst, data={**inst.data, "d": [0.0, 0.9]}))
    obj["data"]["d"] = [0.9]  # one entry would broadcast to the sphere about 0.9 (1, ..., 1)
    inst_path.write_text(json.dumps(obj))
    assert main(["solve", "--instance", str(inst_path)]) == 2


def test_unknown_family_exits_2_without_files(tmp_path, capsys):
    csv_path = tmp_path / "none.csv"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "wat", "--csv", str(csv_path)])
    assert exc.value.code == 2
    assert not csv_path.exists()


def test_solve_without_family_or_instance_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "none.csv"
    assert main(["solve", "--n", "10", "--csv", str(csv_path)]) == 2
    assert "--family is required unless --instance is given" in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("command", ["solve", "bench", "check", "dump-instance"])
def test_dim_flags_name_the_families_that_read_them(command):
    sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
    helps = {a.dest: a.help for a in sub._actions}
    for dest in ("cols", "rho", "edge_density", "k", "d"):
        assert helps[dest].endswith(f"({cli._used_by(dest)})"), (dest, helps[dest])


def test_solve_rerun_appends_identical_rows_except_time(tmp_path):
    csv_path = tmp_path / "runs.csv"
    args = ["solve", "--family", "qpb", "--n", "12", "--seed", "3",
            "--csv", str(csv_path)]
    assert main(args) == 0
    assert main(args) == 0
    rows = read_rows(csv_path)
    assert len(rows) == 2
    for col in CSV_COLUMNS:
        if col != "time_s":
            assert rows[0][col] == rows[1][col], col


def test_instance_roundtrip_through_loader(tmp_path):
    inst_path = tmp_path / "inst.json"
    csv_path = tmp_path / "runs.csv"
    assert main(["dump-instance", "--family", "npca", "--n", "20",
                 "--cols", "10", "--seed", "1", "--out", str(inst_path)]) == 0
    assert main(["solve", "--family", "npca", "--n", "20", "--cols", "10",
                 "--seed", "1", "--csv", str(csv_path)]) == 0
    assert main(["solve", "--instance", str(inst_path),
                 "--csv", str(csv_path)]) == 0
    rows = read_rows(csv_path)
    assert rows[0]["fval"] == rows[1]["fval"]
    assert rows[0]["stat"] == rows[1]["stat"]


def test_env_seed_default(tmp_path, monkeypatch):
    csv_path = tmp_path / "runs.csv"
    monkeypatch.setenv("DISSOLVE_SEED", "7")
    assert main(["solve", "--family", "qpb", "--n", "8",
                 "--csv", str(csv_path)]) == 0
    assert read_rows(csv_path)[0]["seed"] == "7"


def test_bench_matrix_and_fpca_beta_grid(tmp_path):
    csv_path = tmp_path / "bench.csv"
    rc = main(["bench", "--family", "npca", "--n", "15,20", "--cols", "8",
               "--rho", "0.0,0.1", "--seeds", "0,1", "--jobs", "1",
               "--csv", str(csv_path)])
    assert rc == 0
    rows = read_rows(csv_path)
    assert len(rows) == 8
    assert all(r["status"] == "converged" for r in rows)

    fpca_csv = tmp_path / "fpca.csv"
    rc = main(["bench", "--family", "fpca", "--n", "8", "--k", "2", "--d", "2",
               "--seeds", "0", "--jobs", "1", "--csv", str(fpca_csv)])
    assert rc == 0
    row = read_rows(fpca_csv)[0]
    assert float(row["beta"]) in (0.1, 1.0, 10.0)
    assert row["extra_dims"] == "k=2;d=2"


def test_solver_breakdown_exits_3_with_row_written(tmp_path):
    # a too-weak penalty on this fpca instance stalls at a stationary point
    # of h far from feasibility, which ends the solve under its own status;
    # the row is still recorded
    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", "--family", "fpca", "--n", "8", "--k", "2", "--d", "2",
               "--seed", "0", "--beta", "0.1", "--csv", str(csv_path)])
    assert rc == 3
    rows = read_rows(csv_path)
    assert len(rows) == 1
    assert rows[0]["status"] == "infeasible_stationary"
    assert float(rows[0]["feas"]) > 1e-4  # stationary for h yet far from feasible
    assert float(rows[0]["stat"]) <= 1e-3 * 1e-4
    assert int(rows[0]["iters"]) < 1000


def test_fpca_reaches_tol_1e_6_through_line_search_restarts(tmp_path, monkeypatch):
    # near feasibility the BB line search on this instance runs out of
    # backtracks; each such iterate restarts from the first step's rule and
    # adds no trace row, and the solve converges instead of exiting 3
    searches, results = [], []
    backtrack, solve = cli.solvers._backtrack, cli.solvers.solve

    def recording_backtrack(prob, x, g, alpha, h_ref, step_cap, trial):
        out = backtrack(prob, x, g, alpha, h_ref, step_cap, trial)
        searches.append((alpha, cli.solvers._first_step(g, cli.solvers._norm(x)),
                         out[1] is None))
        return out

    def recording_solve(prob, x0, config):
        results.append(solve(prob, x0, config))
        return results[-1]

    monkeypatch.setattr(cli.solvers, "_backtrack", recording_backtrack)
    monkeypatch.setattr(cli.solvers, "solve", recording_solve)
    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", "--family", "fpca", "--n", "100", "--k", "5", "--d", "3",
               "--seed", "0", "--tol-stat", "1e-6", "--tol-feas", "1e-6",
               "--csv", str(csv_path)])
    assert rc == 0
    assert read_rows(csv_path)[0]["status"] == "converged"
    res, = results
    restarts = [after for before, after in zip(searches, searches[1:]) if before[2]]
    assert restarts and all(alpha == first for alpha, first, _ in restarts)
    assert len(searches) == res.iters + len(restarts)
    assert len(res.trace) == res.iters + 1


def test_solve_reference_configuration(tmp_path):
    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", "--family", "npca", "--n", "100", "--cols", "50",
               "--rho", "0.0", "--seed", "0", "--beta", "100",
               "--csv", str(csv_path)])
    assert rc == 0
    row = read_rows(csv_path)[0]
    assert row["status"] == "converged"
    assert float(row["feas"]) <= 1e-6 and float(row["stat"]) <= 1e-6


def test_bench_parallel_jobs_match_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ["bench", "--family", "qpb", "--n", "6,8", "--seeds", "0,1",
            "--csv"]
    assert main(args + [str(serial), "--jobs", "1"]) == 0
    assert main(args + [str(parallel), "--jobs", "2"]) == 0
    rs, rp = read_rows(serial), read_rows(parallel)
    assert len(rs) == len(rp) == 4
    for a, b in zip(rs, rp):
        for col in CSV_COLUMNS:
            if col != "time_s":
                assert a[col] == b[col]


def test_check_families(capsys):
    assert main(["check", "--family", "npca", "--n", "20", "--cols", "10",
                 "--seed", "0", "--struct-points", "10", "--grad-points", "5",
                 "--probe-samples", "30"]) == 0
    assert main(["check", "--family", "qpb", "--n", "20", "--seed", "0",
                 "--struct-points", "10", "--grad-points", "5",
                 "--probe-samples", "30"]) == 0
    # the fpca family carries a constraint gradient inside the normal cone at
    # every feasible point, and the structural check reports it
    assert main(["check", "--family", "fpca", "--n", "10", "--k", "2",
                 "--d", "3", "--seed", "0", "--struct-points", "5",
                 "--grad-points", "5", "--probe-samples", "30"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  assumption_a_check" in out


def test_check_fault_injection_names_failing_check(capsys, monkeypatch):
    # a map shifted by a constant no longer fixes the feasible points
    gen_instance = cli.problems.gen_instance

    def faulty(*args, **kwargs):
        inst, prob = gen_instance(*args, **kwargs)
        amap = prob.amap
        shifted = DissolvingMap(value=lambda x, point=None: amap.value(x, point) + 1e-3,
                                vjp=amap.vjp, mode=amap.mode, sigma=amap.sigma)
        return inst, dataclasses.replace(prob, amap=shifted)

    monkeypatch.setattr(cli.problems, "gen_instance", faulty)
    rc = main(["check", "--family", "npca", "--n", "15", "--cols", "8",
               "--seed", "0", "--struct-points", "5", "--grad-points", "5",
               "--probe-samples", "20"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL  assumption_a_check" in out


def test_check_json_output(capsys):
    rc = main(["check", "--family", "qpb", "--n", "10", "--seed", "0",
               "--struct-points", "5", "--grad-points", "5",
               "--probe-samples", "20", "--json"])
    assert rc == 0
    reports = json.loads(capsys.readouterr().out)
    names = [r["check_name"] for r in reports]
    assert names == ["grad_check", "assumption_a_check", "pi_sigma",
                     "local_error_bound_probe"]
    assert all(r["passed"] for r in reports)


@pytest.mark.parametrize("degenerate", [False, True])
def test_check_takes_pi_sigma_once(capsys, monkeypatch, degenerate):
    # the pi_sigma report reads the value the error-bound probe took at the
    # same point, also when the probe stops at a degenerate pi
    values = []
    pi_sigma = cli.diagnostics.pi_sigma

    def counting(*args):
        values.append(0.0 if degenerate else pi_sigma(*args))
        return values[-1]

    monkeypatch.setattr(cli.diagnostics, "pi_sigma", counting)
    rc = main(["check", "--family", "qpb", "--n", "10", "--seed", "0",
               "--struct-points", "5", "--grad-points", "5",
               "--probe-samples", "20", "--json"])
    assert rc == (1 if degenerate else 0)
    assert len(values) == 1
    reports = {r["check_name"]: r for r in json.loads(capsys.readouterr().out)}
    assert reports["pi_sigma"]["details"] == [{"pi": values[0]}]
    assert reports["pi_sigma"]["passed"] is not degenerate


def test_solve_and_bench_run_through_solvers_solve(tmp_path, monkeypatch):
    configs = []
    solve = cli.solvers.solve

    def recording(prob, x0, config):
        configs.append(config)
        return solve(prob, x0, config)

    monkeypatch.setattr(cli.solvers, "solve", recording)
    inst_path = tmp_path / "inst.json"
    base = ["--family", "npca", "--n", "10", "--cols", "5", "--seed", "0"]
    assert main(["solve", *base, "--dump-instance", str(inst_path)]) == 0
    assert main(["solve", "--instance", str(inst_path), "--max-iter", "300"]) == 0
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--family", "npca", "--n", "10", "--cols", "5",
                 "--seeds", "0", "--jobs", "1", "--csv", str(csv_path)]) == 0
    assert [c.max_iter for c in configs] == [20000, 300, 20000]
    assert {(c.tol_stat, c.tol_feas) for c in configs} == {(1e-6, 1e-6)}
    row = read_rows(csv_path)[0]
    assert row["solver"] == "pgbb" and row["status"] == "converged"


@pytest.mark.parametrize("command", ["solve", "bench", "check", "dump-instance"])
@pytest.mark.parametrize("dims", [
    ["--family", "npca", "--n", "0"],
    ["--family", "npca", "--cols", "0"],
    ["--family", "npca", "--rho", "nan"],
    ["--family", "qpb", "--n", "1"],
    ["--family", "qpb", "--n", "0"],
    ["--family", "qpb", "--edge-density", "0"],
    ["--family", "qpb", "--edge-density", "1.5"],
    ["--family", "fpca", "--d", "0"],
    ["--family", "fpca", "--k", "0"],
    ["--family", "fpca", "--n", "3", "--d", "5"],
])
def test_bad_generator_dims_exit_2_without_files(tmp_path, capsys, command, dims):
    out = tmp_path / "out"
    if command == "bench":
        # bench takes --n and --rho as comma lists
        dims = [v.replace("nan", "0.1,nan") for v in dims]
        if "--n" not in dims:
            dims = [*dims, "--n", "6"]
        argv = ["bench", *dims, "--seeds", "0", "--jobs", "1", "--csv", str(out)]
    elif command == "dump-instance":
        argv = [command, *dims, "--out", str(out)]
    elif command == "check":
        argv = [command, *dims]
    else:
        argv = [command, *dims, "--csv", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_bad_beta_exits_2_without_rows(tmp_path, capsys, command, beta):
    out = tmp_path / "out.csv"
    argv = [command, "--family", "npca", "--n", "10", "--cols", "5",
            "--beta", beta, "--csv", str(out)]
    if command == "bench":
        argv += ["--seeds", "0", "--jobs", "1"]
    assert main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "beta" in captured.err


def test_bench_max_iter_0_exits_2_without_a_file(tmp_path, capsys):
    # the solver config is built before the CSV opens, not in each task
    out = tmp_path / "out.csv"
    assert main(["bench", "--family", "npca", "--n", "10", "--cols", "5", "--max-iter", "0",
                 "--seeds", "0", "--jobs", "1", "--csv", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "max_iter" in captured.err


@pytest.mark.parametrize("flags", [["--tol-stat", "inf"], ["--tol-feas", "inf"]])
def test_non_finite_step_or_tolerance_exits_2_without_rows(tmp_path, capsys, flags):
    out = tmp_path / "out.csv"
    assert main(["solve", "--family", "npca", "--n", "20", "--cols", "5", *flags,
                 "--csv", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--family", "npca", "--n", "10", "--cols", "5",
                 "--seeds", "0", "--jobs", jobs, "--csv", str(out)]) == 2
    assert not out.exists()
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("grid,flags", [
    (["--family", "qpb", "--n", "", "--seeds", ""], ["--n", "--seeds"]),
    (["--family", "npca", "--n", ","], ["--n"]),
    (["--family", "npca", "--n", "10", "--rho", ""], ["--rho"]),
    (["--family", "npca", "--n", "10", "--seeds", ","], ["--seeds"]),
], ids=["qpb-n-seeds", "npca-n", "npca-rho", "npca-seeds"])
def test_bench_rejects_an_empty_grid(tmp_path, capsys, grid, flags):
    # a grid with no task exits 2 and writes no CSV, not even a header
    out = tmp_path / "bench.csv"
    assert main(["bench", *grid, "--jobs", "1", "--csv", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and all(f in captured.err for f in flags)


@pytest.mark.parametrize("flag", ["--grad-points", "--struct-points", "--probe-samples"])
def test_check_rejects_zero_counts(capsys, flag):
    assert main(["check", "--family", "qpb", "--n", "6", flag, "0"]) == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("dims,extra", [
    (["--family", "npca", "--n", "10", "--cols", "5"], "cols=5"),
    (["--family", "qpb", "--n", "6"], ""),
    (["--family", "fpca", "--n", "8", "--k", "2", "--d", "3"], "k=2;d=3"),
])
def test_extra_dims_column_per_family(tmp_path, dims, extra):
    csv_path = tmp_path / "runs.csv"
    assert main(["solve", *dims, "--seed", "0", "--csv", str(csv_path)]) == 0
    assert read_rows(csv_path)[0]["extra_dims"] == extra


def test_bench_ignores_rho_for_families_without_it(tmp_path):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--family", "qpb", "--n", "6,8", "--rho", "0,0.1",
                 "--seeds", "0,1", "--jobs", "1", "--csv", str(csv_path)]) == 0
    rows = read_rows(csv_path)
    assert [(r["n"], r["seed"], r["rho"]) for r in rows] == [
        ("6", "0", "0.0"), ("6", "1", "0.0"), ("8", "0", "0.0"), ("8", "1", "0.0")]


@pytest.mark.parametrize("dims", [
    ["--family", "qpb", "--n", "9", "--edge-density", "0.4"],
    ["--family", "fpca", "--n", "6", "--k", "3", "--d", "2"],
])
def test_loaded_instance_row_matches_generated_row(tmp_path, dims):
    inst_path = tmp_path / "inst.json"
    csv_path = tmp_path / "runs.csv"
    assert main(["dump-instance", *dims, "--seed", "4", "--out", str(inst_path)]) == 0
    assert main(["solve", *dims, "--seed", "4", "--csv", str(csv_path)]) == 0
    assert main(["solve", "--instance", str(inst_path), "--csv", str(csv_path)]) == 0
    generated, loaded = read_rows(csv_path)
    for col in CSV_COLUMNS:
        if col != "time_s":
            assert generated[col] == loaded[col], col


@pytest.mark.parametrize("solver", [[], ["--solver", "pg"]])
def test_eta_without_fixed_step_solver_exits_2(tmp_path, capsys, solver):
    # the fixed-step solver is gone, and argparse rejects its flags
    csv_path = tmp_path / "runs.csv"
    base = ["--family", "npca", "--n", "10", "--cols", "5", "--max-iter", "50",
            "--csv", str(csv_path)]
    for argv in (["solve", *base, "--eta", "0.001", *solver],
                 ["solve", *base, "--solver", "pgbb"],
                 ["bench", *base, "--seeds", "0", "--jobs", "1", "--solver", "pgbb"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not csv_path.exists()
        assert "unrecognized arguments: --" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--family", "qpb"], ["--n", "9"], ["--cols", "5"], ["--rho", "0.1"],
    ["--edge-density", "0.4"], ["--k", "2"], ["--d", "3"], ["--seed", "4"],
])
def test_instance_with_family_dim_or_seed_flags_exits_2(tmp_path, capsys, extra):
    inst_path = tmp_path / "inst.json"
    csv_path = tmp_path / "runs.csv"
    assert main(["dump-instance", "--family", "qpb", "--n", "9", "--seed", "4",
                 "--out", str(inst_path)]) == 0
    assert main(["solve", "--instance", str(inst_path), *extra,
                 "--csv", str(csv_path)]) == 2
    assert not csv_path.exists()
    assert extra[0] in capsys.readouterr().err


def test_bench_checks_every_task_before_solving_any(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.solvers, "solve", lambda *a: calls.append(a))
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--family", "npca", "--n", "10", "--cols", "5",
                 "--rho", "0.1,nan", "--seeds", "0", "--jobs", "1",
                 "--csv", str(csv_path)]) == 2
    assert calls == []
    assert not csv_path.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("family,dims,field,value", [
    ("fpca", ["--n", "4", "--k", "2", "--d", "3"], "x0", float("inf")),
    ("npca", ["--n", "10", "--cols", "5"], "x0", float("nan")),
    ("qpb", ["--n", "6"], "qvec", float("-inf")),
    ("fpca", ["--n", "4", "--k", "2", "--d", "3"], "A", float("nan")),
    ("qpb", ["--n", "6"], "seed", 2.7),
    ("qpb", ["--n", "6"], "seed", -1),
    ("qpb", ["--n", "6"], "seed", True),
    ("qpb", ["--n", "6"], "seed", "3"),
])
def test_non_finite_instance_exits_2_without_rows(tmp_path, capsys, family, dims,
                                                  field, value):
    # an infinite fpca start used to hang the solve's first projection; a NaN
    # npca start used to print a numerical_failure row and exit 0; a seed of
    # 2.7 was written to the row as 2, and -1, true and "3" passed int()
    inst_path = tmp_path / "inst.json"
    csv_path = tmp_path / "runs.csv"
    assert main(["dump-instance", "--family", family, *dims, "--out", str(inst_path)]) == 0
    obj = json.loads(inst_path.read_text())
    if field == "x0":
        obj["x0"][0] = value
    elif field == "seed":
        obj["seed"] = value
    elif field == "A":
        obj["data"]["A"][1][0][0] = value
    else:
        obj["data"][field][0] = value
    inst_path.write_text(json.dumps(obj))
    assert main(["solve", "--instance", str(inst_path), "--csv", str(csv_path)]) == 2
    assert not csv_path.exists()
    err = capsys.readouterr().err
    assert "error:" in err
    assert ("nonnegative integer" if field == "seed" else "NaN or infinite") in err
    with pytest.raises(ValueError, match=f"instance {field}"):
        ProblemInstance.from_json(obj)


@pytest.mark.parametrize("family,dims,key,value", [
    ("npca", ["--n", "10", "--cols", "5"], "n", 11),
    ("npca", ["--n", "10", "--cols", "5"], "m_cols", 4),
    ("qpb", ["--n", "6"], "n", 7),
    ("fpca", ["--n", "4", "--k", "2", "--d", "3"], "n", 5),
    ("fpca", ["--n", "4", "--k", "2", "--d", "3"], "k", 3),
])
def test_instance_whose_dims_disagree_with_its_arrays_exits_2(tmp_path, capsys, family,
                                                              dims, key, value):
    # a qpb (6) file edited to "n": 7 solved the 6-dimensional instance and
    # printed qpb,7,... with exit 0
    inst_path = tmp_path / "inst.json"
    csv_path = tmp_path / "runs.csv"
    assert main(["dump-instance", "--family", family, *dims, "--out", str(inst_path)]) == 0
    obj = json.loads(inst_path.read_text())
    obj["data"][key] = value
    inst_path.write_text(json.dumps(obj))
    assert main(["solve", "--instance", str(inst_path), "--csv", str(csv_path)]) == 2
    assert not csv_path.exists()
    assert "stored dims" in capsys.readouterr().err
    with pytest.raises(ValueError, match="stored dims"):
        ProblemInstance.from_json(obj)


def test_instance_of_an_unknown_family_exits_2(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    csv_path = tmp_path / "runs.csv"
    assert main(["dump-instance", "--family", "qpb", "--n", "6", "--out", str(inst_path)]) == 0
    obj = json.loads(inst_path.read_text())
    obj["family"] = "wat"
    inst_path.write_text(json.dumps(obj))
    assert main(["solve", "--instance", str(inst_path), "--csv", str(csv_path)]) == 2
    assert not csv_path.exists()
    assert "unknown family 'wat'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown family 'wat'"):
        ProblemInstance.from_json(obj)


@pytest.mark.parametrize("family,dims,key,value,message", [
    # NaN solved to a numerical_failure row with exit 3; "0.5" and true exited 0
    # and printed 0.5 or True in the CSV row
    ("npca", ["--n", "6", "--cols", "3"], "rho", float("nan"), "finite rho"),
    ("npca", ["--n", "6", "--cols", "3"], "rho", float("inf"), "finite rho"),
    ("npca", ["--n", "6", "--cols", "3"], "rho", "0.5", "not a real number"),
    ("npca", ["--n", "6", "--cols", "3"], "rho", True, "not a real number"),
    ("npca", ["--n", "6", "--cols", "3"], "rho", None, "not a real number"),
    ("npca", ["--n", "6", "--cols", "3"], "n", "6", "not a real number"),
    ("qpb", ["--n", "6"], "edge_density", 1.5, "edge_density in"),
    ("qpb", ["--n", "6"], "edge_density", float("nan"), "edge_density in"),
    ("qpb", ["--n", "6"], "edge_density", "0.5", "not a real number"),
    ("qpb", ["--n", "6"], "edge_density", False, "not a real number"),
    ("fpca", ["--n", "4", "--k", "2", "--d", "3"], "d", [3], "not a real number"),
    ("fpca", ["--n", "4", "--k", "2", "--d", "3"], "d", 5, "d <= n"),
])
def test_instance_whose_scalar_dims_the_family_rejects_exits_2(tmp_path, capsys, family,
                                                               dims, key, value, message):
    # a loaded file's dims pass the checks the generator's do, so solve
    # --instance exits 2 with no row where solve --family would
    inst_path = tmp_path / "inst.json"
    csv_path = tmp_path / "runs.csv"
    assert main(["dump-instance", "--family", family, *dims, "--out", str(inst_path)]) == 0
    obj = json.loads(inst_path.read_text())
    obj["data"][key] = value
    inst_path.write_text(json.dumps(obj))
    assert main(["solve", "--instance", str(inst_path), "--csv", str(csv_path)]) == 2
    assert not csv_path.exists()
    assert message in capsys.readouterr().err
    with pytest.raises(ValueError, match=message):
        ProblemInstance.from_json(obj)
    obj["data"].pop(key)
    with pytest.raises(KeyError):
        ProblemInstance.from_json(obj)


@pytest.mark.parametrize("flag", ["--instance", "--csv", "--json-out", "--dump-instance",
                                  "--csv and --json-out", "bench --csv",
                                  "dump-instance --out"])
def test_path_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch, flag):
    # these raised IsADirectoryError with a traceback and exit 1, which
    # reads as a failed check.  solve and bench open every output before they
    # generate or solve anything, so a good --csv gets no row
    calls = []
    monkeypatch.setattr(cli.solvers, "solve", lambda *a: calls.append("solve"))
    gen_instance = cli.problems.gen_instance
    monkeypatch.setattr(cli.problems, "gen_instance",
                        lambda *a, **k: calls.append("generate") or gen_instance(*a, **k))
    small = ["--family", "npca", "--n", "6", "--cols", "3"]
    csv_path = tmp_path / "runs.csv"
    if flag == "bench --csv":
        argv = ["bench", *small, "--seeds", "0", "--jobs", "1", "--csv", str(tmp_path)]
    elif flag == "dump-instance --out":
        argv = ["dump-instance", *small, "--out", str(tmp_path)]
    elif flag == "--instance":
        argv = ["solve", "--instance", str(tmp_path)]
    elif flag == "--csv and --json-out":
        argv = ["solve", *small, "--csv", str(csv_path), "--json-out", str(tmp_path)]
    else:
        argv = ["solve", *small, flag, str(tmp_path)]
    assert main(argv) == 2
    assert calls == (["generate"] if argv[0] == "dump-instance" else [])
    assert not csv_path.exists() or csv_path.read_text() == ""
    assert "Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv,env,source", [
    (["solve", "--family", "qpb", "--n", "6", "--seed", "-1"], None, "--seed"),
    (["check", "--family", "qpb", "--n", "6", "--seed", "-3"], None, "--seed"),
    (["dump-instance", "--family", "qpb", "--n", "6", "--seed", "-1", "--out", "{out}"],
     None, "--seed"),
    (["bench", "--family", "qpb", "--n", "6", "--seeds", "0,1,2,-1"], None, "--seeds"),
    (["bench", "--family", "qpb", "--n", "6", "--seeds", "0,1.5"], None, "--seeds"),
    (["solve", "--family", "qpb", "--n", "6"], "abc", "DISSOLVE_SEED"),
    (["check", "--family", "qpb", "--n", "6"], "-2", "DISSOLVE_SEED"),
    (["bench", "--family", "qpb", "--n", "6"], "1e3", "DISSOLVE_SEED"),
], ids=["solve", "check", "dump-instance", "bench-negative", "bench-fraction",
        "env-solve", "env-check", "env-bench"])
def test_bad_seed_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, argv, env,
                                           source):
    calls = []
    monkeypatch.setattr(cli.solvers, "solve", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.problems, "gen_instance", lambda *a, **k: calls.append(a))
    if env is None:
        monkeypatch.delenv("DISSOLVE_SEED", raising=False)
    else:
        monkeypatch.setenv("DISSOLVE_SEED", env)
    out = tmp_path / "out"
    argv = [a.format(out=out) for a in argv]
    if argv[0] in ("solve", "bench"):
        argv += ["--csv", str(out)]
    assert main(argv) == 2
    assert calls == []
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error: {source} takes nonnegative integer seeds" in err
