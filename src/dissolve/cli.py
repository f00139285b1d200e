"""Command-line harness: generate instances, run solves, run checks, emit tables.

CSV schema (fixed order):
    family,n,extra_dims,rho,seed,solver,beta,fval,feas,stat,iters,time_s,status
Exit codes: 0 success, 1 failed check, 2 invalid configuration, 3 solver
numerical failure (the row/record is still written).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys

import numpy as np

from . import diagnostics, problems, solvers

CSV_COLUMNS = ["family", "n", "extra_dims", "rho", "seed", "solver", "beta",
               "fval", "feas", "stat", "iters", "time_s", "status"]

FAMILY_TOLS = {"npca": 1e-6, "qpb": 1e-6, "fpca": 1e-4}


def _default_seed():
    return int(os.environ.get("DISSOLVE_SEED", "0"))


def _dims_from_args(args):
    if args.family == "npca":
        return {"n": args.n, "m_cols": args.cols, "rho": args.rho}
    if args.family == "qpb":
        return {"n": args.n, "edge_density": args.edge_density}
    return {"n": args.n, "k": args.k, "d": args.d}


def _extra_dims(family, dims):
    if family == "npca":
        return f"cols={dims['m_cols']}"
    if family == "fpca":
        return f"k={dims['k']};d={dims['d']}"
    return ""


def _step_rule(solver_name):
    return "fixed" if solver_name == "pg" else "bb_nonmonotone"


def _solver_config(args, family):
    tol = FAMILY_TOLS[family]
    return solvers.SolverConfig(
        tol_stat=args.tol_stat if args.tol_stat is not None else tol,
        tol_feas=args.tol_feas if args.tol_feas is not None else tol,
        max_iter=args.max_iter,
        step_rule=_step_rule(args.solver),
        eta=args.eta,
    )


def _run_single(family, dims, seed, beta, config):
    inst, prob = problems.gen_instance(family, seed=seed, beta=beta, **dims)
    return inst, prob, solvers.solve(prob, inst.x0, config)


def _row(family, dims, seed, solver_name, beta, result):
    return {
        "family": family,
        "n": dims["n"],
        "extra_dims": _extra_dims(family, dims),
        "rho": dims.get("rho", 0.0),
        "seed": seed,
        "solver": solver_name,
        "beta": f"{beta:.17g}",
        "fval": f"{result.f_val:.17g}",
        "feas": f"{result.feas:.17g}",
        "stat": f"{result.stat:.17g}",
        "iters": result.iters,
        "time_s": f"{result.wall_time_s:.6f}",
        "status": result.status,
    }


def _append_csv(path, rows):
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if new_file:
            writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_solve(args):
    seed = args.seed if args.seed is not None else _default_seed()
    if not args.instance and not args.family:
        print("error: --family is required unless --instance is given",
              file=sys.stderr)
        return 2
    if args.instance:
        inst = problems.ProblemInstance.load(args.instance)
        family = inst.family
        dims = {k: inst.data[k] for k in ("n", "m_cols", "k", "d", "rho",
                                          "edge_density") if k in inst.data}
        prob = problems.build_problem(inst, beta=args.beta)
        result = solvers.solve(prob, inst.x0, _solver_config(args, family))
    else:
        family = args.family
        dims = _dims_from_args(args)
        inst, prob, result = _run_single(family, dims, seed, args.beta,
                                         _solver_config(args, family))
    beta = prob.beta

    if args.dump_instance:
        inst.dump(args.dump_instance)
    row = _row(family, dims, inst.seed, args.solver, beta, result)
    if args.csv:
        _append_csv(args.csv, [row])
    if args.json_out:
        record = dict(row)
        record["x_final"] = result.x_final.tolist()
        record["h_val"] = result.h_val
        with open(args.json_out, "w") as fh:
            json.dump(record, fh)
    print(",".join(str(row[c]) for c in CSV_COLUMNS))
    if result.status in (solvers.NUMERICAL_FAILURE, solvers.LINE_SEARCH_FAILURE):
        return 3
    return 0


def _bench_task(payload):
    family, dims, seed, beta_grid, solver_name, max_iter = payload
    tol = FAMILY_TOLS[family]
    config = solvers.SolverConfig(tol_stat=tol, tol_feas=tol, max_iter=max_iter,
                                  step_rule=_step_rule(solver_name))
    best = None
    for beta in beta_grid:
        inst, prob, result = _run_single(family, dims, seed, beta, config)
        feasible = result.feas <= tol
        key = (0 if feasible else 1, result.f_val if feasible else result.feas)
        if best is None or key < best[0]:
            best = (key, beta, result)
    _, beta, result = best
    return _row(family, dims, seed, solver_name, beta, result)


def _int_list(text, default=None):
    items = [s for s in (text or "").split(",") if s.strip()]
    if not items:
        return default if default is not None else []
    return [int(s) for s in items]


def cmd_bench(args):
    seeds = _int_list(args.seeds, default=[_default_seed()])
    ns = _int_list(args.n)
    rhos = ([float(s) for s in args.rho.split(",") if s.strip()]
            if args.family == "npca" else [0.0])
    if args.beta is not None:
        beta_grid = [args.beta]
    elif args.family == "fpca":
        beta_grid = list(problems.FPCA_BETA_GRID)
    else:
        beta_grid = [problems.DEFAULT_BETA[args.family]]

    tasks = []
    for n in ns:
        for rho in rhos:
            for seed in seeds:
                if args.family == "npca":
                    dims = {"n": n, "m_cols": args.cols, "rho": rho}
                elif args.family == "qpb":
                    dims = {"n": n, "edge_density": args.edge_density}
                else:
                    dims = {"n": n, "k": args.k, "d": args.d}
                tasks.append((args.family, dims, seed, beta_grid, args.solver,
                              args.max_iter))

    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_bench_task, tasks))
    else:
        rows = [_bench_task(t) for t in tasks]
    _append_csv(args.csv, rows)
    for row in rows:
        print(",".join(str(row[c]) for c in CSV_COLUMNS))
    return 0


def cmd_check(args):
    seed = args.seed if args.seed is not None else _default_seed()
    dims = _dims_from_args(args)
    inst, prob = problems.gen_instance(args.family, seed=seed, **dims)
    pts_grad = problems.near_feasible_points(inst, args.grad_points, seed=seed + 1)
    pts_struct = problems.feasible_points(inst, args.struct_points, seed=seed + 2)

    reports = []
    reports.append(diagnostics.grad_check(prob, pts_grad))
    reports.append(diagnostics.assumption_a_check(prob.amap, prob.cmap,
                                                  prob.domain, pts_struct))
    pi_val = diagnostics.pi_sigma(prob.cmap, prob.domain, pts_struct[0])
    reports.append(diagnostics.CheckReport.build(
        "pi_sigma", 1, 0.0 if pi_val > 1e-10 else np.inf, 1.0,
        [{"pi": pi_val}]))
    probe = diagnostics.local_error_bound_probe(prob.cmap, prob.domain,
                                                pts_struct[0],
                                                n_samples=args.probe_samples,
                                                seed=seed + 3)
    reports.append(probe)

    if args.json:
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            mark = "pass" if r.passed else "FAIL"
            print(f"{mark}  {r.check_name:28s} worst={r.worst_violation:.3e} "
                  f"threshold={r.threshold:.3e} samples={r.samples}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_dump_instance(args):
    seed = args.seed if args.seed is not None else _default_seed()
    dims = _dims_from_args(args)
    inst, _ = problems.gen_instance(args.family, seed=seed, **dims)
    inst.dump(args.out)
    print(args.out)
    return 0


def _add_dim_flags(p, family_required=True):
    p.add_argument("--family", required=family_required,
                   choices=("npca", "qpb", "fpca"))
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--cols", type=int, default=25, help="npca column count")
    p.add_argument("--rho", type=float, default=0.0, help="npca sparsity charge")
    p.add_argument("--edge-density", type=float, default=0.5, help="qpb graph density")
    p.add_argument("--k", type=int, default=2, help="fpca group count")
    p.add_argument("--d", type=int, default=3, help="fpca target rank")
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to env DISSOLVE_SEED or 0")


def build_parser():
    parser = argparse.ArgumentParser(prog="dissolve")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="generate (or load) one instance and solve it")
    _add_dim_flags(ps, family_required=False)
    ps.add_argument("--beta", type=float, default=None)
    ps.add_argument("--solver", choices=("pgbb", "pg"), default="pgbb")
    ps.add_argument("--eta", type=float, default=None, help="fixed step for pg")
    ps.add_argument("--tol-stat", type=float, default=None)
    ps.add_argument("--tol-feas", type=float, default=None)
    ps.add_argument("--max-iter", type=int, default=20000)
    ps.add_argument("--csv", default=None, help="append one row here")
    ps.add_argument("--json-out", default=None)
    ps.add_argument("--instance", default=None, help="load instead of generating")
    ps.add_argument("--dump-instance", default=None)
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="run a matrix of instances into a CSV table")
    pb.add_argument("--family", required=True, choices=("npca", "qpb", "fpca"))
    pb.add_argument("--n", required=True, help="comma list of sizes")
    pb.add_argument("--cols", type=int, default=50)
    pb.add_argument("--rho", default="0.0", help="comma list (npca)")
    pb.add_argument("--edge-density", type=float, default=0.5)
    pb.add_argument("--k", type=int, default=2)
    pb.add_argument("--d", type=int, default=3)
    pb.add_argument("--seeds", default=None, help="comma list")
    pb.add_argument("--beta", type=float, default=None,
                    help="fixed beta (fpca defaults to a grid)")
    pb.add_argument("--solver", choices=("pgbb", "pg"), default="pgbb")
    pb.add_argument("--max-iter", type=int, default=20000)
    pb.add_argument("--jobs", type=int, default=None)
    pb.add_argument("--csv", required=True)
    pb.set_defaults(func=cmd_bench)

    pc = sub.add_parser("check", help="run the diagnostic suite on one family")
    _add_dim_flags(pc)
    pc.add_argument("--grad-points", type=int, default=20)
    pc.add_argument("--struct-points", type=int, default=50)
    pc.add_argument("--probe-samples", type=int, default=100)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_check)

    pd = sub.add_parser("dump-instance", help="write one instance as JSON")
    _add_dim_flags(pd)
    pd.add_argument("--out", required=True)
    pd.set_defaults(func=cmd_dump_instance)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
