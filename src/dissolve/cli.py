"""Command-line harness: generate instances, run solves, run checks, emit tables.

CSV schema (fixed order):
    family,n,extra_dims,rho,seed,solver,beta,fval,feas,stat,iters,time_s,status
`solver` is always "pgbb", `solvers.solve`'s projected gradient with the
Barzilai-Borwein step.
Exit codes: 0 success, 1 failed check, 2 invalid configuration, 3 solver
failure: numerical, line search or an infeasible stationary point (the
row/record is still written).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import json
import os
import sys

import numpy as np

from . import diagnostics, mappings, problems, solvers

CSV_COLUMNS = ["family", "n", "extra_dims", "rho", "seed", "solver", "beta",
               "fval", "feas", "stat", "iters", "time_s", "status"]

# defaults of the dim flags of solve, check and dump-instance; the flags
# themselves default to None, so that solve can tell a given flag from none
DIM_DEFAULTS = {"n": 50, "cols": 25, "rho": 0.0, "edge_density": 0.5, "k": 2, "d": 3}


def _seed(text, flag=None):
    """The seed `text` from `flag`, else DISSOLVE_SEED's (else 0); anything but
    a nonnegative integer raises ValueError naming its source."""
    if text is None:
        text, flag = os.environ.get("DISSOLVE_SEED", "0"), "DISSOLVE_SEED"
    if not str(text).strip().isdecimal():
        raise ValueError(f"{flag} takes nonnegative integer seeds; got {text!r}")
    return int(text)


def _dims_from_args(args, **override):
    """The family's generator dims from its CLI options, with `override` on top."""
    dims = {}
    for key, dest in problems.FAMILIES[args.family].cli_dims.items():
        value = getattr(args, dest)
        dims[key] = DIM_DEFAULTS[dest] if value is None else value
    dims.update((k, v) for k, v in override.items() if k in dims)
    return dims


def _solver_config(family, max_iter, tol_stat=None, tol_feas=None):
    """The solver config, at the family's tolerance by default."""
    tol = problems.FAMILIES[family].tol
    return solvers.SolverConfig(
        tol_stat=tol_stat if tol_stat is not None else tol,
        tol_feas=tol_feas if tol_feas is not None else tol,
        max_iter=max_iter)


def _row(family, dims, seed, beta, result):
    return {
        "family": family,
        "n": dims["n"],
        "extra_dims": problems.FAMILIES[family].extra_dims.format(**dims),
        "rho": dims.get("rho", 0.0),
        "seed": seed,
        "solver": "pgbb",
        "beta": f"{beta:.17g}",
        "fval": f"{result.f_val:.17g}",
        "feas": f"{result.feas:.17g}",
        "stat": f"{result.stat:.17g}",
        "iters": result.iters,
        "time_s": f"{result.wall_time_s:.6f}",
        "status": result.status,
    }


def _append_csv(fh, rows):
    """Write `rows` to the CSV file `fh` opened to append, after a header if empty."""
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    if fh.tell() == 0:
        writer.writeheader()
    writer.writerows(rows)


def cmd_solve(args):
    seed = _seed(args.seed, "--seed")
    if not args.instance and not args.family:
        print("error: --family is required unless --instance is given",
              file=sys.stderr)
        return 2
    if args.instance:
        given = ["--family"] if args.family else []
        given += ["--" + dest.replace("_", "-") for dest in (*DIM_DEFAULTS, "seed")
                  if getattr(args, dest) is not None]
        if given:
            raise ValueError("--instance takes the family, dims and seed from its "
                             f"file; drop {', '.join(given)}")
    inst = problems.ProblemInstance.load(args.instance) if args.instance else None
    family = args.family if inst is None else inst.family
    config = _solver_config(family, args.max_iter, args.tol_stat, args.tol_feas)
    if inst is None:
        dims = _dims_from_args(args)
        problems.FAMILIES[family].check(**dims)
    else:
        dims = {k: inst.data[k] for k in problems.FAMILIES[family].cli_dims
                if k in inst.data}
    # a beta PenaltyProblem would reject and a path that cannot be written
    # both exit 2 before an instance is generated or solved
    if args.beta is not None:
        mappings._check_beta(args.beta)
    with contextlib.ExitStack() as stack:
        csv_fh, dump_fh, json_fh = (
            path and stack.enter_context(open(path, mode, newline=""))
            for path, mode in ((args.csv, "a"), (args.dump_instance, "w"), (args.json_out, "w")))
        if inst is None:
            inst, prob = problems.gen_instance(family, seed=seed, beta=args.beta, **dims)
        else:
            prob = problems.build_problem(inst, beta=args.beta)
        result = solvers.solve(prob, inst.x0, config)
        row = _row(family, dims, inst.seed, prob.beta, result)
        if dump_fh:
            json.dump(inst.to_json(), dump_fh)
        if csv_fh:
            _append_csv(csv_fh, [row])
        if json_fh:
            json.dump({**row, "x_final": result.x_final.tolist(), "h_val": result.h_val},
                      json_fh)
    print(",".join(str(row[c]) for c in CSV_COLUMNS))
    return 0 if result.status in (solvers.CONVERGED, solvers.MAX_ITER) else 3


def _bench_task(payload):
    family, dims, seed, beta_grid, config = payload
    best = None
    for beta in beta_grid:
        inst, prob = problems.gen_instance(family, seed=seed, beta=beta, **dims)
        result = solvers.solve(prob, inst.x0, config)
        feasible = result.feas <= config.tol_feas
        key = (0 if feasible else 1, result.f_val if feasible else result.feas)
        if best is None or key < best[0]:
            best = (key, beta, result)
    _, beta, result = best
    return _row(family, dims, seed, beta, result)


def _comma_list(text, kind):
    return [kind(s) for s in text.split(",") if s.strip()]


def cmd_bench(args):
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1; got {args.jobs}")
    seeds = ([_seed(s, "--seeds") for s in _comma_list(args.seeds, str)]
             if args.seeds is not None else [_seed(None)])
    ns = _comma_list(args.n, int)
    family = problems.FAMILIES[args.family]
    rhos = _comma_list(args.rho, float) if "rho" in family.cli_dims else [None]
    empty = [flag for flag, items in (("--n", ns), ("--rho", rhos), ("--seeds", seeds))
             if not items]
    if empty:
        raise ValueError(f"{', '.join(empty)} lists no value, so the grid has no task")
    beta_grid = [args.beta] if args.beta is not None else list(family.beta_grid)
    config = _solver_config(args.family, args.max_iter)

    tasks = [(args.family, _dims_from_args(args, n=n, rho=rho), seed, beta_grid, config)
             for n in ns for rho in rhos for seed in seeds]
    for task in tasks:  # every task's dims before any solve
        family.check(**task[1])
    if args.beta is not None:  # as PenaltyProblem would, before the CSV opens
        mappings._check_beta(args.beta)

    jobs = args.jobs or os.cpu_count() or 1
    with open(args.csv, "a", newline="") as fh:  # before any solve
        if jobs > 1 and len(tasks) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_bench_task, tasks))
        else:
            rows = [_bench_task(t) for t in tasks]
        _append_csv(fh, rows)
    for row in rows:
        print(",".join(str(row[c]) for c in CSV_COLUMNS))
    return 0


def cmd_check(args):
    seed = _seed(args.seed, "--seed")
    if min(args.grad_points, args.struct_points, args.probe_samples) < 1:
        raise ValueError("--grad-points, --struct-points and --probe-samples "
                         "must be at least 1")
    dims = _dims_from_args(args)
    inst, prob = problems.gen_instance(args.family, seed=seed, **dims)
    pts_grad = problems.near_feasible_points(inst, args.grad_points, seed=seed + 1)
    pts_struct = problems.feasible_points(inst, args.struct_points, seed=seed + 2)

    reports = [diagnostics.grad_check(prob, pts_grad),
               diagnostics.assumption_a_check(prob.amap, prob.cmap,
                                              prob.domain, pts_struct)]
    # the probe takes pi_sigma at its base point, which the pi_sigma report reuses
    probe = diagnostics.local_error_bound_probe(prob.cmap, prob.domain,
                                                pts_struct[0],
                                                n_samples=args.probe_samples,
                                                seed=seed + 3)
    pi_val = probe.details[-1]["pi"]
    reports.append(diagnostics.CheckReport.build(
        "pi_sigma", 1, 0.0 if pi_val > diagnostics.PI_SIGMA_FLOOR else np.inf, 1.0,
        [{"pi": pi_val}]))
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
    seed = _seed(args.seed, "--seed")
    dims = _dims_from_args(args)
    inst, _ = problems.gen_instance(args.family, seed=seed, **dims)
    inst.dump(args.out)
    print(args.out)
    return 0


def _used_by(dest):
    """The families that read CLI option `dest`, for its help text."""
    return ", ".join(name for name, fam in problems.FAMILIES.items()
                     if dest in fam.cli_dims.values())


def _add_dim_flags(p, family_required=True):
    p.add_argument("--family", required=family_required,
                   choices=tuple(problems.FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--cols", type=int, help=f"column count ({_used_by('cols')})")
    p.add_argument("--rho", type=float, help=f"sparsity charge ({_used_by('rho')})")
    p.add_argument("--edge-density", type=float,
                   help=f"graph density ({_used_by('edge_density')})")
    p.add_argument("--k", type=int, help=f"group count ({_used_by('k')})")
    p.add_argument("--d", type=int, help=f"target rank ({_used_by('d')})")
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to env DISSOLVE_SEED or 0")


def build_parser():
    parser = argparse.ArgumentParser(prog="dissolve")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="generate (or load) one instance and solve it")
    _add_dim_flags(ps, family_required=False)
    ps.add_argument("--beta", type=float, default=None)
    ps.add_argument("--tol-stat", type=float, default=None)
    ps.add_argument("--tol-feas", type=float, default=None)
    ps.add_argument("--max-iter", type=int, default=20000)
    ps.add_argument("--csv", default=None, help="append one row here")
    ps.add_argument("--json-out", default=None)
    ps.add_argument("--instance", default=None, help="load instead of generating")
    ps.add_argument("--dump-instance", default=None)
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="run a matrix of instances into a CSV table")
    pb.add_argument("--family", required=True, choices=tuple(problems.FAMILIES))
    pb.add_argument("--n", required=True, help="comma list of sizes")
    pb.add_argument("--cols", type=int, default=50)
    pb.add_argument("--rho", default="0.0", help=f"comma list ({_used_by('rho')})")
    pb.add_argument("--edge-density", type=float, default=0.5)
    pb.add_argument("--k", type=int, default=2)
    pb.add_argument("--d", type=int, default=3)
    pb.add_argument("--seeds", default=None, help="comma list")
    pb.add_argument("--beta", type=float, default=None,
                    help="fixed beta (defaults to the family's grid)")
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
