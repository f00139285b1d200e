"""The benchmark's workloads: instance pools, one operation each, output checks.

Every workload solves (or checks) a fixed pool of generator instances, base
seeds 0..pool-1.  The workload seed draws one coordinate permutation per
instance and applies it to the data and the start point.  A permuted instance
is the same problem in another coordinate order, so the work per operation
stays comparable across seeds, while its floating-point path, and thus the
exact iterate sequence, differs.  Seed 0 is the identity: the generators'
own instances, which `reference.json` pins.  Instance seeds vary the solve
work several-fold (fpca takes 218 to 1498 iterations over seeds 0..119), so
a pool drawn fresh per seed would make every timing a statement about the
draw rather than the code.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import dissolve
from dissolve import diagnostics, solvers

from tracing import traced_problem

CONVERGED = "converged"
SUITE_CHECKS = ("grad_check", "assumption_a_check", "pi_sigma", "local_error_bound_probe")
KERNEL_SPAN_LIMIT = 1e-12  # assumption_a_check may fail only inside span(N(x))
MAX_ITER = 20000  # the CLI's default
# One point each instead of `dissolve check`'s 20 and 50, 20 probe samples
# instead of 100, at n = 4: one suite then takes 40-70 ms instead of five
# seconds, so a 55 s run repeats each pool instance some two hundred times.
# Slow spells of the shared machine outlast long suites: over ten runs the
# fastest suite spread by 33-39% at 5 s, and by 44% at 0.15 s (n = 20).
SUITE_GRAD_POINTS = 1
SUITE_STRUCT_POINTS = 1
SUITE_PROBE_SAMPLES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # generator behind the pool
    sizes: dict
    pool: int            # base seeds 0..pool-1
    beta: float
    tol: float           # tol_stat = tol_feas, as the CLI uses per family
    domain: str          # "generator" or "l4-ball"
    suite: bool = False  # run the diagnostic suite instead of a solve


WORKLOADS = {
    w.name: w for w in (
        # generic dissolving map, p = 6: Q products and the core dominate.
        # Not in BENCHMARK.json: its 0.5-1 s solves cannot be shortened
        # (about 2.5 ms per iteration at any n) and their fastest run spread
        # by 20-56% over ten 25 s runs.  Kept for traced per-layer study.
        Workload("fpca", "fpca", {"n": 100, "k": 5, "d": 3}, pool=1,
                 beta=1.0, tol=1e-4, domain="generator"),
        # closed-form map, no core: solver loop and f dominate
        Workload("npca", "npca", {"n": 500, "m_cols": 50, "rho": 0.1}, pool=32,
                 beta=100.0, tol=1e-6, domain="generator"),
        # lq-ball projection dominates; 8 MB Qmat per instance.  Not in
        # BENCHMARK.json: its fastest 0.4-0.6 s solves spread by 12-32% over
        # ten runs.  Kept for traced per-layer study.
        Workload("qpb-l4", "qpb", {"n": 1000}, pool=4,
                 beta=10.0, tol=1e-6, domain="l4-ball"),
        # `dissolve check --family fpca --n 4 --grad-points 1 --struct-points 1
        # --probe-samples 20 --seed <base>` for base seeds 0..3
        Workload("check-fpca", "fpca", {"n": 4, "k": 2, "d": 3}, pool=4,
                 beta=1.0, tol=1e-4, domain="generator", suite=True),
    )
}


def _generate(w, base):
    s = w.sizes
    if w.family == "npca":
        return dissolve.gen_npca(s["n"], s["m_cols"], s["rho"], seed=base)[0]
    if w.family == "qpb":
        return dissolve.gen_qpb(s["n"], seed=base)[0]
    return dissolve.gen_fpca(s["n"], s["k"], s["d"], seed=base)[0]


def _permuted_instance(w, seed, base):
    """Generate base instance `base`; unless seed is 0, permute its coordinates."""
    inst = _generate(w, base)
    if seed == 0:
        return inst
    data, x0 = inst.data, inst.x0
    perm = np.random.default_rng([int(seed), int(base), 5]).permutation(data["n"])
    # copies stay C-contiguous, as the generators' arrays are: the memory
    # layout picks the BLAS kernel and with it the rounding
    take = np.ascontiguousarray
    if w.family == "npca":
        data = dict(data, B=take(data["B"][perm]))
        x0 = x0[perm]
    elif w.family == "qpb":
        data = dict(data, Qmat=take(data["Qmat"][np.ix_(perm, perm)]),
                    qvec=data["qvec"][perm], d=data["d"][perm])
        x0 = x0[perm]
    else:
        n, d = data["n"], data["d"]
        # row permutations of P keep the spectral ball; A_i P = (A_i Pi^T)(Pi P)
        data = dict(data, A=[take(A[:, perm]) for A in data["A"]])
        P0 = x0[:n * d].reshape((n, d), order="F")[perm]
        x0 = np.concatenate([P0.reshape(-1, order="F"), x0[n * d:]])
    return dissolve.ProblemInstance(w.family, base, x0, data)


def qpb_l4_problem(data, beta):
    """qpb's objective and shifted-sphere constraint over the unit l4 ball,
    with the generic analytic dissolving map; built from exported names."""
    Qmat, qvec, d = data["Qmat"], data["qvec"], data["d"]
    cmap = dissolve.ConstraintMap(
        p=1,
        value=lambda x: np.array([(x - d) @ (x - d) - 1.0]),
        jac_t_apply=lambda x, v: 2.0 * v[0] * (x - d),
        jac_apply=lambda x, dd: np.array([2.0 * ((x - d) @ dd)]),
        hess_apply=lambda x, lam, dd: 2.0 * lam[0] * dd,
    )
    domain = dissolve.NormBall(qvec.size, 1.0, exponent=4.0)
    return dissolve.PenaltyProblem(
        f_value=lambda x: 0.5 * float(x @ (Qmat @ x)) + float(qvec @ x),
        f_grad=lambda x: Qmat @ x + qvec,
        cmap=cmap,
        amap=dissolve.build_aq(domain, cmap, sigma=1.0, mode="generic_analytic"),
        domain=domain,
        beta=beta,
    )


def data_bytes(obj):
    """Bytes held in the numpy arrays of an instance's data (computed, not measured)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(data_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(data_bytes(v) for v in obj)
    return 0


@dataclass
class Case:
    """One pool instance, ready to run."""

    base: int
    prob: object
    x0: np.ndarray
    nbytes: int
    grad_points: list = field(default_factory=list)
    struct_points: list = field(default_factory=list)
    traced: object = None   # the same problem with wrapped callbacks


def make_case(w, seed, base):
    inst = _permuted_instance(w, seed, base)
    if w.domain == "l4-ball":
        prob = qpb_l4_problem(inst.data, w.beta)
        x0 = prob.domain.project(inst.x0)
    else:
        prob = dissolve.build_problem(inst, beta=w.beta)
        x0 = inst.x0
    case = Case(base, prob, x0, data_bytes(inst.data) + x0.nbytes)
    if w.suite:
        # point sets and sub-seeds as `dissolve check --seed <base>` draws them
        case.grad_points = dissolve.near_feasible_points(inst, SUITE_GRAD_POINTS,
                                                         seed=base + 1)
        case.struct_points = dissolve.feasible_points(inst, SUITE_STRUCT_POINTS,
                                                      seed=base + 2)
    return case


def config(w, max_iter=MAX_ITER):
    return dissolve.SolverConfig(tol_stat=w.tol, tol_feas=w.tol, max_iter=max_iter)


# ---------------------------------------------------------------- operations


def warm_up(w, case):
    """Touch every code path an operation uses, on a few points only."""
    if w.suite:
        run_suite(case.prob, case.grad_points[:1], case.struct_points[:1],
                  case.base + 3, probe_samples=2)
    else:
        solvers.solve(case.prob, case.x0, config(w, max_iter=3))


def run_suite(prob, grad_points, struct_points, probe_seed,
              probe_samples=SUITE_PROBE_SAMPLES, wrap=lambda name, fn: fn):
    """The four checks of `dissolve check`, each timed from outside.

    Returns ({check: report or pi value}, {check: seconds}).
    """
    calls = {
        "grad_check": lambda: diagnostics.grad_check(prob, grad_points),
        "assumption_a_check": lambda: diagnostics.assumption_a_check(
            prob.amap, prob.cmap, prob.domain, struct_points),
        "pi_sigma": lambda: diagnostics.pi_sigma(prob.cmap, prob.domain,
                                                 struct_points[0]),
        "local_error_bound_probe": lambda: diagnostics.local_error_bound_probe(
            prob.cmap, prob.domain, struct_points[0], n_samples=probe_samples,
            seed=probe_seed),
    }
    out, secs = {}, {}
    for name in SUITE_CHECKS:
        fn = wrap("diagnostics." + name, calls[name])
        t0 = time.perf_counter()
        out[name] = fn()
        secs[name] = time.perf_counter() - t0
    return out, secs


def run_op(w, case, tracer=None):
    """One timed operation; returns (output, seconds, per-check seconds).
    With a tracer it runs on the wrapped problem, inside spans."""
    if tracer is None:
        return _timed_op(w, case, case.prob, lambda name, fn: fn)
    if case.traced is None:
        case.traced = traced_problem(case.prob, tracer)
    with tracer.patch_penalty():
        return _timed_op(w, case, case.traced, tracer.wrap)


def _timed_op(w, case, prob, wrap):
    if w.suite:
        t0 = time.perf_counter()
        out, secs = run_suite(prob, case.grad_points, case.struct_points,
                              case.base + 3, wrap=wrap)
        return out, time.perf_counter() - t0, secs
    solve, cfg = wrap("solvers.solve", solvers.solve), config(w)
    t0 = time.perf_counter()
    out = solve(prob, case.x0, cfg)
    return out, time.perf_counter() - t0, {}


# ---------------------------------------------------------------- checks


def check_solve(w, case, result):
    """Reasons this solve's output is wrong; empty when it is right.
    Feasibility and stationarity are recomputed from x_final."""
    bad = []
    if result.status != CONVERGED:
        bad.append(f"status {result.status}")
    x = np.asarray(result.x_final, dtype=float)
    if x.shape != case.x0.shape or not np.all(np.isfinite(x)):
        return bad + ["x_final has the wrong shape or is not finite"]
    if not case.prob.domain.contains(x):
        bad.append("x_final outside the domain")
    feas = solvers.feasibility_measure(case.prob, x)
    stat = solvers.stationarity_measure(case.prob, x)
    if not feas <= w.tol:
        bad.append(f"feasibility {feas:.3e} > {w.tol:g}")
    if not stat <= w.tol:
        bad.append(f"stationarity {stat:.3e} > {w.tol:g}")
    return bad


def check_suite(out):
    """Reasons the suite's verdicts differ from the documented ones: all
    pass except assumption_a_check, and only through its kernel residual
    lying in span(N(x)) (the fpca constraint-qualification degeneracy)."""
    bad = []
    if not out["grad_check"].passed:
        bad.append("grad_check failed")
    aa = out["assumption_a_check"]
    if aa.passed:
        bad.append("assumption_a_check passed")
    span = max(d["kernel_outside_normal_span"] for d in aa.details)
    if not span < KERNEL_SPAN_LIMIT:
        bad.append(f"kernel_outside_normal_span {span:.3e} >= {KERNEL_SPAN_LIMIT:g}")
    if not out["pi_sigma"] > 1e-10:
        bad.append("pi_sigma degenerate")
    if not out["local_error_bound_probe"].passed:
        bad.append("local_error_bound_probe failed")
    return bad


def fingerprint(w, out):
    """Digest of what must repeat bit for bit between runs of the same case."""
    if w.suite:
        payload = repr({k: (v if isinstance(v, float) else v.to_json())
                        for k, v in out.items()}).encode()
    else:
        payload = repr((out.iters, out.f_val)).encode() + out.x_final.tobytes()
    return hashlib.sha256(payload).hexdigest()


def kkt_ratio(case, result):
    """kkt_residual_original / (2 stat + 1e-8); above 1 breaks the transfer bound."""
    kkt = dissolve.kkt_residual_original(case.prob, result.x_final)
    return kkt / (2.0 * result.stat + 1e-8)
