"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s -v tests/test_acceptance.py` to see the lines as they
print.  Numbers are tolerance- and property-based; instance-level objective
values depend on the seeded random data.
"""

import time

import numpy as np
import pytest

from dissolve.diagnostics import assumption_a_check, grad_check
from dissolve.problems import (
    FPCA_BETA_GRID,
    feasible_points,
    gen_fpca,
    gen_npca,
    gen_qpb,
    near_feasible_points,
    reference_small_oracle,
)
from dissolve.solvers import SolverConfig, kkt_residual_original, solve

from conftest import dq_apply, make_catalog, q_matrix, sample_point, sample_smooth_point

NPCA_GRID = [(rho, seed) for rho in (0.0, 0.1) for seed in (0, 1, 2)]
QPB_SMALL_SEEDS = (0, 1, 2)
QPB_LARGE_SIZES = (100, 500)
FPCA_DIMS = (20, 2, 3)


def announce(num, ok, text):
    mark = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{mark}]: {text}", flush=True)


# ---------------------------------------------------------------- shared runs


@pytest.fixture(scope="module")
def npca_runs():
    out = {}
    for rho, seed in NPCA_GRID:
        inst, prob = gen_npca(100, 50, rho=rho, seed=seed, beta=100.0)
        t0 = time.perf_counter()
        res = solve(prob, inst.x0, SolverConfig(max_iter=5000))
        out[(rho, seed)] = (prob, res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def qpb_runs():
    out = {}
    for seed in QPB_SMALL_SEEDS:
        inst, prob = gen_qpb(2, seed=seed, beta=10.0)
        t0 = time.perf_counter()
        res = solve(prob, inst.x0, SolverConfig(max_iter=5000))
        out[("small", seed)] = (inst, prob, res, time.perf_counter() - t0)
    for n in QPB_LARGE_SIZES:
        inst, prob = gen_qpb(n, seed=0, beta=10.0)
        t0 = time.perf_counter()
        res = solve(prob, inst.x0, SolverConfig(max_iter=5000))
        out[("large", n)] = (inst, prob, res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def fpca_runs():
    n, k, d = FPCA_DIMS
    cfg = SolverConfig(tol_stat=1e-4, tol_feas=1e-4, max_iter=20000)
    grid = {}
    elapsed = 0.0
    for beta in FPCA_BETA_GRID:
        inst, prob = gen_fpca(n, k, d, seed=0, beta=beta)
        t0 = time.perf_counter()
        res = solve(prob, inst.x0, cfg)
        elapsed += time.perf_counter() - t0
        grid[beta] = (prob, res)
    def key(beta):
        _, res = grid[beta]
        feasible = res.feas <= 1e-4
        return (0 if feasible else 1, res.f_val if feasible else res.feas)
    best_beta = min(grid, key=key)
    return grid, best_beta, elapsed


# ---------------------------------------------------------------- criteria


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    worst = {}
    for name, gen, dims in (("npca", gen_npca, (50, 25)),
                            ("qpb", gen_qpb, (50,)),
                            ("fpca", gen_fpca, (10, 2, 3))):
        inst, prob = gen(*dims, seed=0)
        report = grad_check(prob, near_feasible_points(inst, 20, seed=1))
        worst[name] = report.worst_violation
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-6 for v in worst.values()) and elapsed <= 30.0
    announce(1, ok, "analytic gradient vs central differences, rel err "
             + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
             + f", {elapsed:.1f}s")
    assert elapsed <= 30.0
    for name, v in worst.items():
        assert v <= 1e-6, name


CRIT2_FAMILIES = [
    ("npca", gen_npca, (100, 50)),
    ("qpb", gen_qpb, (100,)),
    ("fpca", gen_fpca, FPCA_DIMS),
]


@pytest.mark.parametrize("name,gen,dims", CRIT2_FAMILIES,
                         ids=[f[0] for f in CRIT2_FAMILIES])
def test_criterion_2_structural_identities(name, gen, dims):
    t0 = time.perf_counter()
    inst, prob = gen(*dims, seed=0)
    pts = feasible_points(inst, 50, seed=2)
    report = assumption_a_check(prob.amap, prob.cmap, prob.domain, pts,
                                thresholds=(1e-10, 1e-8, 1e-6))
    elapsed = time.perf_counter() - t0
    fixed = max(d["fixed_point"] for d in report.details)
    kernel = max(d["kernel"] for d in report.details)
    idem = max(d["idempotency"] for d in report.details)
    announce(2, report.passed and elapsed <= 60.0,
             f"{name} fixed={fixed:.2e} kernel={kernel:.2e} "
             f"idempotency={idem:.2e}, {elapsed:.1f}s")
    assert elapsed <= 60.0
    assert report.passed, (
        f"{name}: worst normalized violation {report.worst_violation:.3e}; "
        "for fpca the Frobenius-norm constraint gradient lies in the normal "
        "cone of the spectral ball at every feasible point (all singular "
        "values equal one there), so its generic dissolving map provably "
        "acts on that direction as the identity and the kernel identity "
        "cannot hold; see the kernel_outside_normal_span detail"
    )


def test_criterion_3_npca_tolerance_reproduction(npca_runs):
    ok = True
    msgs = []
    for (rho, seed), (prob, res, wall) in npca_runs.items():
        run_ok = (res.status == "converged" and res.feas <= 1e-6
                  and res.stat <= 1e-6 and res.iters <= 5000 and wall <= 5.0)
        ok = ok and run_ok
        msgs.append(f"rho={rho},seed={seed}: feas={res.feas:.1e} "
                    f"stat={res.stat:.1e} it={res.iters} {wall:.2f}s")
    announce(3, ok, "npca n=100 cols=50 beta=100; " + "; ".join(msgs))
    for (rho, seed), (prob, res, wall) in npca_runs.items():
        assert res.status == "converged", (rho, seed)
        assert res.feas <= 1e-6 and res.stat <= 1e-6, (rho, seed)
        assert res.iters <= 5000 and wall <= 5.0, (rho, seed)


def test_criterion_4_qpb_oracle_and_scale(qpb_runs):
    ok = True
    msgs = []
    for seed in QPB_SMALL_SEEDS:
        inst, prob, res, wall = qpb_runs[("small", seed)]
        gap = abs(res.f_val - reference_small_oracle(inst))
        ok = ok and res.status == "converged" and gap <= 1e-4
        msgs.append(f"n=2,seed={seed}: oracle gap={gap:.1e}")
    for n in QPB_LARGE_SIZES:
        inst, prob, res, wall = qpb_runs[("large", n)]
        ok = ok and (res.status == "converged" and res.feas <= 1e-6
                     and res.stat <= 1e-6 and wall <= 10.0)
        msgs.append(f"n={n}: feas={res.feas:.1e} stat={res.stat:.1e} {wall:.2f}s")
    announce(4, ok, "qpb beta=10; " + "; ".join(msgs))
    for seed in QPB_SMALL_SEEDS:
        inst, prob, res, wall = qpb_runs[("small", seed)]
        assert res.status == "converged"
        assert abs(res.f_val - reference_small_oracle(inst)) <= 1e-4
    for n in QPB_LARGE_SIZES:
        inst, prob, res, wall = qpb_runs[("large", n)]
        assert res.status == "converged"
        assert res.feas <= 1e-6 and res.stat <= 1e-6
        assert wall <= 10.0


def test_criterion_5_stationarity_transfer(npca_runs, qpb_runs):
    ok = True
    worst = 0.0
    checks = []
    for key, (prob, res, _) in npca_runs.items():
        kkt = kkt_residual_original(prob, res.x_final)
        checks.append(("npca", key, kkt, res.stat))
    for key, (inst, prob, res, _) in qpb_runs.items():
        kkt = kkt_residual_original(prob, res.x_final)
        checks.append(("qpb", key, kkt, res.stat))
    for fam, key, kkt, stat in checks:
        bound = 2.0 * stat + 1e-8
        worst = max(worst, kkt / bound)
        ok = ok and kkt <= bound
    announce(5, ok, f"original-problem KKT residual <= 2*stat + 1e-8 at all "
             f"{len(checks)} converged outputs (worst ratio {worst:.2f})")
    for fam, key, kkt, stat in checks:
        assert kkt <= 2.0 * stat + 1e-8, (fam, key, kkt, stat)


def test_criterion_6_fpca_constraint_equivalence(fpca_runs):
    grid, best_beta, elapsed = fpca_runs
    n, k, d = FPCA_DIMS
    prob, res = grid[best_beta]
    P = res.x_final[:n * d].reshape((n, d), order="F")
    sv = np.linalg.svd(P, compute_uv=False)
    cres = np.abs(prob.cmap.value(res.x_final))
    ok = (res.status == "converged" and elapsed <= 60.0
          and sv.min() >= 1.0 - 1e-4 and sv.max() <= 1.0 + 1e-12
          and cres.max() <= 1e-4)
    announce(6, ok, f"fpca n={n} k={k} d={d} best beta={best_beta}: "
             f"sv in [{sv.min():.6f}, {sv.max():.6f}], "
             f"max residual {cres.max():.1e}, {elapsed:.1f}s")
    assert res.status == "converged"
    assert elapsed <= 60.0
    assert sv.min() >= 1.0 - 1e-4
    assert sv.max() <= 1.0 + 1e-12
    assert cres.max() <= 1e-4


def test_criterion_7_determinism(npca_runs, qpb_runs, fpca_runs):
    mismatches = []
    for (rho, seed), (prob, res, _) in npca_runs.items():
        inst2, prob2 = gen_npca(100, 50, rho=rho, seed=seed, beta=100.0)
        res2 = solve(prob2, inst2.x0, SolverConfig(max_iter=5000))
        if not (res.f_val == res2.f_val and res.feas == res2.feas
                and res.stat == res2.stat):
            mismatches.append(("npca", rho, seed))
    for seed in QPB_SMALL_SEEDS:
        _, _, res, _ = qpb_runs[("small", seed)]
        inst2, prob2 = gen_qpb(2, seed=seed, beta=10.0)
        res2 = solve(prob2, inst2.x0, SolverConfig(max_iter=5000))
        if not (res.f_val == res2.f_val and res.feas == res2.feas
                and res.stat == res2.stat):
            mismatches.append(("qpb", 2, seed))
    for n in QPB_LARGE_SIZES:
        _, _, res, _ = qpb_runs[("large", n)]
        inst2, prob2 = gen_qpb(n, seed=0, beta=10.0)
        res2 = solve(prob2, inst2.x0, SolverConfig(max_iter=5000))
        if not (res.f_val == res2.f_val and res.feas == res2.feas
                and res.stat == res2.stat):
            mismatches.append(("qpb", n, 0))
    grid, best_beta, _ = fpca_runs
    cfg = SolverConfig(tol_stat=1e-4, tol_feas=1e-4, max_iter=20000)
    for beta, (_, res) in grid.items():
        inst2, prob2 = gen_fpca(*FPCA_DIMS, seed=0, beta=beta)
        res2 = solve(prob2, inst2.x0, cfg)
        if not (res.f_val == res2.f_val and res.feas == res2.feas
                and res.stat == res2.stat):
            mismatches.append(("fpca", beta))
    announce(7, not mismatches,
             "re-runs reproduce fval/feas/stat bit-identically"
             + ("" if not mismatches else f"; mismatches: {mismatches}"))
    assert not mismatches


def test_criterion_8_projective_mapping_law():
    rng = np.random.default_rng(123)
    eps = np.cbrt(np.finfo(float).eps)
    worst_sym = worst_psd = worst_fd = 0.0
    for domain in make_catalog():
        for _ in range(100):
            x = sample_point(domain, rng)
            Q = q_matrix(domain, x)
            worst_sym = max(worst_sym, float(np.abs(Q - Q.T).max()))
            worst_psd = max(worst_psd,
                            float(-np.linalg.eigvalsh(0.5 * (Q + Q.T)).min()))
        for _ in range(50):
            x = sample_smooth_point(domain, rng)
            d = rng.standard_normal(domain.n)
            d /= np.linalg.norm(d)
            v = rng.standard_normal(domain.n)
            step = eps * (1.0 + np.linalg.norm(x))
            fd = (domain._q(x + step * d, v) - domain._q(x - step * d, v)) / (2 * step)
            an = dq_apply(domain, x, d, v)
            err = np.linalg.norm(an - fd) / max(1.0, np.linalg.norm(fd))
            worst_fd = max(worst_fd, float(err))
    ok = worst_sym <= 1e-12 and worst_psd <= 1e-10 and worst_fd <= 1e-6
    announce(8, ok, f"catalog mapping law: sym={worst_sym:.1e} "
             f"min-eig>=-{worst_psd:.1e} dq-vs-fd={worst_fd:.1e}")
    assert worst_sym <= 1e-12
    assert worst_psd <= 1e-10
    assert worst_fd <= 1e-6
