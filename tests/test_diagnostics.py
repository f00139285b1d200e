import dataclasses
import json

import numpy as np
import pytest

from dissolve import diagnostics, mappings

from dissolve.diagnostics import (
    CheckReport,
    assumption_a_check,
    grad_check,
    local_error_bound_probe,
    pi_sigma,
)
from dissolve.mappings import (
    ConstraintMap,
    DissolvingMap,
    PenaltyProblem,
    build_aq,
    empty_constraint_map,
    h_grad,
    h_value,
)
from dissolve.sets import Box, NormBall, Product
from dissolve.solvers import _norm
from dissolve.problems import (
    feasible_points,
    gen_fpca,
    gen_npca,
    gen_qpb,
    near_feasible_points,
)


def test_grad_check_quadratic_affine_closed_form():
    # quadratic objective, affine constraint, generic map: low curvature case
    n = 3
    a = np.array([1.0, 2.0, -1.0])
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([a @ x - 0.5]),
        jac_t_apply=lambda x, v: a * v[0],
        jac_apply=lambda x, d: np.array([a @ d]),
        hess_apply=lambda x, lam, d: np.zeros(n),
    )
    domain = NormBall(n, radius=3.0)
    amap = build_aq(domain, cmap, sigma=1.0)
    prob = PenaltyProblem(f_value=lambda x: 0.5 * float(x @ x) + x[0],
                          f_grad=lambda x: x + np.eye(n)[0],
                          cmap=cmap, amap=amap, domain=domain, beta=2.0)
    rng = np.random.default_rng(0)
    pts = [domain.project(rng.standard_normal(n)) for _ in range(10)]
    report = grad_check(prob, pts)
    assert report.passed
    assert report.worst_violation <= 1e-9


def test_grad_check_beta_zero_and_p_zero():
    inst, prob = gen_npca(8, 4, seed=0)
    pts = near_feasible_points(inst, 5, seed=0)
    assert grad_check(dataclasses.replace(prob, beta=0.0), pts).passed

    n = 4
    domain = Box(np.full(n, -np.inf), np.full(n, np.inf))
    cmap = empty_constraint_map(n)
    amap = build_aq(domain, cmap, sigma=1.0)
    prob2 = PenaltyProblem(f_value=lambda x: float(np.sum(np.cos(x))),
                           f_grad=lambda x: -np.sin(x),
                           cmap=cmap, amap=amap, domain=domain, beta=0.0)
    rng = np.random.default_rng(1)
    assert grad_check(prob2, [rng.standard_normal(n) for _ in range(5)]).passed


def test_report_invariant_and_json():
    inst, prob = gen_npca(8, 4, seed=0)
    report = grad_check(prob, near_feasible_points(inst, 5, seed=0))
    assert report.passed == (report.worst_violation <= report.threshold)
    blob = json.dumps(report.to_json())
    back = json.loads(blob)
    assert back["check_name"] == "grad_check"
    assert back["samples"] == 5


def test_assumption_check_passes_npca_qpb():
    for gen, dims in ((gen_npca, (20, 10)), (gen_qpb, (20,))):
        inst, prob = gen(*dims, seed=0)
        pts = feasible_points(inst, 20, seed=0)
        report = assumption_a_check(prob.amap, prob.cmap, prob.domain, pts)
        assert report.passed, report.details


def test_assumption_check_rejects_infeasible_points():
    inst, prob = gen_npca(6, 3, seed=0)
    with pytest.raises(ValueError):
        assumption_a_check(prob.amap, prob.cmap, prob.domain,
                           [np.full(6, 0.5)])


def test_assumption_check_counterexamples():
    inst, prob = gen_npca(10, 5, seed=0)
    pts = feasible_points(inst, 10, seed=1)

    # shifting by a multiple of c keeps the feasible set fixed: still passes
    # the fixed-point sub-check (the kernel one may shift slightly)
    amap = prob.amap
    bent = DissolvingMap(
        value=lambda x, point=None: amap.value(x, point) + 1e-3 * prob.cmap.value(x)[0],
        vjp=amap.vjp, mode=amap.mode, sigma=amap.sigma)
    rep = assumption_a_check(bent, prob.cmap, prob.domain, pts)
    assert max(d["fixed_point"] for d in rep.details) <= 1e-10

    # a constant shift breaks the fixed points outright
    broken = DissolvingMap(value=lambda x, point=None: amap.value(x, point) + 1e-3,
                           vjp=amap.vjp, mode=amap.mode, sigma=amap.sigma)
    rep = assumption_a_check(broken, prob.cmap, prob.domain, pts)
    assert not rep.passed
    assert max(d["fixed_point"] for d in rep.details) >= 1e-4


def test_assumption_check_vacuous_without_constraints():
    n = 5
    domain = Box(np.zeros(n), np.ones(n))
    cmap = empty_constraint_map(n)
    amap = build_aq(domain, cmap, sigma=1.0)
    rng = np.random.default_rng(2)
    pts = [domain.project(rng.random(n)) for _ in range(5)]
    report = assumption_a_check(amap, cmap, domain, pts)
    assert report.passed
    assert all(d["kernel"] == 0.0 for d in report.details)


def test_assumption_check_flags_fpca_normal_direction():
    # the Frobenius-norm constraint gradient is normal to the spectral ball at
    # every feasible point, so the kernel sub-check reports it; the recorded
    # violation lies inside the normal-cone span
    inst, prob = gen_fpca(10, 2, 3, seed=0)
    pts = feasible_points(inst, 10, seed=0)
    report = assumption_a_check(prob.amap, prob.cmap, prob.domain, pts)
    assert not report.passed
    assert max(d["kernel"] for d in report.details) > 1.0
    assert max(d["kernel_outside_normal_span"] for d in report.details) <= 1e-8
    assert max(d["fixed_point"] for d in report.details) <= 1e-10
    assert max(d["idempotency"] for d in report.details) <= 1e-6


def test_idempotency_guard_skips_large_problems():
    inst, prob = gen_npca(250, 10, seed=0)
    pts = feasible_points(inst, 2, seed=0)
    report = assumption_a_check(prob.amap, prob.cmap, prob.domain, pts)
    assert all(d["idempotency"] is None for d in report.details)
    assert all("skipped" in d["note"] for d in report.details)


# ---------------------------------------------------------------- pi_sigma


def sphere_cmap(n, radius=1.0):
    return ConstraintMap(
        p=1,
        value=lambda x: np.array([x @ x - radius ** 2]),
        jac_t_apply=lambda x, v: 2.0 * v[0] * x,
        jac_apply=lambda x, d: np.array([2.0 * (x @ d)]),
        hess_apply=lambda x, lam, d: 2.0 * lam[0] * d,
    )


def test_pi_sigma_sphere_value():
    domain = NormBall(2, radius=2.0)
    assert pi_sigma(sphere_cmap(2), domain, np.array([1.0, 0.0])) == pytest.approx(2.0)


def test_pi_sigma_duplicated_rows_flag_degeneracy():
    n = 2
    cmap = ConstraintMap(
        p=2,
        value=lambda x: np.array([x[0] + x[1], 2 * x[0] + 2 * x[1]]),
        jac_t_apply=lambda x, v: np.array([v[0] + 2 * v[1], v[0] + 2 * v[1]]),
        jac_apply=lambda x, d: np.array([d[0] + d[1], 2 * d[0] + 2 * d[1]]),
    )
    domain = Box(np.full(n, -np.inf), np.full(n, np.inf))
    x = np.zeros(2)
    # G = [[1, 2], [1, 2]] has singular values sqrt(10) and 0: the inferred
    # rank drops to 1, so pi is the one nonzero value
    assert pi_sigma(cmap, domain, x) == pytest.approx(np.sqrt(10.0), rel=1e-12)


def test_pi_sigma_projects_out_affine_hull():
    # the constraint gradient's component along a pinned coordinate
    # disappears inside the box's hull, so the projected singular value is
    # strictly smaller
    a = np.array([1.0, 2.0, -1.0])
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([a @ x]),
        jac_t_apply=lambda x, v: a * v[0],
        jac_apply=lambda x, d: np.array([a @ d]),
    )
    domain = Box([0.0, 0.0, 0.5], [1.0, 1.0, 0.5])
    x = np.full(3, 0.5)
    P = domain.affine_hull_projector()
    expect = np.linalg.svd((P @ a)[:, None], compute_uv=False)[0]
    assert pi_sigma(cmap, domain, x) == pytest.approx(expect, rel=1e-12)
    assert pi_sigma(cmap, domain, x) < np.linalg.norm(a)


# ---------------------------------------------------------------- probe


def test_probe_affine_holds_everywhere():
    n = 3
    a = np.array([1.0, -2.0, 0.5])
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([a @ x]),
        jac_t_apply=lambda x, v: a * v[0],
        jac_apply=lambda x, d: np.array([a @ d]),
    )
    domain = Box(np.full(n, -np.inf), np.full(n, np.inf))
    report = local_error_bound_probe(cmap, domain, np.zeros(n),
                                     n_samples=50, seed=0)
    assert report.passed
    assert report.details[-1]["held_radius"] == pytest.approx(0.5)


def test_probe_sphere_holds_at_small_radius(monkeypatch):
    monkeypatch.setattr(diagnostics, "PROBE_RADII", (0.1,))
    domain = NormBall(2, radius=2.0)
    x = np.array([1.0, 0.0])
    report = local_error_bound_probe(sphere_cmap(2), domain, x,
                                     n_samples=200, seed=0)
    assert report.passed
    assert report.details[-1]["held_radius"] == pytest.approx(0.1)


def test_probe_flags_degenerate_constraint():
    # squared sphere constraint: the gradient vanishes on the feasible set
    n = 2
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([(x @ x - 1.0) ** 2]),
        jac_t_apply=lambda x, v: 4.0 * (x @ x - 1.0) * v[0] * x,
        jac_apply=lambda x, d: np.array([4.0 * (x @ x - 1.0) * (x @ d)]),
    )
    domain = NormBall(2, radius=2.0)
    report = local_error_bound_probe(cmap, domain, np.array([1.0, 0.0]),
                                     n_samples=50, seed=0)
    assert not report.passed
    assert report.details[-1]["held_radius"] == 0.0


def test_reports_reproducible_from_seed():
    inst, prob = gen_qpb(10, seed=0)
    pts = feasible_points(inst, 10, seed=3)
    r1 = assumption_a_check(prob.amap, prob.cmap, prob.domain, pts)
    r2 = assumption_a_check(prob.amap, prob.cmap, prob.domain, pts)
    assert r1.to_json() == r2.to_json()
    p1 = local_error_bound_probe(prob.cmap, prob.domain, pts[0], seed=9)
    p2 = local_error_bound_probe(prob.cmap, prob.domain, pts[0], seed=9)
    assert p1.to_json() == p2.to_json()


def probe_with_hull_products(cmap, domain, x_feasible, n_samples=200, radii=None,
                             seed=0):
    """local_error_bound_probe as it was written before the identity skip and
    before stacked samples: c and G c one sample at a time, both products
    with P_E taken on every sample."""
    x = np.asarray(x_feasible, dtype=float)
    rng = np.random.default_rng(seed)
    P_E = domain.affine_hull_projector()
    if radii is None:
        radii = [0.5 * 0.5 ** j for j in range(7)]
    radii = sorted(radii)
    pi_val = pi_sigma(cmap, domain, x)
    if pi_val <= 1e-10:
        details = [{"pi": pi_val, "held_radius": 0.0,
                    "note": "constraint gradients degenerate at base point"}]
        return CheckReport.build("local_error_bound_probe", 0, np.inf, 0.0, details)

    def violation_at(radius):
        worst = 0.0
        for _ in range(n_samples):
            u = P_E @ rng.standard_normal(x.size)
            nu = _norm(u)
            if nu == 0.0:
                continue
            y = x + radius * rng.random() * u / nu
            c = cmap.value(y)
            lhs = _norm(P_E @ cmap.jac_t_apply(y, c))
            rhs = 0.5 * pi_val * _norm(c)
            worst = max(worst, rhs - lhs)
        return worst

    slack = 1e-12 * (1.0 + pi_val)
    details, held_radius, prefix_ok, worst_smallest = [], 0.0, True, None
    for radius in radii:
        v = violation_at(radius)
        if worst_smallest is None:
            worst_smallest = v
        ok = v <= slack
        details.append({"radius": radius, "worst_violation": v, "held": ok})
        if prefix_ok and ok:
            held_radius = radius
        else:
            prefix_ok = False
    details.append({"pi": pi_val, "held_radius": held_radius})
    return CheckReport.build("local_error_bound_probe", n_samples * len(radii),
                             worst_smallest, slack, details)


def use_probe_radii(monkeypatch, radii):
    """Give the probe the oracle's `radii`; None leaves PROBE_RADII, which
    must then equal the oracle's default list, sorted."""
    if radii is not None:
        monkeypatch.setattr(diagnostics, "PROBE_RADII", tuple(sorted(radii)))


def pinned_box_ball_case():
    # a box with a pinned coordinate x ball, where P_E is not the identity;
    # c_0 = sin(w^T (x - x0)) loses its gradient on far parts of the larger
    # balls, so the bound fails there with a positive violation
    w = np.array([3.0, 1.0, 2.0, -2.0])
    x0 = np.array([0.4, 0.3, 0.2, 0.1, 0.5, 0.5])

    def value(x):
        return np.array([np.sin(w @ (x[:4] - x0[:4])), x[4:] @ x[4:] - 0.5])

    def jac_t(x, v):
        return np.concatenate([np.cos(w @ (x[:4] - x0[:4])) * v[0] * w, 2.0 * v[1] * x[4:]])

    cmap = ConstraintMap(p=2, value=value, jac_t_apply=jac_t, jac_apply=None)
    box = Box([0.0, 0.0, 0.2, 0.0], [1.0, 1.0, 0.2, 1.0])
    return cmap, Product([box, NormBall(2)]), x0


def fpca_case():
    inst, prob = gen_fpca(4, 2, 3, seed=0)
    return prob.cmap, prob.domain, feasible_points(inst, 1, seed=2)[0]


def blowup_case():
    # a free box; G(y) c(y) holds an infinite entry or a NaN on part of each
    # ball, and c = sin(a^T x) fails the bound on far parts
    a = np.array([1.0, -2.0, 0.5])

    def jac_t(x, v):
        out = np.cos(a @ x) * v[0] * a
        if x[0] > 0.3:
            out[1] = np.inf
        if x[2] > 0.3:
            out[0] = np.nan
        return out

    cmap = ConstraintMap(p=1, value=lambda x: np.array([np.sin(a @ x)]),
                         jac_t_apply=jac_t, jac_apply=None)
    return cmap, Box(np.full(3, -np.inf), np.full(3, np.inf)), np.zeros(3)


@pytest.mark.parametrize("case", [fpca_case, pinned_box_ball_case, blowup_case])
def test_probe_with_identity_skip_matches_the_hull_product_loop(case, monkeypatch):
    cmap, domain, x = case()
    identity = np.array_equal(domain.affine_hull_projector(), np.eye(domain.n))
    assert identity == (case is not pinned_box_ball_case)
    for seed, radii in ((0, None), (4, [0.25, 1.0, 4.0])):
        use_probe_radii(monkeypatch, radii)
        with np.errstate(invalid="ignore"):
            got = local_error_bound_probe(cmap, domain, x, n_samples=20, seed=seed)
            want = probe_with_hull_products(cmap, domain, x, n_samples=20, seed=seed,
                                            radii=radii)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())


# ---------------------------------------------------------------- stacked points


def grad_check_per_point(prob, points, threshold=1e-6):
    """grad_check as it was written before stacked stencils: one h_value
    call per finite-difference point."""
    details = []
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        g = h_grad(prob, x)
        base = np.cbrt(np.finfo(float).eps)
        gfd = np.empty_like(x)
        for j in range(x.size):
            delta = base * (1.0 + abs(x[j]))
            step = np.zeros_like(x)

            def central(dl):
                step[j] = dl
                return (h_value(prob, x + step) - h_value(prob, x - step)) / (2.0 * dl)

            d1 = central(delta)
            d2 = central(0.5 * delta)
            gfd[j] = (4.0 * d2 - d1) / 3.0
        rel = _norm(g - gfd) / max(1.0, _norm(gfd))
        worst = max(worst, rel)
        details.append({"rel_error": rel, "grad_norm": _norm(gfd)})
    return CheckReport.build("grad_check", len(details), worst, threshold, details)


def pinned_box_problem():
    # a sphere constraint over a box whose third coordinate is pinned at 0.3,
    # so that P_E is not the identity
    n = 4
    t = np.array([0.1, 0.5, 0.3, 0.1])
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([x @ x - 0.4]),
        jac_t_apply=lambda x, v: 2.0 * v[0] * x,
        jac_apply=lambda x, d: np.array([2.0 * (x @ d)]),
        hess_apply=lambda x, lam, d: 2.0 * lam[0] * d,
    )
    domain = Box([0.0, 0.0, 0.3, 0.0], [1.0, 1.0, 0.3, 1.0])
    prob = PenaltyProblem(f_value=lambda x: 0.5 * float((x - t) @ (x - t)),
                          f_grad=lambda x: x - t, cmap=cmap,
                          amap=build_aq(domain, cmap), domain=domain, beta=3.0)
    rng = np.random.default_rng(71)
    points = [domain.project(rng.random(n)) for _ in range(3)]
    return prob, points, domain.project(np.array([0.6, 0.4, 0.3, 0.1]))


def family_case(gen, dims):
    inst, prob = gen(*dims, seed=1)
    return (prob, near_feasible_points(inst, 3, seed=2),
            feasible_points(inst, 1, seed=3)[0])


STACK_CASES = {
    "npca": lambda: family_case(gen_npca, (6, 3)),
    "qpb": lambda: family_case(gen_qpb, (6,)),
    "fpca": lambda: family_case(gen_fpca, (4, 2, 3)),
    "pinned_box": pinned_box_problem,
}


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_stacked_reports_equal_the_per_point_loops(name, monkeypatch):
    prob, points, x = STACK_CASES[name]()
    assert (name == "pinned_box") == (
        not np.array_equal(prob.domain.affine_hull_projector(), np.eye(prob.n)))
    got = grad_check(prob, points)
    want = grad_check_per_point(prob, points)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    for seed, radii in ((0, None), (5, [0.05, 0.3])):
        use_probe_radii(monkeypatch, radii)
        got = local_error_bound_probe(prob.cmap, prob.domain, x, n_samples=20,
                                      seed=seed)
        want = probe_with_hull_products(prob.cmap, prob.domain, x, n_samples=20,
                                        seed=seed, radii=radii)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_one_stacked_build_per_grad_point_and_one_c_per_probe_radius(monkeypatch):
    inst, prob = gen_fpca(4, 2, 3, seed=0)
    n, p = prob.n, prob.cmap.p
    cores = []
    pinv = mappings._core_pinv

    def counting_pinv(core):
        cores.append(core.shape)
        return pinv(core)

    monkeypatch.setattr(mappings, "_core_pinv", counting_pinv)
    grad_check(prob, near_feasible_points(inst, 3, seed=1))
    # per point: h_grad's build at x, then the 4n stencil points in one build
    assert cores == [(1, p, p), (4 * n, p, p)] * 3

    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append((name, np.shape(args[0])))
            return fn(*args)
        return call

    cmap = dataclasses.replace(prob.cmap, value=counted("c", prob.cmap.value),
                               jac_t_apply=counted("Gc", prob.cmap.jac_t_apply))
    x = feasible_points(inst, 1, seed=2)[0]
    local_error_bound_probe(cmap, prob.domain, x, n_samples=20, seed=3)
    assert calls == [("c", (20, n)), ("Gc", (20, n))] * 7


@pytest.mark.parametrize("name", ["npca", "qpb", "fpca"])
def test_stencil_blocks_give_the_one_block_reports_bit_for_bit(name, monkeypatch):
    prob, points, _ = STACK_CASES[name]()
    signed = points[0].copy()
    signed[: prob.n // 2] = -0.0  # x + S must keep x's zeros as x + steps did
    points = points + [signed]
    rows = []

    def counted_h_value(prob, x, point=None):
        rows.append(np.shape(x))
        return h_value(prob, x, point)

    monkeypatch.setattr(diagnostics, "h_value", counted_h_value)
    monkeypatch.setattr(diagnostics, "STENCIL_ROWS", 4 * prob.n)
    one_block = grad_check(prob, points)
    assert rows == [(4 * prob.n, prob.n)] * len(points)
    rows.clear()
    monkeypatch.setattr(diagnostics, "STENCIL_ROWS", 7)
    blocks = grad_check(prob, points)
    assert json.dumps(blocks.to_json()) == json.dumps(one_block.to_json())
    sizes = [min(7, 4 * prob.n - start) for start in range(0, 4 * prob.n, 7)]
    assert rows == [(m, prob.n) for m in sizes] * len(points)


# ---------------------------------------------------------------- block vjps


def assumption_a_per_vector(amap, cmap, domain, points):
    """assumption_a_check with one vjp per vector: the kernel samples drawn
    and applied one at a time, the Jacobian built column by column."""
    thr_fix, thr_ker, thr_idem = diagnostics.ASSUMPTION_A_THRESHOLDS
    rng = np.random.default_rng(0)
    P_E = domain.affine_hull_projector()
    details, worst = [], 0.0
    for x in points:
        point = {}
        fix = float(np.max(np.abs(amap.value(x, point) - x)))
        ker = span = 0.0
        for _ in range(diagnostics.KERNEL_SAMPLES):
            lam = rng.standard_normal(cmap.p)
            v = amap.vjp(x, cmap.jac_t_apply(x, lam), point)
            resid = _norm(v) / max(1.0, _norm(lam))
            if resid > ker:
                ker = resid
                d_pos = _norm(v - domain.normal_cone_project(x, v))
                d_neg = _norm(v + domain.normal_cone_project(x, -v))
                span = min(d_pos, d_neg) / max(1.0, _norm(lam))
        J = np.column_stack([amap.vjp(x, e, point) for e in np.eye(x.size)])
        idem = float(np.linalg.norm(P_E @ (J @ J - J), 2))
        rec = {"fixed_point": fix, "kernel": ker, "kernel_outside_normal_span": span,
               "idempotency": idem,
               "ratio": max(fix / thr_fix, ker / thr_ker, idem / thr_idem)}
        worst = max(worst, rec["ratio"])
        details.append(rec)
    return CheckReport.build("assumption_a_check", len(details), worst, 1.0, details)


def family_feasible_case(gen, dims):
    inst, prob = gen(*dims, seed=1)
    return prob, feasible_points(inst, 3, seed=4)


def pinned_box_feasible_case():
    # points of the pinned-box problem's sphere x.x = 0.4, whose free
    # coordinates hold the remaining 0.31
    prob = pinned_box_problem()[0]
    free = np.abs(np.random.default_rng(73).standard_normal((3, 3)))
    free *= np.sqrt(0.31) / np.linalg.norm(free, axis=1, keepdims=True)
    return prob, [np.insert(f, 2, 0.3) for f in free]


FEASIBLE_CASES = {
    "npca": lambda: family_feasible_case(gen_npca, (6, 3)),
    "qpb": lambda: family_feasible_case(gen_qpb, (6,)),
    "fpca": lambda: family_feasible_case(gen_fpca, (4, 2, 3)),
    "pinned_box": pinned_box_feasible_case,
}


@pytest.mark.parametrize("name", list(FEASIBLE_CASES))
def test_assumption_a_block_vjps_give_the_per_vector_report(name):
    prob, points = FEASIBLE_CASES[name]()
    calls = []

    def counted(name, fn):
        def call(x, *args):
            calls.append((name, np.shape(args[0]) if name == "vjp" else None))
            return fn(x, *args)
        return call

    amap = dataclasses.replace(prob.amap, value=counted("A", prob.amap.value),
                               vjp=counted("vjp", prob.amap.vjp))
    got = assumption_a_check(amap, prob.cmap, prob.domain, points)
    want = assumption_a_per_vector(prob.amap, prob.cmap, prob.domain, points)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    # three map products per point: A(x), the kernel block and the identity
    n = prob.n
    assert calls == [("A", None), ("vjp", (n, diagnostics.KERNEL_SAMPLES)),
                     ("vjp", (n, n))] * len(points)
