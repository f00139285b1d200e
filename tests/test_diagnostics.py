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
from dissolve.sets import Box, NormBall
from dissolve.solvers import _norm
from dissolve.problems import (
    feasible_points,
    gen_fpca,
    gen_npca,
    gen_qpb,
    near_feasible_points,
)

from conftest import normal_cone_oracle


def test_grad_check_quadratic_affine_closed_form():
    # quadratic objective, affine constraint, generic map: low curvature case
    n = 3
    a = np.array([1.0, 2.0, -1.0])
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([a @ x - 0.5]),
        jac_t_apply=lambda x, v: a * v[0],
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
    # a check over no point or no sample would pass having checked nothing
    inst, prob = gen_fpca(4, 2, 3, seed=0)
    x = feasible_points(inst, 1, seed=0)[0]
    with pytest.raises(ValueError):
        grad_check(prob, [])
    with pytest.raises(ValueError):
        assumption_a_check(prob.amap, prob.cmap, prob.domain, [])
    for n_samples in (0, -5):
        with pytest.raises(ValueError):
            local_error_bound_probe(prob.cmap, prob.domain, x, n_samples=n_samples)


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
    )
    domain = Box(np.full(n, -np.inf), np.full(n, np.inf))
    x = np.zeros(2)
    # G = [[1, 2], [1, 2]] has singular values sqrt(10) and 0: the inferred
    # rank drops to 1, so pi is the one nonzero value
    assert pi_sigma(cmap, domain, x) == pytest.approx(np.sqrt(10.0), rel=1e-12)


# ---------------------------------------------------------------- probe


def test_probe_affine_holds_everywhere():
    n = 3
    a = np.array([1.0, -2.0, 0.5])
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([a @ x]),
        jac_t_apply=lambda x, v: a * v[0],
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


def probe_per_sample(cmap, domain, x_feasible, n_samples=200, radii=None, seed=0):
    """local_error_bound_probe as it was written before stacked samples: c
    and G c one sample at a time.  The samples are drawn as the probe draws
    them: one block of directions for all radii, then one of radius
    fractions, row i at the i // n_samples-th radius."""
    x = np.asarray(x_feasible, dtype=float)
    rng = np.random.default_rng(seed)
    if radii is None:
        radii = [0.5 * 0.5 ** j for j in range(7)]
    radii = sorted(radii)
    pi_val = pi_sigma(cmap, domain, x)
    if pi_val <= 1e-10:
        details = [{"pi": pi_val, "held_radius": 0.0,
                    "note": "constraint gradients degenerate at base point"}]
        return CheckReport.build("local_error_bound_probe", 0, np.inf, 0.0, details)

    directions = rng.standard_normal((len(radii) * n_samples, x.size))
    fractions = rng.random(len(radii) * n_samples)
    worst = [0.0] * len(radii)
    for i, (u, frac) in enumerate(zip(directions, fractions)):
        nu = _norm(u)
        if nu == 0.0:
            continue
        y = x + radii[i // n_samples] * frac * u / nu
        c = cmap.value(y)
        lhs = _norm(cmap.jac_t_apply(y, c))
        rhs = 0.5 * pi_val * _norm(c)
        worst[i // n_samples] = max(worst[i // n_samples], rhs - lhs)

    slack = 1e-12 * (1.0 + pi_val)
    details, held_radius, prefix_ok, worst_smallest = [], 0.0, True, None
    for radius, v in zip(radii, worst):
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
                         jac_t_apply=jac_t)
    return cmap, Box(np.full(3, -np.inf), np.full(3, np.inf)), np.zeros(3)


@pytest.mark.parametrize("case", [fpca_case, blowup_case])
def test_probe_matches_the_per_sample_loop(case, monkeypatch):
    cmap, domain, x = case()
    for seed, radii in ((0, None), (4, [0.25, 1.0, 4.0])):
        use_probe_radii(monkeypatch, radii)
        with np.errstate(invalid="ignore"):
            got = local_error_bound_probe(cmap, domain, x, n_samples=20, seed=seed)
            want = probe_per_sample(cmap, domain, x, n_samples=20, seed=seed, radii=radii)
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


def family_case(gen, dims):
    inst, prob = gen(*dims, seed=1)
    return (prob, near_feasible_points(inst, 3, seed=2),
            feasible_points(inst, 1, seed=3)[0])


STACK_CASES = {
    "npca": lambda: family_case(gen_npca, (6, 3)),
    "qpb": lambda: family_case(gen_qpb, (6,)),
    "fpca": lambda: family_case(gen_fpca, (4, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_stacked_reports_equal_the_per_point_loops(name, monkeypatch):
    prob, points, x = STACK_CASES[name]()
    got = grad_check(prob, points)
    want = grad_check_per_point(prob, points)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    for seed, radii in ((0, None), (5, [0.05, 0.3])):
        use_probe_radii(monkeypatch, radii)
        got = local_error_bound_probe(prob.cmap, prob.domain, x, n_samples=20,
                                      seed=seed)
        want = probe_per_sample(prob.cmap, prob.domain, x, n_samples=20, seed=seed,
                                radii=radii)
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
    points = near_feasible_points(inst, 3, seed=1)
    grad_check(prob, points)
    # each point and its 4n stencil points, all three points in one build:
    # h_grad at a point reads its row, with no build of its own
    assert cores == [(3 * (4 * n + 1), p, p)]
    for cap in (50, 61):  # blocks across point boundaries, then one per point
        cores.clear()
        monkeypatch.setattr(diagnostics, "STACK_ROWS", cap)
        grad_check(prob, points)
        total = 3 * (4 * n + 1)
        assert cores == [(min(cap, total - start), p, p) for start in range(0, total, cap)]
    monkeypatch.undo()

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
    assert calls == [("c", (140, n)), ("Gc", (140, n))]


@pytest.mark.parametrize("case", [fpca_case, blowup_case])
def test_probe_row_blocks_give_the_one_block_report_bit_for_bit(case, monkeypatch):
    cmap, domain, x = case()
    n, m = domain.n, 7 * 20
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append((name, np.shape(args[0])))
            return fn(*args)
        return call

    # every map takes a block in one call, fpca's stacked one and the
    # one-point blowup map through its constructor's row loop, and pi_sigma's
    # G(x) is one jac_columns call, which the wrappers do not see
    cmap = dataclasses.replace(cmap, value=counted("c", cmap.value),
                               jac_t_apply=counted("Gc", cmap.jac_t_apply))
    one_block = local_error_bound_probe(cmap, domain, x, n_samples=20, seed=6)
    assert calls == [("c", (m, n)), ("Gc", (m, n))]
    for cap in (7, 9):  # 9 does not divide m and leaves a last block of 5
        calls.clear()
        monkeypatch.setattr(diagnostics, "STACK_ROWS", cap)
        blocks = local_error_bound_probe(cmap, domain, x, n_samples=20, seed=6)
        assert json.dumps(blocks.to_json()) == json.dumps(one_block.to_json())
        sizes = [min(cap, m - start) for start in range(0, m, cap)]
        assert calls == [c for k in sizes for c in [("c", (k, n)), ("Gc", (k, n))]]


def test_probe_rejects_bad_sample_counts_and_base_points():
    cmap, domain, x = fpca_case()
    # before the checks 2.5 raised TypeError and True ran 7 samples
    for n_samples in (True, False, 2.5, 20.0, "20", None):
        with pytest.raises(ValueError, match="n_samples"):
            local_error_bound_probe(cmap, domain, x, n_samples=n_samples)
    assert local_error_bound_probe(cmap, domain, x, n_samples=np.int64(3)).samples == 21
    # before the checks these failed inside the SVD or a matmul
    for bad in (x[:-1], np.append(x, 0.0), x[None, :], np.float64(0.5)):
        with pytest.raises(ValueError, match="shape"):
            local_error_bound_probe(cmap, domain, bad, n_samples=5)
    for entry in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[1] = entry
        with pytest.raises(ValueError, match="finite"):
            local_error_bound_probe(cmap, domain, y, n_samples=5)


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
    total = len(points) * (4 * prob.n + 1)  # each point's row and its stencil
    monkeypatch.setattr(diagnostics, "STACK_ROWS", total)
    one_block = grad_check(prob, points)
    assert rows == [(total, prob.n)]
    for cap in (7, 4 * prob.n + 1):  # blocks across point boundaries, then one per point
        rows.clear()
        monkeypatch.setattr(diagnostics, "STACK_ROWS", cap)
        blocks = grad_check(prob, points)
        assert json.dumps(blocks.to_json()) == json.dumps(one_block.to_json())
        assert rows == [(min(cap, total - start), prob.n) for start in range(0, total, cap)]


@pytest.mark.parametrize("name", ["npca", "qpb", "fpca"])
def test_grad_check_blocks_across_points_give_the_per_point_report(name, monkeypatch):
    # a block holds the end of one point's stencil and the start of the
    # next point's rows; h_grad runs once per point, on its row of a block
    prob, points, _ = STACK_CASES[name]()
    points = points + [points[0].copy()]  # a repeated point
    grads = []

    def counted_h_grad(prob, x, point=None):
        grads.append(point is not None and point.keys() >= {"a", "fa", "c", "cc"})
        return h_grad(prob, x, point)

    monkeypatch.setattr(diagnostics, "h_grad", counted_h_grad)
    want = grad_check_per_point(prob, points)
    per = 4 * prob.n + 1
    for cap in (5, 7, per - 1, per + 3, 2 * per + 1):
        grads.clear()
        monkeypatch.setattr(diagnostics, "STACK_ROWS", cap)
        got = grad_check(prob, points)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json()), cap
        assert grads == [True] * len(points)


# ---------------------------------------------------------------- block vjps


def assumption_a_per_vector(amap, cmap, domain, points):
    """assumption_a_check with one vjp per vector: the kernel samples drawn
    and applied one at a time, the Jacobian built column by column."""
    thr_fix, thr_ker, thr_idem = diagnostics.ASSUMPTION_A_THRESHOLDS
    rng = np.random.default_rng(0)
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
        idem = float(np.linalg.norm(J @ J - J, 2))
        rec = {"fixed_point": fix, "kernel": ker, "kernel_outside_normal_span": span,
               "idempotency": idem,
               "ratio": max(fix / thr_fix, ker / thr_ker, idem / thr_idem)}
        worst = max(worst, rec["ratio"])
        details.append(rec)
    return CheckReport.build("assumption_a_check", len(details), worst, 1.0, details)


def family_feasible_case(gen, dims):
    inst, prob = gen(*dims, seed=1)
    return prob, feasible_points(inst, 3, seed=4)


FEASIBLE_CASES = {
    "npca": lambda: family_feasible_case(gen_npca, (6, 3)),
    "qpb": lambda: family_feasible_case(gen_qpb, (6,)),
    "fpca": lambda: family_feasible_case(gen_fpca, (4, 2, 3)),
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
    # two map products per point: A(x), and one vjp over the kernel block
    # and the identity side by side
    n = prob.n
    assert calls == [("A", None),
                     ("vjp", (n, diagnostics.KERNEL_SAMPLES + n))] * len(points)


@pytest.mark.parametrize("nan_cols", [1, diagnostics.KERNEL_SAMPLES])
def test_assumption_a_projects_once_at_the_running_max(monkeypatch, nan_cols):
    # the kernel sample reported is the one a running max over the residuals
    # picks, a NaN residual skipped; the normal cone is projected onto only
    # there, v and -v as the two columns of one block call, and not at all
    # when no residual is above 0
    prob, points = FEASIBLE_CASES["fpca"]()
    k = diagnostics.KERNEL_SAMPLES
    blocks, projections = [], []

    def vjp(x, w, point=None):
        V = prob.amap.vjp(x, w, point)
        V[:, :nan_cols] = np.nan
        blocks.append(V[:, :k].T.copy())
        return V

    kernel = prob.domain._normal_cone_project

    def counted(x, Z):
        projections.append(Z.copy())
        return kernel(x, Z)

    monkeypatch.setattr(prob.domain, "_normal_cone_project", counted)
    amap = dataclasses.replace(prob.amap, vjp=vjp)
    got = assumption_a_check(amap, prob.cmap, prob.domain, points)

    rng = np.random.default_rng(0)
    want, picked = [], []
    for x, Vk in zip(points, blocks):
        ker = span = 0.0
        for lam, v in zip(rng.standard_normal((k, prob.cmap.p)), Vk):
            resid = _norm(v) / max(1.0, _norm(lam))
            if resid > ker:
                ker, best = resid, v
                span = min(_norm(v - normal_cone_oracle(prob.domain, x, v)),
                           _norm(v + normal_cone_oracle(prob.domain, x, -v)))
                span /= max(1.0, _norm(lam))
        want.append((ker, span))
        if ker:
            picked.append(np.column_stack([best, -best]))
    assert [(d["kernel"], d["kernel_outside_normal_span"]) for d in got.details] == want
    assert len(projections) == (len(points) if nan_cols < k else 0)
    assert all(np.array_equal(Z, P) for Z, P in zip(projections, picked, strict=True))
