import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dissolve import mappings, solvers
from dissolve.diagnostics import assumption_a_check
from dissolve.mappings import (
    ConstraintMap,
    PenaltyProblem,
    _aq_value_parts,
    build_aq,
    empty_constraint_map,
    h_grad,
    h_value,
    sphere_nonneg_map,
)
from dissolve.sets import Box, NonnegOrthant, NormBall
from dissolve.solvers import SolverConfig
from dissolve.problems import (
    _sphere_cmap,
    build_fpca_problem,
    feasible_points,
    gen_fpca,
    gen_npca,
    gen_qpb,
    near_feasible_points,
)

from conftest import _fd_vjp, make_catalog, run_fresh, sample_smooth_point


def sphere_cmap(n):
    return ConstraintMap(
        p=1,
        value=lambda x: np.array([x @ x - 1.0]),
        jac_t_apply=lambda x, v: 2.0 * v[0] * x,
        hess_apply=lambda x, lam, d: 2.0 * lam[0] * d,
    )


def affine_cmap(a, b):
    a = np.asarray(a, dtype=float)
    return ConstraintMap(
        p=1,
        value=lambda x: np.array([a @ x - b]),
        jac_t_apply=lambda x, v: a * v[0],
        hess_apply=lambda x, lam, d: np.zeros_like(a),
    )


# ---------------------------------------------------------------- constraint maps


def test_jacobian_matches_value_differences():
    # G(x)^T d, from each family's jac_columns, against central differences
    # of c along d
    rng = np.random.default_rng(1)
    eps = np.cbrt(np.finfo(float).eps)
    for _, prob in (gen_npca(8, 4, seed=1), gen_qpb(8, seed=1), gen_fpca(4, 2, 3, seed=1)):
        cmap = prob.cmap
        for _ in range(10):
            x = rng.standard_normal(prob.n)
            d = rng.standard_normal(prob.n)
            d /= np.linalg.norm(d)
            fd = (cmap.value(x + eps * d) - cmap.value(x - eps * d)) / (2 * eps)
            jd = cmap.jac_columns(x).T @ d
            assert np.linalg.norm(jd - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def one_point_calls(cmap):
    """A one-point map over cmap's callbacks, which record the shape of each
    point they are called at, and that record."""
    shapes = []

    def record(fn):
        def call(x, *args):
            shapes.append(np.shape(x))
            return fn(x, *args)
        return call

    return ConstraintMap(p=cmap.p, value=record(cmap.value),
                         jac_t_apply=record(cmap.jac_t_apply),
                         hess_apply=record(cmap.hess_apply)), shapes


@pytest.mark.parametrize("case", ["sphere", "quadratic", "fpca"])
def test_one_point_map_takes_stacks_row_for_row(case):
    # a map built without jac_columns loops each stack over its one-point
    # callbacks: every row is the one-point call's bits, G's columns are the
    # products with the unit vectors, and a replace keeps the row loops
    rng = np.random.default_rng(71)
    base = {"sphere": lambda: sphere_cmap(5), "quadratic": lambda: quadratic_cmap(5, rng),
            "fpca": lambda: fpca_stack_problem(2, "unequal").cmap}[case]()
    cmap, shapes = one_point_calls(base)
    n = 4 * 3 + 2 + 1 if case == "fpca" else 5  # fpca: P (4 by 3), y (2) and z
    p, eye = cmap.p, np.eye(cmap.p)
    for N in (1, 4):
        X, V = rng.standard_normal((N, n)), rng.standard_normal((N, p))
        X[0, 0], X[-1, -1], V[-1, 0] = -0.0, 0.0, -0.0
        C, GV, G = cmap.value(X), cmap.jac_t_apply(X, V), cmap.jac_columns(X)
        assert (C.shape, GV.shape, G.shape) == ((N, p), (N, n), (N, n, p))
        for i, x in enumerate(X):
            cols = np.column_stack([base.jac_t_apply(x, e) for e in eye])
            assert same_bits(C[i], base.value(x)), i
            assert same_bits(GV[i], base.jac_t_apply(x, V[i])), i
            assert same_bits(G[i], cols) and same_bits(cmap.jac_columns(x), cols), i
        Lam, D = rng.standard_normal((N, p)), rng.standard_normal((N, n))
        Lam[0] = 0.0
        H = cmap.hess_apply(X[0], Lam, D)
        for j in range(N):
            assert same_bits(H[j], base.hess_apply(X[0], Lam[j], D[j])), j
    assert set(shapes) == {(n,)}  # the one-point callbacks saw rows only

    calls = []

    def count(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    wrapped = {"value": count("c", cmap.value), "jac_t_apply": count("Gv", cmap.jac_t_apply),
               "hess_apply": count("H", cmap.hess_apply)}
    counted = dataclasses.replace(cmap, **wrapped)
    assert all(getattr(counted, name) is fn for name, fn in wrapped.items())
    assert counted.jac_columns is cmap.jac_columns
    counted.value(X)
    counted.jac_t_apply(X, V)
    counted.hess_apply(X[0], Lam, D)
    assert calls == ["c", "Gv", "H"]


@pytest.mark.parametrize("n", [1, 2, 500, 1000, 4000])
@pytest.mark.parametrize("centre", ["zero", "e1"])
def test_sphere_closed_form_rows_are_the_one_point_formulas(n, centre):
    # npca's map (d = 0) and qpb's (d = e_1 / 2), over one point and over a
    # stack with a NaN row and signed zeros, against their one-point lambdas
    if centre == "zero":
        cmap = _sphere_cmap(0.0)
        value = lambda x: np.array([x @ x - 1.0])  # noqa: E731
        jac_t = lambda x, v: 2.0 * v[0] * x  # noqa: E731
    else:
        d = 0.5 * np.eye(1, n)[0]
        cmap = _sphere_cmap(d)
        value = lambda x: np.array([(x - d) @ (x - d) - 1.0])  # noqa: E731
        jac_t = lambda x, v: 2.0 * v[0] * (x - d)  # noqa: E731
    rng = np.random.default_rng(n)
    X, V = rng.standard_normal((4, n)), rng.standard_normal((4, 1))
    X[1, 0] = np.nan
    X[2, 0], X[3, -1], V[2, 0] = -0.0, 0.0, -0.0
    Lam, D = V.copy(), rng.standard_normal((4, n))
    D[0, 0] = -0.0
    C, GV, G = cmap.value(X), cmap.jac_t_apply(X, V), cmap.jac_columns(X)
    H = cmap.hess_apply(X[0], Lam, D)
    assert (C.shape, GV.shape, G.shape, H.shape) == ((4, 1), (4, n), (4, n, 1), (4, n))
    for i, x in enumerate(X):
        x = x.copy()
        col = np.column_stack([jac_t(x, np.ones(1))])
        hess = 2.0 * Lam[i, 0] * D[i]
        for got, want in ((C[i], value(x)), (cmap.value(x), value(x)),
                          (GV[i], jac_t(x, V[i])), (cmap.jac_t_apply(x, V[i]), jac_t(x, V[i])),
                          (G[i], col), (cmap.jac_columns(x), col),
                          (H[i], hess), (cmap.hess_apply(X[0], Lam[i], D[i]), hess)):
            assert same_bits(got, want), i


# ---------------------------------------------------------------- generic map


def test_aq_fixed_on_feasible_points():
    inst, prob = gen_qpb(10, seed=0)
    for x in feasible_points(inst, 10, seed=0):
        assert np.abs(prob.amap.value(x) - x).max() <= 1e-12


def test_aq_hand_values():
    ball = NormBall(2)
    amap = build_aq(ball, affine_cmap([1.0, 0.0], 1.0), sigma=1.0)
    assert np.allclose(amap.value(np.zeros(2)), [0.5, 0.0])

    orthant = NonnegOrthant(2)
    amap2 = build_aq(orthant, sphere_cmap(2), sigma=1.0)
    assert np.allclose(amap2.value(np.array([2.0, 0.0])), [2.0 - 24.0 / 41.0, 0.0])


def test_aq_p_zero_is_identity():
    amap = build_aq(NormBall(3), empty_constraint_map(3), sigma=1.0)
    x = np.array([0.1, -0.2, 0.3])
    w = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(amap.value(x), x)
    assert np.array_equal(amap.vjp(x, w), w)


def test_aq_requires_positive_sigma():
    for sigma in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            build_aq(NormBall(2), sphere_cmap(2), sigma=sigma)


def test_penalty_problem_requires_finite_nonnegative_beta():
    inst, prob = gen_qpb(4, seed=0)
    for beta in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="beta"):
            dataclasses.replace(prob, beta=beta)
        with pytest.raises(ValueError, match="beta"):
            gen_qpb(4, seed=0, beta=beta)


def test_analytic_vjp_matches_fd_oracle():
    # radius 2 keeps the unit-sphere constraint interior to the ball, where
    # the dissolving core is nonsingular and the map is smooth
    rng = np.random.default_rng(4)
    ball = NormBall(3, radius=2.0)
    amap = build_aq(ball, sphere_cmap(3), sigma=1.0)
    for _ in range(20):
        x = ball.project(rng.standard_normal(3))
        w = rng.standard_normal(3)
        a = amap.vjp(x, w)
        f = _fd_vjp(amap.value, x, w)
        assert np.linalg.norm(a - f) <= 1e-6 * max(1.0, np.linalg.norm(f))


def test_analytic_vjp_matches_fd_on_families():
    inst, prob = gen_qpb(8, seed=2)
    rng = np.random.default_rng(5)
    for x in near_feasible_points(inst, 5, seed=3):
        w = rng.standard_normal(prob.n)
        a = prob.amap.vjp(x, w)
        f = _fd_vjp(prob.amap.value, x, w)
        assert np.linalg.norm(a - f) <= 1e-6 * max(1.0, np.linalg.norm(f))
    # the fpca core loses rank on the feasible set, so the oracle comparison
    # runs where the core is well conditioned and the fd step is trustworthy
    inst, prob = gen_fpca(5, 2, 2, seed=0)
    for x in near_feasible_points(inst, 5, seed=3, scale=0.4):
        w = rng.standard_normal(prob.n)
        a = prob.amap.vjp(x, w)
        f = _fd_vjp(prob.amap.value, x, w)
        assert np.linalg.norm(a - f) <= 1e-6 * max(1.0, np.linalg.norm(f))


def test_vjp_kernel_on_feasible_points():
    for gen, dims in ((gen_npca, (12, 6)), (gen_qpb, (12,))):
        inst, prob = gen(*dims, seed=0)
        rng = np.random.default_rng(9)
        for x in feasible_points(inst, 10, seed=1):
            G = prob.cmap.jac_columns(x)
            lam = rng.standard_normal(prob.cmap.p)
            v = prob.amap.vjp(x, G @ lam)
            assert np.linalg.norm(v) <= 1e-8 * max(1.0, np.linalg.norm(lam))


def test_tangent_identity_on_feasible_points():
    # directions in null(G^T) keep their pairing through the map;
    # this holds for fpca too, unlike the kernel identity
    for gen, dims in ((gen_npca, (12, 6)), (gen_qpb, (12,)), (gen_fpca, (5, 2, 2))):
        inst, prob = gen(*dims, seed=0)
        rng = np.random.default_rng(9)
        for x in feasible_points(inst, 10, seed=1):
            G = prob.cmap.jac_columns(x)
            U, s, _ = np.linalg.svd(G, full_matrices=True)
            rank = int(np.sum(s > 1e-10))
            tang = U[:, rank:]
            for _ in range(3):
                d = tang @ rng.standard_normal(tang.shape[1])
                w = rng.standard_normal(prob.n)
                lhs = prob.amap.vjp(x, w) @ d
                rhs = w @ d
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_vjp_passes_through_directions_fixed_by_q():
    # at feasible x, a direction with G^T w = 0 and Q(x) w = w is untouched;
    # for the ball mapping Q = I - xx^T that means w orthogonal to x as well
    inst, prob = gen_qpb(6, seed=1)
    rng = np.random.default_rng(12)
    for x in feasible_points(inst, 5, seed=4):
        G = prob.cmap.jac_columns(x)
        basis = np.column_stack([G, x])
        w = rng.standard_normal(prob.n)
        w -= basis @ np.linalg.lstsq(basis, w, rcond=None)[0]
        assert np.linalg.norm(prob.domain._q(x, w) - w) <= 1e-12
        assert np.linalg.norm(prob.amap.vjp(x, w) - w) <= 1e-10 * max(1.0, np.linalg.norm(w))


def test_fpca_frobenius_direction_resists_dissolving():
    # every feasible point has all singular values at one, so the gradient of
    # the Frobenius-norm constraint lies in the normal cone and the generic
    # map provably acts on it as the identity instead of annihilating it
    inst, prob = gen_fpca(8, 2, 3, seed=0)
    x = feasible_points(inst, 1, seed=0)[0]
    lam = np.zeros(prob.cmap.p)
    lam[-1] = 1.0
    g_last = prob.cmap.jac_t_apply(x, lam)
    v = prob.amap.vjp(x, g_last)
    assert np.linalg.norm(v - g_last) <= 1e-8  # identity action, not kernel
    assert abs(np.linalg.norm(v) - 2.0 * np.sqrt(3)) <= 1e-8


def test_idempotency_of_jacobian_on_feasible_points():
    inst, prob = gen_qpb(10, seed=3)
    for x in feasible_points(inst, 5, seed=2):
        J = np.column_stack([prob.amap.vjp(x, e) for e in np.eye(prob.n)])
        assert np.linalg.norm(J @ J - J, 2) <= 1e-6


def test_growth_bound_near_feasible_points():
    inst, prob = gen_qpb(10, seed=4)
    ratios = []
    for y in near_feasible_points(inst, 100, seed=5, scale=0.05):
        c = np.linalg.norm(prob.cmap.value(y))
        if c > 1e-12:
            ratios.append(np.linalg.norm(prob.amap.value(y) - y) / c)
    assert np.all(np.isfinite(ratios))
    assert max(ratios) < 1e2


def test_build_aq_needs_hess_apply_and_the_analytic_mode():
    no_hess = dataclasses.replace(sphere_cmap(2), hess_apply=None)
    for kwargs in ({}, {"mode": "generic_analytic"}):
        with pytest.raises(ValueError, match="hess_apply"):
            build_aq(NormBall(2), no_hess, **kwargs)
    for mode in ("generic_fd", "auto"):
        with pytest.raises(ValueError, match="generic_analytic"):
            build_aq(NormBall(2), sphere_cmap(2), mode=mode)
    # with p = 0 the map is the identity and needs no Hessian products
    amap = build_aq(NormBall(2), dataclasses.replace(empty_constraint_map(2),
                                                     hess_apply=None))
    assert amap.mode == "closed_form"
    x = np.array([0.3, 0.4])
    assert same_bits(amap.value(x), x)
    assert same_bits(amap.vjp(x, -x), -x)


# ---------------------------------------------------------------- closed forms


def test_closed_form_values():
    sphere = sphere_nonneg_map()
    x = np.array([0.6, 0.8])
    assert np.allclose(sphere.value(x), x)
    assert np.allclose(sphere.value(np.array([2.0, 0.0])), [-1.0, 0.0])


def test_closed_form_vjp_against_fd():
    rng = np.random.default_rng(21)
    amap = sphere_nonneg_map()
    for _ in range(10):
        x = np.abs(rng.standard_normal(4)) + 0.1
        w = rng.standard_normal(4)
        a = amap.vjp(x, w)
        f = _fd_vjp(amap.value, x, w)
        assert np.linalg.norm(a - f) <= 1e-6 * max(1.0, np.linalg.norm(f))


def test_npca_closed_form_jacobian_hand_value():
    sphere = sphere_nonneg_map()
    x = np.array([2.0, 0.0])
    w = np.array([1.0, 0.0])
    assert np.allclose(sphere.vjp(x, w), [-4.5, 0.0])
    f = _fd_vjp(sphere.value, x, w)
    assert np.allclose(f, [-4.5, 0.0], atol=1e-7)


# ---------------------------------------------------------------- calls without a point


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def fresh(prob):
    """A new generic map over the same problem."""
    return build_aq(prob.domain, prob.cmap, sigma=prob.amap.sigma, mode=prob.amap.mode)


def reference_value(prob, x):
    _, _, QG, _, u = _aq_value_parts(prob.domain, prob.cmap, prob.amap.sigma, x[None],
                                   np.eye(prob.cmap.p))
    return x - QG[0] @ u[0]


def count_pinv(monkeypatch):
    calls = []
    pinv = mappings._core_pinv

    def counting(*args, **kwargs):
        calls.append(1)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(mappings, "_core_pinv", counting)
    return calls


def core_cases():
    """Symmetric p-by-p cores: SPD, exactly singular, singular values just
    above and just below the relative cutoff, zero, and signed zeros."""
    rng = np.random.default_rng(17)
    cut = mappings.PINV_RCOND
    for p in range(1, 7):
        B = rng.standard_normal((p, p))
        yield B @ B.T + 0.1 * np.eye(p)
        V, _ = np.linalg.qr(rng.standard_normal((p, p)))
        top = 1.0 + rng.random()
        for tail in (0.0, 1.0 + 1e-3, 1.0 - 1e-3, 1e-3):
            s = np.full(p, tail * cut * top)
            s[0] = top
            yield (V * s) @ V.T
        if p > 1:
            b = rng.standard_normal((p, 1))
            yield b @ b.T          # rank one
        yield np.zeros((p, p))
        yield np.full((p, p), -0.0)
        M = B @ B.T
        M[0, :] = M[:, 0] = -0.0
        yield M


def test_core_pinv_is_numpy_pinv_bit_for_bit():
    for core in core_cases():
        want = np.linalg.pinv(core, rcond=mappings.PINV_RCOND)
        got = mappings._core_pinv(core.copy())
        assert same_bits(got, want), core


CORE_PINV_NON_FINITE = """
import numpy as np
from dissolve.mappings import _core_pinv
for value in (np.nan, np.inf, -np.inf):
    core = np.eye(3)
    core[0, 0] = value
    try:
        _core_pinv(core)
    except np.linalg.LinAlgError:
        print("LinAlgError")
"""


def test_core_pinv_rejects_a_non_finite_core_before_the_svd():
    # LAPACK's SVD of eye(3) with an infinite entry need not return, so this
    # runs in a child with a timeout
    assert run_fresh(CORE_PINV_NON_FINITE).split() == ["LinAlgError"] * 3


CACHED_FAMILIES = [(gen_qpb, (8,), 0.05), (gen_fpca, (5, 2, 2), 0.4)]


@pytest.mark.parametrize("gen,dims,scale", CACHED_FAMILIES)
def test_point_cache_revisits_match_fresh_maps(gen, dims, scale):
    inst, prob = gen(*dims, seed=0)
    x, y = near_feasible_points(inst, 2, seed=4, scale=scale)
    w = np.random.default_rng(6).standard_normal(prob.n)
    amap = prob.amap
    for z in (x, y, x):
        assert same_bits(amap.value(z), reference_value(prob, z))
        assert same_bits(amap.value(z), fresh(prob).value(z))
        assert same_bits(amap.vjp(z, w), fresh(prob).vjp(z, w))
        assert same_bits(amap.vjp(z, 2.0 * w), fresh(prob).vjp(z, 2.0 * w))


@pytest.mark.parametrize("gen,dims,scale", CACHED_FAMILIES)
def test_point_cache_sees_in_place_mutation(gen, dims, scale):
    inst, prob = gen(*dims, seed=0)
    x = near_feasible_points(inst, 1, seed=5, scale=scale)[0].copy()
    w = np.random.default_rng(7).standard_normal(prob.n)
    amap = prob.amap
    amap.value(x)
    amap.vjp(x, w)
    x[0] += 1e-3
    assert same_bits(amap.vjp(x, w), fresh(prob).vjp(x, w))
    x[-1] -= 1e-3
    assert same_bits(amap.value(x), reference_value(prob, x))


@pytest.mark.parametrize("gen,dims,scale", CACHED_FAMILIES)
def test_point_cache_rebuilds_non_finite_points(gen, dims, scale, monkeypatch):
    inst, prob = gen(*dims, seed=0)
    x = near_feasible_points(inst, 1, seed=5, scale=scale)[0].copy()
    x[0] = np.nan
    calls = count_pinv(monkeypatch)
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError):
            prob.amap.value(x)
    assert len(calls) == 2


def test_point_cache_never_serves_a_nan_point(monkeypatch):
    # c reads x[0] only and x[1] is free, so the core stays finite while
    # A(x) carries the NaN through
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([x[0] - 0.5]),
        jac_t_apply=lambda x, v: np.array([v[0], 0.0]),
        hess_apply=lambda x, lam, d: np.zeros(2),
    )
    amap = build_aq(Box([-np.inf] * 2, [np.inf] * 2), cmap)
    x = np.array([0.2, np.nan])
    calls = count_pinv(monkeypatch)
    first = amap.value(x)
    assert same_bits(amap.value(x), first)
    assert np.isnan(first[1]) and len(calls) == 2


def test_fpca_batched_jacobian_matches_column_loop():
    _, prob = gen_fpca(6, 3, 2, seed=1)
    cmap = prob.cmap
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal(prob.n)
        loop = np.column_stack([cmap.jac_t_apply(x, e) for e in np.eye(cmap.p)])
        assert same_bits(cmap.jac_columns(x), loop)


def test_one_core_build_per_point(monkeypatch):
    inst, prob = gen_fpca(4, 2, 3, seed=0)
    x = feasible_points(inst, 1, seed=2)[0]
    calls = count_pinv(monkeypatch)
    assumption_a_check(prob.amap, prob.cmap, prob.domain, [x])
    assert len(calls) == 1

    inst, prob = gen_qpb(8, seed=0)
    x = near_feasible_points(inst, 1, seed=3)[0]
    calls.clear()
    point = {}
    h_value(prob, x, point)
    h_grad(prob, x, point)
    assert len(calls) == 1


def parent_fpca_oracles(data):
    """fpca's constraint oracles as plain per-group formulas, for bit-for-bit
    comparison with the problem's leaner ones."""
    A_list, hat_sq, m_sizes, d = data["A"], data["hat_sq"], data["m"], data["d"]
    k, n = len(A_list), A_list[0].shape[1]
    AtA = [A.T @ A for A in A_list]
    pe, ye = n * d, n * d + k

    def split(x):
        return x[:pe].reshape((n, d), order="F"), x[pe:ye], x[ye]

    def c_value(x):
        P, y, z = split(x)
        out = np.empty(k + 1)
        for i in range(k):
            out[i] = (hat_sq[i] - np.sum((A_list[i] @ P) ** 2)) / m_sizes[i] + y[i] - z
        out[k] = np.sum(P * P) - d
        return out

    def jac_t(x, v):
        P, _, _ = split(x)
        GP = np.zeros((n, d))
        for i in range(k):
            if v[i] != 0.0:
                GP += v[i] * (-2.0 / m_sizes[i]) * (AtA[i] @ P)
        GP += v[k] * 2.0 * P
        out = np.zeros(ye + 1)
        out[:pe] = GP.reshape(-1, order="F")
        out[pe:ye] = v[:k]
        out[ye] = -np.sum(v[:k])
        return out

    def hess(x, lam, dd):
        DP, _, _ = split(dd)
        HP = np.zeros((n, d))
        for i in range(k):
            if lam[i] != 0.0:
                HP += lam[i] * (-2.0 / m_sizes[i]) * (AtA[i] @ DP)
        HP += lam[k] * 2.0 * DP
        out = np.zeros(ye + 1)
        out[:pe] = HP.reshape(-1, order="F")
        return out

    return c_value, jac_t, hess


@pytest.mark.parametrize("dims", [(4, 2, 3), (7, 3, 2), (5, 1, 1)])
def test_fpca_oracles_match_plain_formulas(dims):
    inst, prob = gen_fpca(*dims, seed=2)
    c_value, jac_t, hess = parent_fpca_oracles(inst.data)
    cmap = prob.cmap
    rng = np.random.default_rng(12)
    for trial in range(10):
        x = rng.standard_normal(prob.n)
        dd = rng.standard_normal(prob.n)
        v = rng.standard_normal(cmap.p)
        lam = rng.standard_normal(cmap.p)
        if trial % 2:
            # zero and signed-zero weights take the skip branch
            v[0], lam[-1], v[-1], lam[0] = 0.0, -0.0, -0.0, 0.0
        assert same_bits(cmap.value(x), c_value(x))
        assert same_bits(cmap.jac_t_apply(x, v), jac_t(x, v))
        assert same_bits(cmap.hess_apply(x, lam, dd), hess(x, lam, dd))


def counting_problem(prob):
    """prob over a constraint map that counts its value and G v calls, with
    the generic map rebuilt over that map."""
    calls = {"value": 0, "jac_t": []}
    cm = prob.cmap

    def value(x):
        calls["value"] += 1
        return cm.value(x)

    def jac_t_apply(x, v):
        calls["jac_t"].append(np.array(v))
        return cm.jac_t_apply(x, v)

    cmap = dataclasses.replace(cm, value=value, jac_t_apply=jac_t_apply)
    amap = build_aq(prob.domain, cmap, sigma=prob.amap.sigma, mode=prob.amap.mode)
    return dataclasses.replace(prob, cmap=cmap, amap=amap), calls


def test_penalty_reads_c_from_the_map_point():
    inst, prob = gen_qpb(8, seed=0)
    x = near_feasible_points(inst, 1, seed=3)[0]
    counted, calls = counting_problem(prob)
    h_value(counted, x)
    assert calls["value"] == 1

    inst, prob = gen_fpca(4, 2, 3, seed=0)
    x = near_feasible_points(inst, 1, seed=1, scale=0.4)[0]
    counted, calls = counting_problem(prob)
    point = {}
    h_value(counted, x, point)
    h_grad(counted, x, point)
    assert calls["value"] == 1
    assert len(calls["jac_t"]) == 1
    assert same_bits(calls["jac_t"][0], prob.cmap.value(x))


@pytest.mark.parametrize("gen,dims,scale", CACHED_FAMILIES)
def test_penalty_from_the_map_point_matches_direct_formulas(gen, dims, scale):
    inst, prob = gen(*dims, seed=0)
    cmap = prob.cmap
    for x in near_feasible_points(inst, 3, seed=9, scale=scale):
        c = cmap.value(x)
        amap = fresh(prob)
        hv = float(prob.f_value(amap.value(x)) + 0.5 * prob.beta * (c @ c))
        hg = amap.vjp(x, prob.f_grad(amap.value(x))) + prob.beta * cmap.jac_t_apply(x, c)
        assert h_value(prob, x) == hv
        assert same_bits(h_grad(prob, x), hg)
        # a map built over another constraint map is not asked for c or G c:
        # an equal copy gives the same numbers, a shifted one its own c
        other = PenaltyProblem(f_value=prob.f_value, f_grad=prob.f_grad,
                               cmap=dataclasses.replace(cmap), amap=amap,
                               domain=prob.domain, beta=prob.beta)
        assert h_value(other, x) == hv
        assert same_bits(h_grad(other, x), hg)
        shifted = dataclasses.replace(other, cmap=dataclasses.replace(
            cmap, value=lambda z: cmap.value(z) + 0.5))
        cs = shifted.cmap.value(x)
        assert not same_bits(cs, c)
        hv = float(prob.f_value(amap.value(x)) + 0.5 * prob.beta * (cs @ cs))
        hg = amap.vjp(x, prob.f_grad(amap.value(x))) + prob.beta * cmap.jac_t_apply(x, cs)
        point = {}
        assert h_value(shifted, x, point) == hv
        assert same_bits(h_grad(shifted, x, point), hg)
        assert same_bits(h_grad(shifted, x), hg)


def test_penalty_at_a_non_finite_point_builds_once(monkeypatch):
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([x[0] - 0.5]),
        jac_t_apply=lambda x, v: np.array([v[0], 0.0]),
        hess_apply=lambda x, lam, d: np.zeros(2),
    )
    domain = Box([-np.inf] * 2, [np.inf] * 2)
    prob = PenaltyProblem(f_value=lambda y: float(y @ y), f_grad=lambda y: 2.0 * y,
                          cmap=cmap, amap=build_aq(domain, cmap), domain=domain,
                          beta=3.0)
    x = np.array([0.2, np.nan])
    calls = count_pinv(monkeypatch)
    assert np.isnan(h_value(prob, x))
    assert len(calls) == 1


# ---------------------------------------------------------------- penalty


def test_h_value_identities():
    inst, prob = gen_npca(10, 5, seed=0)
    x_feas = feasible_points(inst, 1, seed=0)[0]
    assert abs(h_value(prob, x_feas) - prob.f_value(x_feas)) <= 1e-10

    y = prob.domain.project(x_feas + 0.1)
    p0 = dataclasses.replace(prob, beta=0.0)
    assert abs(h_value(p0, y) - prob.f_value(prob.amap.value(y))) <= 1e-12

    c2 = float(prob.cmap.value(y) @ prob.cmap.value(y))
    p2 = dataclasses.replace(prob, beta=2.0)
    assert h_value(p2, y) - h_value(p0, y) == pytest.approx(c2, rel=1e-14)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_h_beta_linearity(seed):
    rng = np.random.default_rng(seed)
    inst, prob = gen_qpb(6, seed=0)
    y = prob.domain.project(rng.standard_normal(6))
    b1, b2 = sorted(rng.random(2) * 10.0)
    c = prob.cmap.value(y)
    prob1, prob2 = (dataclasses.replace(prob, beta=b) for b in (b1, b2))
    lhs = h_value(prob2, y) - h_value(prob1, y)
    assert lhs == pytest.approx(0.5 * (b2 - b1) * float(c @ c), rel=1e-12, abs=1e-13)
    gd = h_grad(prob2, y) - h_grad(prob1, y)
    expect = (b2 - b1) * prob.cmap.jac_t_apply(y, c)
    assert np.allclose(gd, expect, rtol=1e-12, atol=1e-13)


def test_h_grad_matches_fd_on_families():
    from dissolve.diagnostics import grad_check

    for gen, dims in ((gen_npca, (12, 6)), (gen_qpb, (12,)), (gen_fpca, (5, 2, 2))):
        inst, prob = gen(*dims, seed=0)
        report = grad_check(prob, near_feasible_points(inst, 20, seed=7))
        assert report.passed, (gen.__name__, report.worst_violation)


def test_h_grad_exact_at_boundary_active_iterate():
    # mid-solve fpca iterates sit with spectral values clipped at one and
    # small constraint violations; the analytic gradient must hold there too
    from dissolve.diagnostics import grad_check
    from dissolve.solvers import SolverConfig, solve

    inst, prob = gen_fpca(10, 2, 3, seed=0, beta=10.0)
    cfg = SolverConfig(tol_stat=1e-4, tol_feas=1e-4, max_iter=300)
    res = solve(prob, inst.x0, cfg)
    P = res.x_final[:30].reshape((10, 3), order="F")
    assert np.linalg.svd(P, compute_uv=False).max() >= 1.0 - 1e-12
    assert grad_check(prob, [res.x_final]).passed


# ---------------------------------------------------------------- carried point


POINT_FAMILIES = [(gen_npca, (12, 6), 0.05)] + CACHED_FAMILIES


def nan_point_problem():
    """A generic map whose core stays finite at [0.2, nan]: c reads x[0] only."""
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([x[0] - 0.5]),
        jac_t_apply=lambda x, v: np.array([v[0], 0.0]),
        hess_apply=lambda x, lam, d: np.zeros(2),
    )
    domain = Box([-np.inf] * 2, [np.inf] * 2)
    return PenaltyProblem(f_value=lambda y: float(y @ y), f_grad=lambda y: 2.0 * y,
                          cmap=cmap, amap=build_aq(domain, cmap), domain=domain,
                          beta=3.0)


@pytest.mark.parametrize("gen,dims,scale", POINT_FAMILIES)
def test_h_grad_after_h_value_matches_a_fresh_problem(gen, dims, scale):
    inst, prob = gen(*dims, seed=0)
    x, y = (p.copy() for p in near_feasible_points(inst, 2, seed=5, scale=scale))
    for z in (x, y, x):
        point = {}
        h_value(prob, z, point)
        fresh = gen(*dims, seed=0)[1]
        assert same_bits(point["a"], fresh.amap.value(z))
        assert same_bits(point["c"], fresh.cmap.value(z))
        assert same_bits(h_grad(prob, z, point), h_grad(gen(*dims, seed=0)[1], z))
    # without a point, h_grad evaluates A(x) and c(x) itself, so the point
    # h_value filled at x does not reach the array mutated in place
    h_value(prob, x, {})
    x[0] += 1e-3
    assert same_bits(h_grad(prob, x), h_grad(gen(*dims, seed=0)[1], x))
    x[-1] -= 1e-3
    point = {}
    assert h_value(prob, x, point) == h_value(gen(*dims, seed=0)[1], x)
    assert same_bits(h_grad(prob, x, point), h_grad(gen(*dims, seed=0)[1], x))


def test_sphere_map_with_a_carried_point_matches_free_calls():
    # the sphere map keeps x^T x in the point: every call with the dict
    # equals the call without it, also after h_value refills the dict at
    # another x, a NaN point among them
    n = 5
    rng = np.random.default_rng(41)
    amap = sphere_nonneg_map()
    x, y = (np.abs(0.6 * rng.standard_normal(n)) for _ in range(2))
    bad = x.copy()
    bad[1] = np.nan
    w, v = rng.standard_normal(n), rng.standard_normal(n)
    point = {}
    assert same_bits(amap.value(x, point), amap.value(x))
    assert "build" in point
    for d in (w, v):
        assert same_bits(amap.vjp(x, d, point), amap.vjp(x, d))
    assert same_bits(amap.value(x, point), amap.value(x))

    domain = Box([-np.inf] * n, [np.inf] * n)
    prob = PenaltyProblem(f_value=lambda a: float(a @ a), f_grad=lambda a: 2.0 * a,
                          cmap=sphere_cmap(n), amap=amap, domain=domain, beta=3.0)
    for z in (y, bad, x):
        assert same_bits(np.float64(h_value(prob, z, point)), np.float64(h_value(prob, z)))
        assert same_bits(point["a"], amap.value(z))
        assert same_bits(amap.value(z, point), amap.value(z))
        for d in (w, v):
            assert same_bits(amap.vjp(z, d, point), amap.vjp(z, d))
        assert same_bits(h_grad(prob, z, point), h_grad(prob, z))
    # a vjp on a fresh dict stores the parts the value then reads
    point = {}
    assert same_bits(amap.vjp(y, w, point), amap.vjp(y, w))
    assert same_bits(amap.value(y, point), amap.value(y))


@pytest.mark.parametrize("make", [lambda: gen_npca(12, 6, seed=0)[1], nan_point_problem])
def test_point_record_never_stores_a_nan_point(make):
    # a NaN point goes into its own dict and leaves x's dict as it was
    prob = make()
    x = np.full(prob.n, 0.25)
    point_x, point_bad = {}, {}
    h_value(prob, x, point_x)
    bad = x.copy()
    bad[1] = np.nan
    assert np.isnan(h_value(prob, bad, point_bad))
    assert same_bits(h_grad(prob, bad, point_bad), h_grad(make(), bad))
    assert same_bits(h_grad(prob, x, point_x), h_grad(make(), x))


def test_point_record_starts_empty_and_stays_out_of_equality():
    # the problem holds no point state: evaluating leaves it equal to a copy
    inst, prob = gen_npca(12, 6, seed=0)
    x = inst.x0
    twin = dataclasses.replace(prob)
    h_value(prob, x, {})
    assert [f.name for f in dataclasses.fields(PenaltyProblem)] == [
        "f_value", "f_grad", "cmap", "amap", "domain", "beta"]
    assert twin == prob and hash(twin) == hash(prob)
    assert "_record" not in repr(prob)


def counted_calls(prob):
    """prob with A(x) and c(x) counting their calls; a generic map is rebuilt
    over the counting constraint map so that its builds are counted too."""
    calls = {"A": 0, "c": 0}
    cm, am = prob.cmap, prob.amap

    def c_value(x):
        calls["c"] += 1
        return cm.value(x)

    cmap = dataclasses.replace(cm, value=c_value)
    if am.mode != "closed_form":
        am = build_aq(prob.domain, cmap, sigma=am.sigma, mode=am.mode)
    a_value = am.value

    def value(x, point=None):
        calls["A"] += 1
        return a_value(x, point)

    amap = dataclasses.replace(am, value=value)
    return dataclasses.replace(prob, cmap=cmap, amap=amap), calls


def test_npca_solve_evaluates_each_point_once(monkeypatch):
    inst, prob = gen_npca(60, 10, rho=0.1, seed=0)
    plain = solvers.solve(prob, inst.x0)
    counted, calls = counted_calls(prob)
    h_calls = []
    value = solvers.h_value

    def counting_h_value(p, x, point=None):
        h_calls.append(1)
        return value(p, x, point)

    monkeypatch.setattr(solvers, "h_value", counting_h_value)
    res = solvers.solve(counted, inst.x0)
    assert res.status == "converged" and res.iters > 10
    assert calls["A"] <= len(h_calls) + 1
    assert calls["c"] <= len(h_calls) + 1
    assert same_bits(res.x_final, plain.x_final) and res.trace == plain.trace
    assert (res.f_val, res.feas, res.stat) == (plain.f_val, plain.feas, plain.stat)


def test_fpca_penalty_pair_evaluates_each_part_once(monkeypatch):
    inst, prob = gen_fpca(4, 2, 3, seed=0)
    x = near_feasible_points(inst, 1, seed=1, scale=0.4)[0]
    counted, calls = counted_calls(prob)
    builds = count_pinv(monkeypatch)
    point = {}
    h_value(counted, x, point)
    h_grad(counted, x, point)
    assert calls == {"A": 1, "c": 1}
    assert len(builds) == 1


@pytest.mark.parametrize("dims,beta,cfg,status", [
    ((5, 2, 2), 1.0, SolverConfig(tol_stat=1e-4, tol_feas=1e-4), "converged"),
    ((5, 2, 2), 1.0, SolverConfig(max_iter=20), "max_iter"),
    # beta 0.1 stalls at a stationary point of h far from feasibility; a
    # tol_stat no stat reaches keeps the solve going until the line search fails
    ((8, 2, 2), 0.1, SolverConfig(tol_stat=1e-300, tol_feas=1e-4), "line_search_failure"),
])
def test_generic_map_solve_builds_one_core_per_h_value(dims, beta, cfg, status,
                                                        monkeypatch):
    # h_grad reads the build h_value left in the point, at every exit the
    # best point's included
    inst, prob = gen_fpca(*dims, seed=0, beta=beta)
    h_calls = []
    value = solvers.h_value

    def counting_h_value(p, x, point=None):
        h_calls.append(1)
        return value(p, x, point)

    monkeypatch.setattr(solvers, "h_value", counting_h_value)
    builds = count_pinv(monkeypatch)
    res = solvers.solve(prob, inst.x0, cfg)
    assert res.status == status
    assert len(builds) == len(h_calls)
    assert res.trace[-1][1:3] == (res.feas, res.stat)


# ---------------------------------------------------------------- stacked builds


def per_point_build(prob, x):
    """The generic build at one point, one column and one product at a time,
    with numpy's own pinv: (c, G, QG, core_pinv, u, A)."""
    cmap, domain = prob.cmap, prob.domain
    c = cmap.value(x)
    G = np.column_stack([cmap.jac_t_apply(x, e) for e in np.eye(cmap.p)])
    QG = np.column_stack([domain._q(x, G[:, j]) for j in range(cmap.p)])
    M = G.T @ QG
    core = 0.5 * (M + M.T) + prob.amap.sigma * float(c @ c) * np.eye(cmap.p)
    core_pinv = np.linalg.pinv(core, rcond=mappings.PINV_RCOND)
    u = core_pinv @ c
    return c, G, QG, core_pinv, u, x - QG @ u


def fpca_stack_problem(k, rows, n=4, d=3):
    """fpca with zero and -0.0 data entries; group sizes equal or unequal."""
    rng = np.random.default_rng(61 + k)
    A_list = [rng.standard_normal((n + (i if rows == "unequal" else 0), n))
              for i in range(k)]
    A_list[0][0] = 0.0
    A_list[-1][:, 1] = -0.0
    m_sizes = rng.integers(n, 3 * n, size=k).astype(float)
    return build_fpca_problem(A_list, d, hat_sq=n * rng.random(k), m_sizes=m_sizes)


def box_sphere_problem():
    # a box with both, lower-only and no bounds: its masked weights
    n = 4
    domain = Box([-1.0, 0.0, -np.inf, -2.0], [1.5, np.inf, np.inf, 2.0])
    cmap = sphere_cmap(n)
    return PenaltyProblem(f_value=lambda x: 0.5 * float(x @ x), f_grad=lambda x: x,
                          cmap=cmap, amap=build_aq(domain, cmap), domain=domain, beta=1.0)


def stack_points(prob, N, seed):
    """N points of the domain with zero and -0.0 entries."""
    rng = np.random.default_rng(seed)
    X = np.array([prob.domain.project(0.7 * rng.standard_normal(prob.n))
                  for _ in range(N)])
    X[::2, 0] = 0.0
    X[1::2, 0] = -0.0
    X[::3, -1] = -0.0
    return X


def assert_stacked_build_matches_each_point(prob, X):
    parts = _aq_value_parts(prob.domain, prob.cmap, prob.amap.sigma, X,
                            np.eye(prob.cmap.p))
    A = prob.amap.value(X)
    GC = prob.cmap.jac_t_apply(X, parts[0])
    for part in (*parts, A, GC):
        assert part.shape[0] == len(X)
    for i, x in enumerate(X):
        x = x.copy()
        want = per_point_build(prob, x)
        got = [part[i] for part in parts] + [A[i]]
        for name, g, w in zip(("c", "G", "QG", "core_pinv", "u", "A"), got, want):
            assert same_bits(g, w), (name, i)
        assert same_bits(prob.amap.value(x), A[i]), i
        assert same_bits(GC[i], prob.cmap.jac_t_apply(x, want[0])), i


@pytest.mark.parametrize("N", [1, 2, 60])
@pytest.mark.parametrize("rows", ["equal", "unequal"])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_stacked_fpca_build_matches_each_point_bit_for_bit(k, rows, N):
    prob = fpca_stack_problem(k, rows)
    assert prob.cmap.value.__name__ == "c_value"  # fpca's own, not a row loop
    assert_stacked_build_matches_each_point(prob, stack_points(prob, N, seed=N + k))


@pytest.mark.parametrize("N", [1, 2, 60])
@pytest.mark.parametrize("case", ["qpb", "box", "fpca per point"])
def test_stacked_build_without_stacked_callbacks_matches_each_point(case, N):
    # the constructor's adapter loops the stack over the one-point callbacks
    # and the per-column Q
    prob = {"qpb": lambda: gen_qpb(6, seed=1)[1], "box": box_sphere_problem,
            "fpca per point": lambda: fpca_stack_problem(2, "unequal")}[case]()
    cmap, shapes = one_point_calls(prob.cmap)
    prob = dataclasses.replace(prob, cmap=cmap, amap=build_aq(prob.domain, cmap))
    assert_stacked_build_matches_each_point(prob, stack_points(prob, N, seed=N))
    assert set(shapes) == {(prob.n,)}


STACKED_NON_FINITE_ROW = """
import numpy as np
from dissolve.problems import gen_fpca, gen_qpb
for gen, dims in ((gen_fpca, (4, 2, 3)), (gen_qpb, (5,))):
    inst, prob = gen(*dims, seed=0)
    for value in (np.nan, np.inf):
        X = np.array([inst.x0] * 3)
        X[1, 0] = value
        for x in (X, X[1]):
            try:
                with np.errstate(all="ignore"):
                    prob.amap.value(x)
                print("returned")
            except np.linalg.LinAlgError:
                print("LinAlgError")
"""


def test_stack_with_a_non_finite_row_raises_like_that_point():
    # an infinite entry can keep LAPACK's SVD from returning, so this runs in
    # a child with a timeout
    assert run_fresh(STACKED_NON_FINITE_ROW).split() == ["LinAlgError"] * 8


@pytest.mark.parametrize("gen,dims", [(gen_npca, (6, 3)), (gen_qpb, (6,)),
                                      (gen_fpca, (4, 2, 3)), (gen_npca, (500, 30))])
def test_h_value_over_a_stack_is_each_point_h_value(gen, dims):
    inst, prob = gen(*dims, seed=2)
    X = np.array(near_feasible_points(inst, 7, seed=3))
    got = h_value(prob, X)
    assert got.shape == (7,)
    for i, x in enumerate(X):
        assert same_bits(got[i:i + 1], np.array([h_value(prob, x.copy())])), i


def same_point(a, b):
    """Whether two point dicts hold the same keys and bit-identical parts of
    the same types."""
    if a.keys() != b.keys():
        return False
    for key in a:
        u, v = a[key], b[key]
        if key == "built_over":
            ok = u is v
        elif key == "build":
            ok = len(u) == len(v) and all(map(same_bits, u, v))
        else:
            ok = type(u) is type(v) and same_bits(np.asarray(u), np.asarray(v))
        if not ok:
            return False
    return True


def identity_case(n=5):
    domain = NonnegOrthant(n)
    cmap = empty_constraint_map(n)
    return PenaltyProblem(f_value=lambda a: float(a @ a), f_grad=lambda a: 2.0 * a,
                          cmap=cmap, amap=build_aq(domain, cmap), domain=domain, beta=3.0)


@pytest.mark.parametrize("case", ["npca", "npca-500", "qpb", "fpca", "identity"])
def test_point_row_is_the_one_point_dict(case):
    # the sphere map, the generic map over qpb's and fpca's constraint maps,
    # and the p = 0 identity: row i of a stack's dict is the dict h_value
    # fills at x_i alone, and h_grad reads it to the same bits
    rng = np.random.default_rng(5)
    if case == "identity":
        prob = identity_case()
        X = np.abs(rng.standard_normal((4, prob.n)))
    else:
        gen, dims = {"npca": (gen_npca, (6, 3)), "npca-500": (gen_npca, (500, 30)),
                     "qpb": (gen_qpb, (6,)), "fpca": (gen_fpca, (4, 2, 3))}[case]
        inst, prob = gen(*dims, seed=2)
        X = np.array(near_feasible_points(inst, 4, seed=3))
    X[1, :2] = -0.0
    block = {}
    values = h_value(prob, X, block)
    for i in range(len(X)):
        x = X[i].copy()
        one = {}
        assert same_bits(values[i:i + 1], np.array([h_value(prob, x, one)])), i
        row = mappings.point_row(block, i)
        assert same_point(row, one), (i, sorted(one))
        g = h_grad(prob, x, row)
        assert same_bits(g, h_grad(prob, x, one)), i
        assert same_bits(g, h_grad(prob, x)), i


# ---------------------------------------------------------------- vjp over a block


def quadratic_cmap(n, rng, p=2):
    """c_i(x) = x^T M_i x / 2 - r_i for symmetric M_i: a one-point map, which
    its constructor wraps to take stacks, with exact Hessian products."""
    M = [B + B.T for B in rng.standard_normal((p, n, n))]
    r = rng.random(p)
    return ConstraintMap(
        p=p,
        value=lambda x: np.array([0.5 * (x @ (Mi @ x)) for Mi in M]) - r,
        jac_t_apply=lambda x, v: sum(v[i] * (M[i] @ x) for i in range(p)),
        hess_apply=lambda x, lam, d: sum(lam[i] * (M[i] @ d) for i in range(p)),
    )


def block_vjp_cases():
    """(name, map, points): the generic map over every catalog set (with a
    one-point constraint map), fpca's and qpb's, npca's sphere map and the
    p = 0 identity."""
    rng = np.random.default_rng(43)
    for domain in make_catalog():
        yield (repr(domain), build_aq(domain, quadratic_cmap(domain.n, rng)),
               [sample_smooth_point(domain, rng) for _ in range(2)])
    for name, gen, dims in (("fpca", gen_fpca, (6, 2, 2)), ("qpb", gen_qpb, (8,)),
                            ("sphere", gen_npca, (7, 3))):
        inst, prob = gen(*dims, seed=2)
        yield (name, prob.amap,
               feasible_points(inst, 1, seed=1) + near_feasible_points(inst, 1, seed=2))
    domain = NonnegOrthant(5)
    yield ("identity", build_aq(domain, empty_constraint_map(5)),
           [sample_smooth_point(domain, rng)])


@pytest.mark.parametrize("layout", ["C", "F"])
def test_vjp_of_a_block_is_the_column_by_column_vjp(layout):
    rng = np.random.default_rng(47)
    for name, amap, points in block_vjp_cases():
        for x in points:
            n = x.size
            for m in (0, 1, 7):
                W = rng.standard_normal((n, m))
                W[:1] = -0.0
                W = np.asfortranarray(W) if layout == "F" else W
                shared = {}
                for point in (shared, None, shared):
                    got = amap.vjp(x, W, point)
                    cols = [amap.vjp(x, np.ascontiguousarray(W[:, j]), point)
                            for j in range(m)]
                    want = np.column_stack(cols) if cols else np.zeros((n, 0))
                    assert got.flags.c_contiguous, (name, m)
                    assert same_bits(got, want), (name, m)


def fpca_hess_loop(data, lam, dd):
    """fpca's Hessian product as a loop over the groups, skipping a group
    whose multiplier is zero."""
    n, d, k = data["n"], data["d"], data["k"]
    DP = dd[:n * d].reshape((n, d), order="F")
    lam = lam.tolist()
    HP = np.zeros((n, d))
    for i, A in enumerate(data["A"]):
        if lam[i] != 0.0:
            HP += lam[i] * (-2.0 / float(data["m"][i])) * ((A.T @ A) @ DP)
    HP += lam[k] * 2.0 * DP
    out = np.zeros(dd.size)
    out[:n * d] = HP.reshape(-1, order="F")
    return out


def test_hess_stack_rows_are_the_one_row_products():
    rng = np.random.default_rng(53)
    inst, fpca = gen_fpca(5, 3, 2, seed=0)
    _, qpb = gen_qpb(6, seed=0)
    for prob in (fpca, qpb):
        x, n, p = prob.domain.project(rng.standard_normal(prob.n)), prob.n, prob.cmap.p
        for m in (0, 1, 6):
            Lam, D = rng.standard_normal((m, p)), rng.standard_normal((m, n))
            if m > 1:
                Lam[0] = 0.0
                Lam[1, 0] = -0.0
                D[0, 0] = np.inf  # behind zero multipliers only
            with np.errstate(invalid="ignore"):  # 0 * inf in the last term
                got = prob.cmap.hess_apply(x, Lam, D)
                rows = [prob.cmap.hess_apply(x, lam, d.copy()) for lam, d in zip(Lam, D)]
                loops = ([fpca_hess_loop(inst.data, lam, d) for lam, d in zip(Lam, D)]
                         if prob is fpca else [])
            assert got.shape == (m, n)
            for j, row in enumerate(rows):
                assert same_bits(got[j], row), j
            for j, loop in enumerate(loops):
                assert same_bits(got[j], loop), j


def test_fpca_hess_rows_at_a_one_entry_p_with_many_groups():
    # n = d = 1 and k = 9: the group axis is the contiguous one, which numpy
    # sums pairwise, so rows match the group loop to rounding only; a stack's
    # rows still are the one-row products bit for bit
    rng = np.random.default_rng(61)
    inst, prob = gen_fpca(1, 9, 1, seed=0)
    x = prob.domain.project(rng.standard_normal(prob.n))
    Lam, D = rng.standard_normal((5, prob.cmap.p)), rng.standard_normal((5, prob.n))
    Lam[0, :4] = 0.0
    got = prob.cmap.hess_apply(x, Lam, D)
    for j, (lam, d) in enumerate(zip(Lam, D)):
        assert same_bits(got[j], prob.cmap.hess_apply(x, lam, d.copy())), j
        loop = fpca_hess_loop(inst.data, lam, d)
        assert np.abs(got[j] - loop).max() <= 1e-13 * np.abs(loop).max(), j
