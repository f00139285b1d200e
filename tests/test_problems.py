import dataclasses
import json

import numpy as np
import pytest

from dissolve import problems
from dissolve.mappings import h_grad
from dissolve.problems import (
    ProblemInstance,
    build_fpca_problem,
    build_npca_problem,
    build_problem,
    build_qpb_problem,
    feasible_points,
    gen_fpca,
    gen_npca,
    gen_qpb,
    near_feasible_points,
    reference_small_oracle,
)
from dissolve.solvers import solve


# ---------------------------------------------------------------- npca


def test_npca_spectral_norm_equals_column_count():
    for seed in range(4):
        inst, _ = gen_npca(30, 12, seed=seed)
        assert abs(np.linalg.norm(inst.data["B"], 2) - 12.0) <= 1e-10


def test_npca_start_point_on_nonneg_sphere():
    inst, prob = gen_npca(25, 10, seed=3)
    x0 = inst.x0
    assert np.all(x0 >= 0.0)
    assert abs(np.linalg.norm(x0) - 1.0) <= 1e-12
    assert np.array_equal(prob.domain.project(x0), x0)


def test_npca_rank_one_analytic_optimum():
    B = np.array([[1.0], [0.0]])  # spectral norm 1 = column count
    prob = build_npca_problem(B, rho=0.0)
    inst = ProblemInstance(family="npca", seed=0, x0=np.array([0.6, 0.8]),
                           data={"B": B, "rho": 0.0, "n": 2, "m_cols": 1})
    oracle = reference_small_oracle(inst)
    assert oracle == pytest.approx(-0.5, abs=1e-6)
    res = solve(prob, inst.x0)
    assert res.status == "converged"
    assert res.f_val == pytest.approx(-0.5, abs=1e-6)
    assert np.allclose(res.x_final, [1.0, 0.0], atol=1e-4)


def test_npca_oracle_scaled_identity():
    B = 2.0 * np.eye(2)  # spectral norm 2 = column count
    inst = ProblemInstance(family="npca", seed=0, x0=np.array([1.0, 0.0]),
                           data={"B": B, "rho": 0.0, "n": 2, "m_cols": 2})
    # analytic optimum: -max eigenvalue of B B^T / 2 at a coordinate vector
    assert reference_small_oracle(inst) == pytest.approx(-2.0, abs=1e-5)


@pytest.mark.parametrize("n,scale,optimum", [(1, 1.0, -0.5), (3, 3.0, -4.5)])
def test_npca_oracle_scaled_identity_at_n_1_and_3(n, scale, optimum):
    # the oracle's n = 1 point and n = 3 grid; the optimum is -scale^2 / 2
    # at a coordinate vector, as at n = 2
    B = scale * np.eye(n)  # spectral norm = column count
    inst = ProblemInstance(family="npca", seed=0, x0=np.eye(1, n)[0],
                           data={"B": B, "rho": 0.0, "n": n, "m_cols": n})
    assert reference_small_oracle(inst) == pytest.approx(optimum, abs=1e-5)


def test_npca_solver_reaches_tolerances():
    inst, prob = gen_npca(10, 5, seed=0)
    res = solve(prob, inst.x0)
    assert res.status == "converged"
    assert res.feas <= 1e-6 and res.stat <= 1e-6


def test_npca_objective_matches_plain_formulas():
    # f and its gradient share B^T x through a memo of the last x, finite or
    # not; every order of calls, revisits, in-place mutation and NaN points
    # must give the plain formulas' bits
    inst, prob = gen_npca(40, 8, rho=0.3, seed=2)
    B, rho = inst.data["B"], inst.data["rho"]

    def f_value(x):
        bx = B.T @ x
        return -0.5 * float(bx @ bx) + rho * float(np.sum(x))

    def f_grad(x):
        return -(B @ (B.T @ x)) + rho

    rng = np.random.default_rng(3)
    # magnitudes over twelve decades make any other summation order show
    x, y = rng.random(40), rng.standard_normal(40) * 10.0 ** rng.integers(-6, 6, 40)
    w = 1e-6 * rng.standard_normal(40) * 10.0 ** rng.integers(-8, 0, 40)  # f ~ rho sum(w)
    for z in (x, y, w, x, y):
        assert prob.f_value(z) == f_value(z)
        assert prob.f_grad(z).tobytes() == f_grad(z).tobytes()
        assert prob.f_grad(z).tobytes() == f_grad(z).tobytes()
        assert prob.f_value(z) == f_value(z)
    for _ in range(3):
        prob.f_value(x)
        x[5] += 0.125
        assert prob.f_grad(x).tobytes() == f_grad(x).tobytes()
        x[0] -= 0.5
        assert prob.f_value(x) == f_value(x)
    x[2] = np.nan
    for _ in range(2):
        assert np.isnan(prob.f_value(x))
        assert prob.f_grad(x).tobytes() == f_grad(x).tobytes()
    x[2] = 0.5
    assert prob.f_value(x) == f_value(x)


# ---------------------------------------------------------------- qpb


def test_qpb_two_node_laplacian_hand_value():
    inst, _ = gen_qpb(2, edge_density=1.0, seed=0)
    expect = -np.array([[1.0, -1.0], [-1.0, 1.0]]) / 2.0
    assert np.allclose(inst.data["Qmat"], expect)


def test_qpb_shift_vector_and_normalized_linear_term():
    inst, _ = gen_qpb(6, seed=1)
    assert np.allclose(inst.data["d"], np.eye(6)[0] * 0.5)
    assert abs(np.linalg.norm(inst.data["qvec"]) - 1.0) <= 1e-12
    assert np.all(inst.data["qvec"] >= 0.0)  # uniform draw stays nonnegative


def test_qpb_start_point_in_ball_but_infeasible():
    hits = 0
    for seed in range(5):
        inst, prob = gen_qpb(8, seed=seed)
        assert np.array_equal(prob.domain.project(inst.x0), inst.x0)
        from dissolve.solvers import feasibility_measure

        if feasibility_measure(prob, inst.x0) > 1e-6:
            hits += 1
    assert hits == 5  # generic start points miss the shifted sphere


@pytest.mark.parametrize("d", [np.array([0.5]), np.zeros((3, 1)), np.zeros(4)])
def test_qpb_rejects_a_centre_of_another_shape(d):
    # a one-entry d would broadcast to another sphere
    with pytest.raises(ValueError, match="centre d of shape"):
        build_qpb_problem(-np.eye(3), np.ones(3) / np.sqrt(3.0), d)


def test_qpb_indefinite_quadratic():
    inst, _ = gen_qpb(12, seed=2)
    vals = np.linalg.eigvalsh(inst.data["Qmat"])
    assert vals.min() < -1e-8
    assert abs(vals.max()) <= 1e-8  # negated laplacian: zero top eigenvalue


def test_qpb_oracle_matches_solver():
    inst, prob = gen_qpb(2, seed=0)
    res = solve(prob, inst.x0)
    assert abs(res.f_val - reference_small_oracle(inst)) <= 1e-4


# ---------------------------------------------------------------- fpca


def test_fpca_start_satisfies_group_equalities_and_slacks():
    inst, prob = gen_fpca(12, 3, 2, seed=0)
    n, k, d = 12, 3, 2
    x0 = inst.x0
    c = prob.cmap.value(x0)
    assert np.abs(c[:k]).max() <= 1e-12
    y0 = x0[n * d:n * d + k]
    assert np.all(y0 >= 1.0)
    assert np.array_equal(prob.domain.project(x0), x0)


def test_fpca_objective_is_final_coordinate():
    inst, prob = gen_fpca(8, 2, 2, seed=1)
    x = inst.x0
    assert prob.f_value(x) == x[-1]
    g = prob.f_grad(x)
    assert g[-1] == 1.0 and np.abs(g[:-1]).max() == 0.0
    gh = h_grad(dataclasses.replace(prob, beta=0.0), x)
    assert np.isfinite(gh).all()


def test_fpca_hat_norm_is_top_d_singular_mass():
    inst, _ = gen_fpca(9, 2, 3, seed=2)
    for i, A in enumerate(inst.data["A"]):
        sv = np.linalg.svd(A, compute_uv=False)
        assert inst.data["hat_sq"][i] == pytest.approx(np.sum(sv[:3] ** 2))


def test_fpca_feasible_sampler_is_orthonormal():
    inst, prob = gen_fpca(10, 2, 3, seed=0)
    for x in feasible_points(inst, 5, seed=0):
        P = x[:30].reshape((10, 3), order="F")
        assert np.abs(P.T @ P - np.eye(3)).max() <= 1e-12
        assert np.linalg.norm(prob.cmap.value(x)) <= 1e-10


def test_fpca_full_rank_forces_orthogonality():
    # d = n: the Frobenius equality plus the spectral cap pinch every
    # singular value to one
    inst, prob = gen_fpca(4, 2, 4, seed=0)
    for x in feasible_points(inst, 3, seed=1):
        P = x[:16].reshape((4, 4), order="F")
        sv = np.linalg.svd(P, compute_uv=False)
        assert np.abs(sv - 1.0).max() <= 1e-10


# ---------------------------------------------------------------- shared


def fpca_group_loops(A_list, d, hat_sq, m_sizes):
    """fpca's c(x) and G(x) with one product per group, in the per-group
    order of operations of the stacked forms."""
    k, n = len(A_list), A_list[0].shape[1]
    pe, ye = n * d, n * d + k
    AtA = [A.T @ A for A in A_list]
    hat = [float(h) for h in hat_sq]
    msz = [float(m) for m in m_sizes]
    g2 = [-2.0 / m for m in msz]

    def c_value(x):
        P = x[:pe].reshape((n, d), order="F")
        y = x[pe:ye].tolist()
        z = float(x[ye])
        out = np.empty(k + 1)
        for i in range(k):
            M = A_list[i] @ P
            out[i] = (hat[i] - (M * M).sum()) / msz[i] + y[i] - z
        out[k] = (P * P).sum() - d
        return out

    def jac_columns(x):
        P = x[:pe].reshape((n, d), order="F")
        G = np.zeros((ye + 1, k + 1))
        frob_zero = 0.0 * P
        for i in range(k):
            GP = (0.0 + g2[i] * (AtA[i] @ P)) + frob_zero
            G[:pe, i] = GP.reshape(-1, order="F")
        G[:pe, k] = (0.0 + 2.0 * P).reshape(-1, order="F")
        G[pe:ye, :k] = np.eye(k)
        G[ye, :k] = -1.0
        G[ye, k] = -0.0
        return G

    return c_value, jac_columns


@pytest.mark.parametrize("rows", ["equal", "unequal"])
@pytest.mark.parametrize("n", [4, 30, 100])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_fpca_stacked_oracles_match_group_loops(k, n, rows):
    rng = np.random.default_rng(53)
    d = 3
    A_list = [rng.standard_normal((n + (i if rows == "unequal" else 0), n))
              for i in range(k)]
    A_list[0][0] = 0.0
    A_list[-1][:, 1] = -0.0
    hat_sq = n * rng.random(k)
    m_sizes = rng.integers(n, 3 * n, size=k).astype(float)
    cmap = build_fpca_problem(A_list, d, hat_sq=hat_sq, m_sizes=m_sizes).cmap
    c_loop, jac_loop = fpca_group_loops(A_list, d, hat_sq, m_sizes)
    for _ in range(3):
        x = rng.standard_normal(n * d + k + 1)
        x[:n] = 0.0          # a zero column of P
        x[n] = -0.0
        x[n * d] = -0.0      # the first slack
        assert cmap.value(x).tobytes() == c_loop(x).tobytes()
        G = cmap.jac_columns(x)
        assert G.flags.c_contiguous and G.tobytes() == jac_loop(x).tobytes()


def fpca_group_products(A_list, d, m_sizes):
    """fpca's G(x) v and sum_i lam_i Hess(c_i) dd with one product per group,
    in the per-group order of operations of the stacked forms."""
    k, n = len(A_list), A_list[0].shape[1]
    pe, ye = n * d, n * d + k
    AtA = [A.T @ A for A in A_list]
    g2 = [-2.0 / float(m) for m in m_sizes]

    def jac_t(x, v):
        P = x[:pe].reshape((n, d), order="F")
        GP = np.zeros((n, d))
        for i in range(k):
            if v[i] != 0.0:
                GP += float(v[i]) * g2[i] * (AtA[i] @ P)
        GP += float(v[k]) * 2.0 * P
        out = np.zeros(ye + 1)
        out[:pe] = GP.reshape(-1, order="F")
        out[pe:ye] = v[:k]
        out[ye] = -np.sum(v[:k])
        return out

    def hess(x, lam, dd):
        DP = dd[:pe].reshape((n, d), order="F")
        HP = np.zeros((n, d))
        for i in range(k):
            if lam[i] != 0.0:
                HP += float(lam[i]) * g2[i] * (AtA[i] @ DP)
        HP += float(lam[k]) * 2.0 * DP
        out = np.zeros(ye + 1)
        out[:pe] = HP.reshape(-1, order="F")
        return out

    return jac_t, hess


@pytest.mark.parametrize("rows", ["equal", "unequal"])
@pytest.mark.parametrize("n", [4, 30])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_fpca_stacked_jacobian_and_hessian_products_match_group_loops(k, n, rows):
    rng = np.random.default_rng(59)
    d = 3
    A_list = [rng.standard_normal((n + (i if rows == "unequal" else 0), n))
              for i in range(k)]
    A_list[0][0] = 0.0
    m_sizes = rng.integers(n, 3 * n, size=k).astype(float)
    cmap = build_fpca_problem(A_list, d, hat_sq=n * rng.random(k), m_sizes=m_sizes).cmap
    jac_t, hess = fpca_group_products(A_list, d, m_sizes)
    dim = n * d + k + 1
    for trial in range(4):
        x, dd = rng.standard_normal((2, dim))
        x[:n] = 0.0          # a zero column of P
        x[n] = -0.0
        v, lam = rng.standard_normal((2, k + 1))
        if trial == 1:
            v[0] = lam[-2] = 0.0     # a group that is skipped
            v[-1] = lam[0] = -0.0
        if trial == 2:
            # no P part: every term is -0.0, and the sum from a zero start +0.0
            dd[:n * d] = 0.0
            lam[:k], lam[k] = np.abs(lam[:k]), -abs(lam[k])
        if trial == 3:
            x[n + 1] = np.inf    # the skipped group's product is not formed
            v[0] = lam[0] = 0.0
        with np.errstate(invalid="ignore"):
            assert cmap.jac_t_apply(x, v).tobytes() == jac_t(x, v).tobytes()
            assert cmap.hess_apply(x, lam, dd).tobytes() == hess(x, lam, dd).tobytes()


@pytest.mark.parametrize("N", [1, 2, 60])
@pytest.mark.parametrize("rows", ["equal", "unequal"])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_fpca_oracles_over_a_stack_of_points_match_each_point(k, rows, N):
    # row i of a stacked call is the group loop at x_i, a skipped group and
    # an infinite entry included
    rng = np.random.default_rng(67)
    n, d = 4, 3
    A_list = [rng.standard_normal((n + (i if rows == "unequal" else 0), n))
              for i in range(k)]
    A_list[0][0] = 0.0
    hat_sq = n * rng.random(k)
    m_sizes = rng.integers(n, 3 * n, size=k).astype(float)
    cmap = build_fpca_problem(A_list, d, hat_sq=hat_sq, m_sizes=m_sizes).cmap
    c_loop, jac_loop = fpca_group_loops(A_list, d, hat_sq, m_sizes)
    jac_t, _ = fpca_group_products(A_list, d, m_sizes)
    X = rng.standard_normal((N, n * d + k + 1))
    V = rng.standard_normal((N, k + 1))
    X[:, :n] = 0.0           # a zero column of P
    X[::2, n] = -0.0
    V[1::3, 0] = 0.0         # a group that is skipped
    V[::2, -1] = -0.0
    if N > 1:
        X[1, n + 1] = np.inf  # the skipped group's product is not formed
    with np.errstate(invalid="ignore", over="ignore"):
        C, G, GV = cmap.value(X), cmap.jac_columns(X), cmap.jac_t_apply(X, V)
        for i in range(N):
            x = X[i].copy()
            assert C[i].tobytes() == c_loop(x).tobytes(), i
            assert G[i].tobytes() == jac_loop(x).tobytes(), i
            assert GV[i].tobytes() == jac_t(x, V[i].copy()).tobytes(), i


def test_generators_bit_reproducible():
    for gen, dims in ((gen_npca, (15, 7)), (gen_qpb, (15,)), (gen_fpca, (6, 2, 2))):
        a, _ = gen(*dims, seed=9)
        b, _ = gen(*dims, seed=9)
        assert np.array_equal(a.x0, b.x0)
        for key, val in a.data.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(val, b.data[key])
            elif isinstance(val, list):
                assert all(np.array_equal(u, v) for u, v in zip(val, b.data[key]))
            else:
                assert val == b.data[key]


def test_instance_json_roundtrip_solves_identically():
    for gen, dims in ((gen_npca, (10, 5)), (gen_qpb, (10,)), (gen_fpca, (5, 2, 2))):
        inst, prob = gen(*dims, seed=4)
        back = ProblemInstance.from_json(json.loads(json.dumps(inst.to_json())))
        assert np.array_equal(back.x0, inst.x0)
        prob2 = build_problem(back)
        r1 = solve(prob, inst.x0)
        r2 = solve(prob2, back.x0)
        assert r1.f_val == r2.f_val and r1.feas == r2.feas and r1.stat == r2.stat


def test_feasible_points_exactly_feasible():
    # qpb at n = 200 and 1000: a uniform sphere direction about d almost never
    # lands in the ball there, so only a direct construction keeps up
    for gen, dims in ((gen_npca, (12, 5)), (gen_qpb, (12,)), (gen_qpb, (200,)),
                      (gen_qpb, (1000,)), (gen_fpca, (6, 2, 2))):
        inst, prob = gen(*dims, seed=0)
        for x in feasible_points(inst, 10, seed=0):
            assert np.linalg.norm(prob.cmap.value(x)) <= 1e-10
            assert np.linalg.norm(x - prob.domain.project(x)) <= 1e-12


@pytest.mark.parametrize("family,gen,dims", [
    ("npca", gen_npca, (12, 5)), ("qpb", gen_qpb, (12,)), ("fpca", gen_fpca, (6, 2, 2))])
def test_feasible_points_call_the_sampler_once_per_point(monkeypatch, family, gen, dims):
    fam = problems.FAMILIES[family]
    got = []

    def counting(data, rng):
        got.append(fam.feasible(data, rng))
        return got[-1]

    monkeypatch.setitem(problems.FAMILIES, family, dataclasses.replace(fam, feasible=counting))
    inst, _ = gen(*dims, seed=0)
    points = feasible_points(inst, 7, seed=3)
    assert len(got) == 7 and all(x is not None for x in got)
    assert all(x is y for x, y in zip(points, got))


@pytest.mark.parametrize("count", [2.5, True, -1, "3"])
def test_sample_counts_that_are_not_whole_numbers_raise(count):
    # 2.5 gave 3 points, True one and -1 none; near_feasible_points(1.5) gave 2
    inst, _ = gen_qpb(6, seed=0)
    for sample in (feasible_points, near_feasible_points):
        with pytest.raises(ValueError, match="count must be a nonnegative integer"):
            sample(inst, count)


def test_instance_with_numpy_scalar_dims_dumps_and_loads_back():
    inst, _ = gen_npca(6, 3, seed=1)
    data = {**inst.data, "n": np.int64(6), "m_cols": np.int64(3), "rho": np.float64(0.25)}
    obj = ProblemInstance(family="npca", seed=1, x0=inst.x0, data=data).to_json()
    assert (obj["data"]["n"], obj["data"]["m_cols"], obj["data"]["rho"]) == (6, 3, 0.25)
    assert type(obj["data"]["n"]) is int and type(obj["data"]["rho"]) is float
    back = ProblemInstance.from_json(json.loads(json.dumps(obj)))
    assert back.family == "npca" and back.seed == 1 and np.array_equal(back.x0, inst.x0)
    assert np.array_equal(back.data["B"], inst.data["B"])
    assert {key: back.data[key] for key in ("n", "m_cols", "rho")} == {
        "n": 6, "m_cols": 3, "rho": 0.25}


def test_near_feasible_points_stay_in_domain_off_manifold():
    inst, prob = gen_fpca(8, 2, 2, seed=0)
    for y in near_feasible_points(inst, 10, seed=0):
        assert np.linalg.norm(y - prob.domain.project(y)) <= 1e-12
        assert np.linalg.norm(prob.cmap.value(y)) >= 0.25 * 0.05


def test_oracle_rejects_unsupported_sizes():
    inst, _ = gen_npca(5, 3, seed=0)
    with pytest.raises(ValueError):
        reference_small_oracle(inst)
    inst, _ = gen_qpb(3, seed=0)
    with pytest.raises(ValueError):
        reference_small_oracle(inst)
    inst, _ = gen_fpca(4, 2, 2, seed=0)
    with pytest.raises(ValueError):
        reference_small_oracle(inst)
