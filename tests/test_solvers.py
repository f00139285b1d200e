import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dissolve import solvers
from dissolve.mappings import (
    ConstraintMap,
    PenaltyProblem,
    build_aq,
    empty_constraint_map,
    h_value,
)
from dissolve.sets import Box, NonnegOrthant, NormBall
from dissolve.solvers import (
    SolverConfig,
    _norm,
    feasibility_measure,
    kkt_residual_original,
    solve,
    stationarity_measure,
)
from dissolve.problems import gen_fpca, gen_npca, gen_qpb, reference_small_oracle


def unconstrained_quadratic(n):
    domain = Box(np.full(n, -np.inf), np.full(n, np.inf))
    cmap = empty_constraint_map(n)
    amap = build_aq(domain, cmap, sigma=1.0)
    return PenaltyProblem(
        f_value=lambda x: 0.5 * float(x @ x),
        f_grad=lambda x: np.asarray(x, dtype=float),
        cmap=cmap,
        amap=amap,
        domain=domain,
        beta=0.0,
    )


def box_quadratic(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    H = A @ A.T / n + np.eye(n)
    b = rng.standard_normal(n)
    domain = Box(np.zeros(n), np.ones(n))
    cmap = empty_constraint_map(n)
    amap = build_aq(domain, cmap, sigma=1.0)
    return PenaltyProblem(
        f_value=lambda x: 0.5 * float(x @ (H @ x)) + float(b @ x),
        f_grad=lambda x: H @ x + b,
        cmap=cmap,
        amap=amap,
        domain=domain,
        beta=0.0,
    )


# ---------------------------------------------------------------- exits


def test_projected_gradient_zero_iterations_at_stationary_point():
    prob = unconstrained_quadratic(3)
    res = solve(prob, np.zeros(3))
    assert res.status == "converged"
    assert res.iters == 0
    assert len(res.trace) == 1


def test_projected_gradient_numerical_failure_status():
    domain = Box([-np.inf], [np.inf])
    cmap = empty_constraint_map(1)
    amap = build_aq(domain, cmap, sigma=1.0)
    prob = PenaltyProblem(
        f_value=lambda x: float(np.exp(x[0])),
        f_grad=lambda x: np.array([np.exp(x[0])]),
        cmap=cmap, amap=amap, domain=domain, beta=0.0)
    with np.errstate(over="ignore"):
        res = solve(prob, np.array([720.0]), SolverConfig(max_iter=10))  # exp overflows
    assert res.status == "numerical_failure"

    # an infinite h at a finite start with a finite gradient: the last trace
    # row holds the result's own (feas, stat)
    domain = NormBall(2)
    cmap = ConstraintMap(p=1, value=lambda x: np.array([x @ x - 0.25]),
                         jac_t_apply=lambda x, v: 2.0 * v[0] * x,
                         hess_apply=lambda x, lam, d: 2.0 * lam[0] * d)
    prob = PenaltyProblem(f_value=lambda a: np.inf, f_grad=lambda a: np.ones(2), cmap=cmap,
                          amap=build_aq(domain, cmap), domain=domain, beta=1.0)
    res = solve(prob, np.array([0.3, 0.1]))
    assert (res.status, res.iters) == ("numerical_failure", 0)
    assert res.feas == pytest.approx(0.15) and np.isfinite(res.stat)
    assert res.trace[-1][1:3] == (res.feas, res.stat)


@pytest.mark.parametrize("gen,dims", [(gen_npca, (10, 5)), (gen_qpb, (10,)),
                                      (gen_fpca, (6, 2, 2))])
def test_a_nan_gradient_ends_in_numerical_failure(gen, dims):
    # the spectral ball's projection rejects a NaN point, so stat is NaN
    # without a projection; feas stays ||c(x)|| at the finite x0
    inst, prob = gen(*dims, seed=0)
    bad = dataclasses.replace(prob, f_grad=lambda a: np.full(a.size, np.nan))
    res = solve(bad, inst.x0)
    assert (res.status, res.iters) == ("numerical_failure", 0)
    assert np.isnan(res.stat)
    x = prob.domain.project(inst.x0)
    assert res.feas == _norm(prob.cmap.value(x))


# ---------------------------------------------------------------- pg-bb


def test_pg_bb_on_box_quadratic():
    prob = box_quadratic(50, seed=0)
    cfg = SolverConfig(tol_stat=1e-10, tol_feas=1e-10, max_iter=200)
    res = solve(prob, np.full(50, 0.5), cfg)
    assert res.status == "converged"
    assert res.stat <= 1e-10
    assert res.iters <= 200
    # every iterate stays inside the box by construction
    assert np.all(res.x_final >= 0.0) and np.all(res.x_final <= 1.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_pg_bb_converges_on_random_box_quadratics(seed):
    prob = box_quadratic(10, seed=seed)
    x0 = np.random.default_rng(seed + 1).random(10)
    res = solve(prob, x0, SolverConfig(tol_stat=1e-9, tol_feas=1e-9, max_iter=500))
    assert res.status == "converged"
    assert np.all(res.x_final >= 0.0) and np.all(res.x_final <= 1.0)
    assert len(res.trace) == res.iters + 1


def test_pg_bb_qpb_matches_grid_oracle():
    for seed in range(3):
        inst, prob = gen_qpb(2, seed=seed)
        res = solve(prob, inst.x0)
        assert res.status == "converged"
        oracle = reference_small_oracle(inst)
        assert abs(res.f_val - oracle) <= 1e-4


def test_pg_bb_deterministic_traces():
    inst, prob = gen_npca(30, 15, seed=5)
    r1 = solve(prob, inst.x0)
    inst2, prob2 = gen_npca(30, 15, seed=5)
    r2 = solve(prob2, inst2.x0)
    assert r1.f_val == r2.f_val
    assert r1.feas == r2.feas and r1.stat == r2.stat
    assert r1.iters == r2.iters
    assert r1.trace == r2.trace  # bitwise identical


def test_pg_bb_nonmonotone_reference_never_increases(monkeypatch):
    inst, prob = gen_npca(40, 20, seed=1)
    for memory in (10, 5):  # the default, and one the loop must read at call time
        monkeypatch.setattr(solvers, "NM_MEMORY", memory)
        hs = [row[0] for row in solve(prob, inst.x0).trace]
        refs = [max(hs[max(0, k - memory + 1):k + 1]) for k in range(len(hs))]
        assert all(refs[k + 1] <= refs[k] + 1e-12 for k in range(len(refs) - 1))


def test_pg_bb_trace_length_and_converged_invariant():
    inst, prob = gen_qpb(20, seed=7)
    cfg = SolverConfig()
    res = solve(prob, inst.x0, cfg)
    assert res.status == "converged"
    assert len(res.trace) == res.iters + 1
    assert res.stat <= cfg.tol_stat and res.feas <= cfg.tol_feas


def test_pg_bb_line_search_failure_returns_best_iterate(monkeypatch):
    # an objective whose gradient is wrong (ascent direction) stalls the
    # armijo test immediately
    domain = Box([-1.0], [1.0])
    cmap = empty_constraint_map(1)
    amap = build_aq(domain, cmap, sigma=1.0)
    prob = PenaltyProblem(
        f_value=lambda x: float(x[0]),
        f_grad=lambda x: np.array([-1.0]),  # deliberately reversed
        cmap=cmap, amap=amap, domain=domain, beta=0.0)
    monkeypatch.setattr(solvers, "MAX_BACKTRACKS", 5)
    res = solve(prob, np.array([0.5]), SolverConfig(max_iter=50))
    assert res.status == "line_search_failure"
    assert res.h_val <= 0.5 + 1e-12
    assert res.trace[-1][1:3] == (res.feas, res.stat)


@pytest.mark.parametrize("kwargs", [
    {"tol_stat": -1.0},
    {"tol_feas": 0.0},
    {"max_iter": -1},
    {"tol_stat": float("nan")},
    {"tol_feas": float("nan")},
    {"tol_stat": 0.0},
    {"max_iter": 0},
    {"tol_feas": float("-inf")},
    {"tol_stat": float("inf")},
    {"tol_feas": float("inf")},
    # a NaN cap never fired: fpca ran 4,059 iterations at max_iter=nan
    {"max_iter": float("nan")},
    {"max_iter": 2.5},
    {"max_iter": True},
])
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_solver_config_fields_and_fixed_step_check():
    # the Barzilai-Borwein step is the only rule: no fixed step to configure
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "tol_stat", "tol_feas", "max_iter"]
    for kwargs in ({"beta_schedule": "fixed"}, {"step_rule": "fixed"}, {"eta": 0.5}):
        with pytest.raises(TypeError):
            SolverConfig(**kwargs)


# ---------------------------------------------------------------- measures


def test_stationarity_measure_cases():
    prob = unconstrained_quadratic(2)
    assert stationarity_measure(prob, np.zeros(2)) == 0.0
    x = np.array([0.3, 0.0])
    expect = np.linalg.norm(x) / (1.0 + np.linalg.norm(x))
    assert stationarity_measure(prob, x) == pytest.approx(expect, rel=1e-12)


def test_feasibility_measure_cases():
    n = 2
    d = np.array([0.5, 0.0])
    cmap = ConstraintMap(
        p=1,
        value=lambda x: np.array([(x - d) @ (x - d) - 1.0]),
        jac_t_apply=lambda x, v: 2.0 * v[0] * (x - d),
        hess_apply=lambda x, lam, dd: 2.0 * lam[0] * dd,
    )
    domain = NormBall(n)
    amap = build_aq(domain, cmap, sigma=1.0)
    prob = PenaltyProblem(f_value=lambda x: 0.0, f_grad=lambda x: np.zeros(n),
                          cmap=cmap, amap=amap, domain=domain, beta=1.0)
    assert feasibility_measure(prob, np.zeros(2)) == pytest.approx(0.75)
    # scaling a point radially outside the ball leaves the measure unchanged
    x = np.array([2.0, 1.0])
    assert feasibility_measure(prob, x) == pytest.approx(
        feasibility_measure(prob, 5.0 * x))
    x_feas = d - np.array([1.0, 0.0])  # inside the ball, on the shifted sphere
    assert feasibility_measure(prob, x_feas) <= 1e-12


def test_reported_feasibility_is_at_the_iterate_measure_at_its_projection():
    # SolveResult.feas and the trace report ||c(x)||; feasibility_measure
    # reports ||c(P(x))||; stat is stationarity_measure's number
    inst, prob = gen_qpb(12, seed=3)
    res = solve(prob, inst.x0, SolverConfig(max_iter=5))
    x = res.x_final
    assert res.status == "max_iter"
    assert res.feas == float(np.linalg.norm(prob.cmap.value(x)))
    assert res.stat == stationarity_measure(prob, x)
    assert res.trace[-1][1:3] == (res.feas, res.stat)
    assert feasibility_measure(prob, x) == float(
        np.linalg.norm(prob.cmap.value(prob.domain.project(x))))
    y = 3.0 * x / np.linalg.norm(x)  # off the ball: the two numbers part
    assert feasibility_measure(prob, y) == float(
        np.linalg.norm(prob.cmap.value(prob.domain.project(y))))
    assert feasibility_measure(prob, y) != float(np.linalg.norm(prob.cmap.value(y)))


def counted_solve(monkeypatch, prob, x0, cfg):
    """solve(prob, x0, cfg) with h_value, h_grad and A(x) counting their calls."""
    calls = {"h_value": 0, "h_grad": 0, "A": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in ("h_value", "h_grad"):
        monkeypatch.setattr(solvers, name, counting(name, getattr(solvers, name)))
    amap = dataclasses.replace(prob.amap, value=counting("A", prob.amap.value))
    return solve(dataclasses.replace(prob, amap=amap), x0, cfg), calls


@pytest.mark.parametrize("max_iter,status", [(5000, "converged"), (20, "max_iter")])
def test_result_reuses_the_final_point(max_iter, status, monkeypatch):
    # one gradient at x0 and one per step, none again for the returned point,
    # whose A(x) comes from the last h_value
    inst, prob = gen_npca(20, 8, seed=1)
    cfg = SolverConfig(max_iter=max_iter)
    plain = solve(prob, inst.x0, cfg)
    res, calls = counted_solve(monkeypatch, prob, inst.x0, cfg)
    assert res.status == status
    assert calls["h_grad"] == res.iters + 1
    assert calls["A"] == calls["h_value"]
    assert (res.f_val, res.feas, res.stat, res.trace) == (
        plain.f_val, plain.feas, plain.stat, plain.trace)


def exp_problem(sign):
    """exp(x) on the real line, with the gradient's sign flipped when sign < 0."""
    domain = Box([-np.inf], [np.inf])
    cmap = empty_constraint_map(1)
    return PenaltyProblem(
        f_value=lambda x: float(np.exp(x[0])),
        f_grad=lambda x: np.array([sign * np.exp(x[0])]),
        cmap=cmap, amap=build_aq(domain, cmap, sigma=1.0), domain=domain, beta=0.0)


def half_line_sqrt_problem():
    """sqrt(x) on [0, inf), whose gradient is infinite at the minimizer 0."""
    domain = Box([0.0], [np.inf])
    cmap = empty_constraint_map(1)
    return PenaltyProblem(
        f_value=lambda x: float(np.sqrt(x[0])), f_grad=lambda x: np.array([0.5 / np.sqrt(x[0])]),
        cmap=cmap, amap=build_aq(domain, cmap, sigma=1.0), domain=domain, beta=0.0)


def reversed_box_problem():
    """x on [-1, 1] with a reversed gradient: every Armijo test fails."""
    domain = Box([-1.0], [1.0])
    cmap = empty_constraint_map(1)
    return PenaltyProblem(
        f_value=lambda x: float(x[0]), f_grad=lambda x: np.array([-1.0]),
        cmap=cmap, amap=build_aq(domain, cmap, sigma=1.0), domain=domain, beta=0.0)


@pytest.mark.parametrize("make,x0,cfg,status,iters", [
    (reversed_box_problem, 0.5, SolverConfig(max_iter=50), "line_search_failure", 1),
    # exp(720) overflows at x0 itself
    (lambda: exp_problem(1.0), 720.0, SolverConfig(max_iter=10), "numerical_failure", 0),
    # the first step projects 0.01 onto 0, where the gradient is infinite
    (half_line_sqrt_problem, 0.01, SolverConfig(max_iter=10), "numerical_failure", 1),
])
def test_failure_exits_take_one_gradient_per_point(make, x0, cfg, status, iters,
                                                    monkeypatch):
    # a failed solve reads its outcome from the points the loop holds: no
    # second gradient and no second A(x) at the returned point
    monkeypatch.setattr(solvers, "MAX_BACKTRACKS", 5)
    x0 = np.array([x0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        plain = solve(make(), x0, cfg)
        res, calls = counted_solve(monkeypatch, make(), x0, cfg)
    assert (res.status, res.iters) == (status, iters)
    assert repr(res.trace[-1][1:3]) == repr((res.feas, res.stat))
    assert calls["h_grad"] == res.iters + 1
    assert calls["A"] == calls["h_value"]
    fields = ("status", "iters", "f_val", "h_val", "feas", "stat", "trace")
    assert repr([getattr(res, f) for f in fields]) == repr([getattr(plain, f) for f in fields])
    assert res.x_final.tobytes() == plain.x_final.tobytes()


@given(st.lists(st.floats(min_value=-1e150, max_value=1e150), max_size=60))
@settings(max_examples=60, deadline=None)
def test_norm_matches_numpy_bit_for_bit(values):
    v = np.array(values, dtype=float)
    assert _norm(v) == float(np.linalg.norm(v))


# ---------------------------------------------------------------- kkt residual


def test_kkt_residual_exact_point():
    prob = unconstrained_quadratic(3)
    assert kkt_residual_original(prob, np.zeros(3)) <= 1e-10


def test_kkt_residual_unconstrained_equals_grad_norm():
    prob = unconstrained_quadratic(3)
    x = np.array([1.0, -2.0, 0.5])
    assert kkt_residual_original(prob, x) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_kkt_residual_with_bound_multipliers():
    # minimize 0.5||x - a||^2 over the orthant; with a having negative parts
    # the solution pins those coordinates at zero with normal multipliers
    n = 4
    a = np.array([1.0, -2.0, 0.5, -0.1])
    domain = NonnegOrthant(n)
    cmap = empty_constraint_map(n)
    amap = build_aq(domain, cmap, sigma=1.0)
    prob = PenaltyProblem(f_value=lambda x: 0.5 * float((x - a) @ (x - a)),
                          f_grad=lambda x: x - a,
                          cmap=cmap, amap=amap, domain=domain, beta=0.0)
    x_star = np.maximum(a, 0.0)
    assert kkt_residual_original(prob, x_star) <= 1e-12


def test_kkt_residual_matches_exact_bounded_least_squares():
    # at a ball-boundary solution the cone has a single generator, so the
    # joint multiplier fit is an exactly solvable bounded least squares
    from scipy.optimize import lsq_linear

    inst, prob = gen_qpb(40, seed=0)
    res = solve(prob, inst.x0)
    x = res.x_final
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-9  # this seed exits on the boundary
    g0 = prob.f_grad(x)
    A = np.column_stack([prob.cmap.jac_columns(x), x])
    sol = lsq_linear(A, -g0, bounds=([-np.inf, 0.0], [np.inf, np.inf]))
    exact = np.linalg.norm(A @ sol.x + g0)
    mine = kkt_residual_original(prob, x)
    assert abs(mine - exact) <= 1e-10 * max(1.0, exact)


def test_kkt_residual_within_twice_stationarity_at_solutions():
    for seed in range(3):
        inst, prob = gen_npca(50, 25, seed=seed)
        res = solve(prob, inst.x0)
        assert res.status == "converged"
        kkt = kkt_residual_original(prob, res.x_final)
        assert kkt <= 2.0 * res.stat + 1e-8


# fpca's generic map transfers stationarity with a larger constant than the
# paper's 2: kkt / (2*stat + 1e-8) reads 14.9-15.6 at these six solves (README
# "One expected red").  The bound leaves room for rounding changes in the map.
# The BLAS thread count moves the iterates: with one thread, seed 0 at 1e-5
# ends in a line-search failure at its best iterate, ratio 15.31.
FPCA_TRANSFER_RATIO_MAX = 20.0


@pytest.mark.parametrize("tol", [1e-4, 1e-5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fpca_transfer_gap_stays_bounded(seed, tol):
    inst, prob = gen_fpca(100, 5, 3, seed=seed, beta=1.0)
    res = solve(prob, inst.x0, SolverConfig(tol_stat=tol, tol_feas=tol, max_iter=20000))
    assert res.status in ("converged", "line_search_failure")
    ratio = kkt_residual_original(prob, res.x_final) / (2.0 * res.stat + 1e-8)
    assert ratio <= FPCA_TRANSFER_RATIO_MAX, ratio
