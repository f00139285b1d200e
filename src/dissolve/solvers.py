"""Projection-based minimization of the penalty objective over the domain.

Two drivers: a fixed-step projected gradient iteration and a projected
gradient method with a long Barzilai-Borwein steplength safeguarded by a
non-monotone Armijo line search.  Both keep every iterate inside the domain
by projecting after each step.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .mappings import h_grad, h_value

__all__ = [
    "SolverConfig",
    "SolveResult",
    "stationarity_measure",
    "feasibility_measure",
    "projected_gradient",
    "pg_bb",
    "solve",
    "kkt_residual_original",
    "estimate_grad_lipschitz",
]

CONVERGED = "converged"
MAX_ITER = "max_iter"
LINE_SEARCH_FAILURE = "line_search_failure"
NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SolverConfig:
    tol_stat: float = 1e-6
    tol_feas: float = 1e-6
    max_iter: int = 5000
    step_rule: str = "bb_nonmonotone"  # or "fixed"
    eta: float | None = None           # fixed step; estimated from x0 when None
    bb_min: float = 1e-10
    bb_max: float = 1e10
    nm_memory: int = 10
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 50
    beta_schedule: str = "fixed"       # or "continuation"
    continuation_factor: float = 10.0
    stall_ratio: float = 0.1
    stall_window: int = 100
    # trials moving farther than this fraction of (1 + ||x||) are backtracked;
    # keeps iterates from clearing the barrier around the feasible region when
    # the penalty objective is unbounded below on a noncompact domain
    max_step_scale: float = 0.25

    def __post_init__(self):
        if self.tol_stat <= 0 or self.tol_feas <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if self.bb_min > self.bb_max:
            raise ValueError("bb bounds out of order")
        if not 0 < self.armijo_c < 1 or not 0 < self.backtrack_factor < 1:
            raise ValueError("armijo_c and backtrack_factor must be in (0, 1)")


@dataclass
class SolveResult:
    x_final: np.ndarray
    f_val: float
    h_val: float
    feas: float
    stat: float
    iters: int
    wall_time_s: float
    status: str
    trace: list = field(default_factory=list)  # rows (h, feas, stat, step)


def _norm(v):
    """Euclidean norm of a 1-D array, bit for bit what np.linalg.norm gives."""
    return math.sqrt(float(v @ v))


def _pg_residual(prob, x, g):
    """Normalized projected-gradient residual ||x - P(x - g)|| / (1 + ||x||)."""
    return _norm(x - prob.domain.project(x - g)) / (1.0 + _norm(x))


def stationarity_measure(prob, x):
    """Normalized projected-gradient residual ||x - P(x - grad h(x))|| / (1 + ||x||).

    The solvers report the same number as `SolveResult.stat` and in the trace.
    """
    x = np.asarray(x, dtype=float)
    return _pg_residual(prob, x, h_grad(prob, x))


def feasibility_measure(prob, x):
    """Equality violation ||c(P(x))|| at the projection of x onto the domain.

    `SolveResult.feas` and the trace report ||c(x)|| at the iterate itself;
    the two agree on the domain, where every iterate lies.
    """
    xp = prob.domain.project(np.asarray(x, dtype=float))
    return _norm(prob.cmap.value(xp))


def _finite(hval, g):
    return math.isfinite(hval) and np.isfinite(g).all()


def _metrics(prob, x, g):
    """(stationarity, ||c(x)||) at an iterate x whose gradient is g; c(x)
    comes from the problem's point record when it holds x."""
    rec = prob.point(x)
    c = prob.cmap.value(x) if rec is None else rec[1]
    return _pg_residual(prob, x, g), _norm(c)


def _result(prob, x, hval, iters, t0, status, trace, metrics=None):
    """The outcome at x.  (stat, feas) is `metrics` when the caller has it,
    else evaluated at x when x is finite; A(x) for f(A(x)) comes from the
    point record when it holds x."""
    if metrics is None:
        metrics = (_metrics(prob, x, h_grad(prob, x)) if np.isfinite(x).all()
                   else (float("nan"), float("nan")))
    stat, feas = metrics
    rec = prob.point(x)
    a = prob.amap.value(x) if rec is None else rec[0]
    return SolveResult(
        x_final=x,
        f_val=float(prob.f_value(a)),
        h_val=float(hval),
        feas=feas,
        stat=stat,
        iters=iters,
        wall_time_s=time.perf_counter() - t0,
        status=status,
        trace=trace,
    )


def estimate_grad_lipschitz(prob, x0, iters=20):
    """Power iteration on a finite-difference Hessian-vector operator of h at x0."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    v = 1.0 + np.arange(n) / max(n, 1)
    v /= np.linalg.norm(v)
    eps = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x0))
    L = 1.0
    for _ in range(iters):
        w = (h_grad(prob, x0 + eps * v) - h_grad(prob, x0 - eps * v)) / (2.0 * eps)
        L = float(np.linalg.norm(w))
        if L <= 1e-12 or not np.isfinite(L):
            return max(L, 1e-12)
        v = w / L
    return L


def projected_gradient(prob, x0, config=None):
    """Fixed-step iteration x <- P(x - eta * grad h(x))."""
    config = config or SolverConfig(step_rule="fixed")
    if config.step_rule != "fixed":
        raise ValueError("projected_gradient runs the fixed step rule")
    t0 = time.perf_counter()
    x = prob.domain.project(np.asarray(x0, dtype=float))
    eta = config.eta if config.eta is not None else 1.0 / estimate_grad_lipschitz(prob, x)
    if eta <= 0:
        raise ValueError("step size must be positive")

    trace = []
    hval = h_value(prob, x)
    g = h_grad(prob, x)
    if not _finite(hval, g):
        trace.append((hval, float("nan"), float("nan"), 0.0))
        return _result(prob, x, hval, 0, t0, NUMERICAL_FAILURE, trace)

    k = 0
    while True:
        stat, feas = _metrics(prob, x, g)
        trace.append((hval, feas, stat, eta if k else 0.0))
        if stat <= config.tol_stat and feas <= config.tol_feas:
            return _result(prob, x, hval, k, t0, CONVERGED, trace, metrics=(stat, feas))
        if k >= config.max_iter:
            return _result(prob, x, hval, k, t0, MAX_ITER, trace, metrics=(stat, feas))
        x = prob.domain.project(x - eta * g)
        hval = h_value(prob, x)
        g = h_grad(prob, x)
        if not _finite(hval, g):
            trace.append((hval, float("nan"), float("nan"), eta))
            return _result(prob, x, hval, k + 1, t0, NUMERICAL_FAILURE, trace)
        k += 1


def pg_bb(prob, x0, config=None):
    """Projected gradient with BB steplength and non-monotone Armijo search."""
    config = config or SolverConfig()
    t0 = time.perf_counter()
    live = prob
    x = live.domain.project(np.asarray(x0, dtype=float))

    hval = h_value(live, x)
    g = h_grad(live, x)
    if not _finite(hval, g):
        return _result(live, x, hval, 0, t0, NUMERICAL_FAILURE,
                       [(hval, float("nan"), float("nan"), 0.0)])

    memory = deque([hval], maxlen=config.nm_memory)
    # first trial displacement is capped at a fraction of the point scale:
    # the penalty objective can be unbounded below far from the feasible set,
    # and an uncapped first step can clear the barrier around it
    alpha = min(1.0,
                1.0 / max(float(np.abs(g).max()), 1e-16),
                0.1 * (1.0 + _norm(x)) / max(_norm(g), 1e-16))
    trace = []
    best_h, best_x = hval, x.copy()
    feas_marker = None
    accepted_step = 0.0
    k = 0

    while True:
        stat, feas = _metrics(live, x, g)
        trace.append((hval, feas, stat, accepted_step))
        if stat <= config.tol_stat and feas <= config.tol_feas:
            return _result(live, x, hval, k, t0, CONVERGED, trace, metrics=(stat, feas))
        if k >= config.max_iter:
            return _result(live, x, hval, k, t0, MAX_ITER, trace, metrics=(stat, feas))

        # optional continuation: bump beta when feasibility stalls
        if config.beta_schedule == "continuation" and k % config.stall_window == 0:
            if feas_marker is not None and feas > (1.0 - config.stall_ratio) * feas_marker \
                    and feas > config.tol_feas:
                live = live.with_beta(live.beta * config.continuation_factor)
                hval = h_value(live, x)
                g = h_grad(live, x)
                memory = deque([hval], maxlen=config.nm_memory)
            feas_marker = feas

        h_ref = max(memory)
        a = float(min(max(alpha, config.bb_min), config.bb_max))
        step_cap = config.max_step_scale * (1.0 + _norm(x))
        accepted = False
        for _ in range(config.max_backtracks + 1):
            x_trial = live.domain.project(x - a * g)
            d = x_trial - x
            if _norm(d) <= step_cap:
                h_trial = h_value(live, x_trial)
                if math.isfinite(h_trial) and h_trial <= h_ref + config.armijo_c * float(g @ d):
                    accepted = True
                    break
            a *= config.backtrack_factor
        if not accepted:
            trace.append((best_h, feasibility_measure(live, best_x),
                          stationarity_measure(live, best_x), a))
            return _result(live, best_x, best_h, k + 1, t0, LINE_SEARCH_FAILURE, trace)

        g_new = h_grad(live, x_trial)
        if not np.isfinite(g_new).all():
            trace.append((h_trial, float("nan"), float("nan"), a))
            return _result(live, x_trial, h_trial, k + 1, t0, NUMERICAL_FAILURE, trace)
        s = d
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            alpha = float(s @ s) / sy
        else:
            # nonpositive curvature: fall back to the local spectral scale
            # rather than bb_max, which would allow barrier-clearing steps
            ny = _norm(y)
            alpha = min(config.bb_max, _norm(s) / ny if ny > 0.0 else config.bb_max)
        x, g, hval = x_trial, g_new, h_trial
        accepted_step = a
        memory.append(hval)
        if hval < best_h:
            best_h, best_x = hval, x.copy()
        k += 1


def solve(prob, x0, config=None):
    """Dispatch on config.step_rule."""
    config = config or SolverConfig()
    if config.step_rule == "fixed":
        return projected_gradient(prob, x0, config)
    return pg_bb(prob, x0, config)


def kkt_residual_original(prob, x, rounds=100, tol_change=1e-12):
    """Upper bound on dist(0, grad f(x) + range(G(x)) + N(x)).

    Alternates a least-squares fit of the equality multipliers with a closed
    form projection of the remaining residual onto the normal cone, and
    returns the best value reached.
    """
    x = np.asarray(x, dtype=float)
    g0 = np.asarray(prob.f_grad(x), dtype=float)
    G = prob.cmap.jac_matrix(x)
    p = prob.cmap.p
    nu = np.zeros_like(g0)
    prev = np.inf
    res = float(np.linalg.norm(g0))
    for _ in range(rounds):
        if p:
            lam = np.linalg.lstsq(G, -(g0 + nu), rcond=None)[0]
            t = g0 + G @ lam
        else:
            t = g0
        nu = prob.domain.normal_cone_project(x, -t)
        res = float(np.linalg.norm(t + nu))
        if abs(prev - res) < tol_change:
            break
        prev = res
    return res
