"""Projection-based minimization of the penalty objective over the domain.

One projected gradient method, `solve`, with two step rules: a fixed step,
and a long Barzilai-Borwein steplength safeguarded by a step cap and a
non-monotone Armijo line search.  Every iterate stays inside the domain by
projecting after each step.
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
    "solve",
    "kkt_residual_original",
    "estimate_grad_lipschitz",
]

CONVERGED = "converged"
MAX_ITER = "max_iter"
LINE_SEARCH_FAILURE = "line_search_failure"
NUMERICAL_FAILURE = "numerical_failure"

BB_MIN, BB_MAX = 1e-10, 1e10
NM_MEMORY = 10
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50
# trials moving farther than this fraction of (1 + ||x||) are backtracked;
# keeps iterates from clearing the barrier around the feasible region when
# the penalty objective is unbounded below on a noncompact domain
MAX_STEP_SCALE = 0.25
LIPSCHITZ_ITERS = 20
KKT_ROUNDS = 100
KKT_TOL_CHANGE = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    tol_stat: float = 1e-6
    tol_feas: float = 1e-6
    max_iter: int = 5000
    step_rule: str = "bb_nonmonotone"  # or "fixed"
    eta: float | None = None           # fixed step; estimated from x0 when None

    def __post_init__(self):
        if not (0 < self.tol_stat < math.inf and 0 < self.tol_feas < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if self.step_rule not in ("fixed", "bb_nonmonotone"):
            raise ValueError(f"unknown step_rule {self.step_rule!r}")


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


def _pg_residual(prob, x, g, nx):
    """Normalized projected-gradient residual ||x - P(x - g)|| / (1 + nx),
    nx = ||x||."""
    return _norm(x - prob.domain.project(x - g)) / (1.0 + nx)


def stationarity_measure(prob, x):
    """Normalized projected-gradient residual ||x - P(x - grad h(x))|| / (1 + ||x||).

    The solvers report the same number as `SolveResult.stat` and in the trace.
    """
    x = np.asarray(x, dtype=float)
    return _pg_residual(prob, x, h_grad(prob, x), _norm(x))


def feasibility_measure(prob, x):
    """Equality violation ||c(P(x))|| at the projection of x onto the domain.

    `SolveResult.feas` and the trace report ||c(x)|| at the iterate itself;
    the two agree on the domain, where every iterate lies.
    """
    xp = prob.domain.project(np.asarray(x, dtype=float))
    return _norm(prob.cmap.value(xp))


def _finite(hval, g):
    return math.isfinite(hval) and np.isfinite(g).all()


def _metrics(prob, x, g, point, nx):
    """(stationarity, ||c(x)||) at an iterate x of norm nx whose gradient is
    g and whose point `h_value` filled."""
    return _pg_residual(prob, x, g, nx), _norm(point["c"])


def _result(prob, x, point, g, hval, iters, t0, status, trace, metrics=None):
    """The outcome at x, from the loop's gradient g and `point` at x.
    (stat, feas) is `metrics` when the caller has it, else evaluated from g
    and `point` when x is finite; stat is NaN when g is not finite, since
    some projections reject a non-finite point.  f(A(x)) is the one
    `h_value` stored."""
    if metrics is None:
        if not np.isfinite(x).all():
            metrics = (float("nan"), float("nan"))
        elif not np.isfinite(g).all():
            metrics = (float("nan"), _norm(point["c"]))
        else:
            metrics = _metrics(prob, x, g, point, _norm(x))
    stat, feas = metrics
    return SolveResult(x_final=x, f_val=float(point["fa"]), h_val=float(hval),
                       feas=feas, stat=stat, iters=iters,
                       wall_time_s=time.perf_counter() - t0, status=status, trace=trace)


def _check_step(a):
    if not 0 < a < math.inf:
        raise ValueError("step size must be positive and finite")


def estimate_grad_lipschitz(prob, x0):
    """LIPSCHITZ_ITERS power steps on a finite-difference Hessian operator of h at x0."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    v = 1.0 + np.arange(n) / max(n, 1)
    v /= np.linalg.norm(v)
    eps = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x0))
    L = 1.0
    for _ in range(LIPSCHITZ_ITERS):
        w = (h_grad(prob, x0 + eps * v) - h_grad(prob, x0 - eps * v)) / (2.0 * eps)
        L = float(np.linalg.norm(w))
        if L <= 1e-12 or not np.isfinite(L):
            return max(L, 1e-12)
        v = w / L
    return L


def _first_step(g, nx):
    """The BB rule's first trial step at an iterate of norm nx and gradient g.
    Its displacement is capped at a fraction of the point scale: the penalty
    objective can be unbounded below far from the feasible set, and an
    uncapped first step can clear the barrier around it."""
    return min(1.0,
               1.0 / max(float(np.abs(g).max()), 1e-16),
               0.1 * (1.0 + nx) / max(_norm(g), 1e-16))


def _backtrack(prob, x, g, alpha, h_ref, step_cap, trial):
    """Halve the step from alpha, clipped to [BB_MIN, BB_MAX], until the trial
    P(x - a g) moves at most step_cap and passes the Armijo test against
    h_ref, `h_value` filling `trial` there.  Returns (a, trial point, its
    displacement d, d.d, its h), or the last step and four Nones once
    MAX_BACKTRACKS halvings have failed."""
    a = float(min(max(alpha, BB_MIN), BB_MAX))
    for _ in range(MAX_BACKTRACKS + 1):
        x_trial = prob.domain.project(x - a * g)
        d = x_trial - x
        dd = float(d @ d)
        if math.sqrt(dd) <= step_cap:
            h_trial = h_value(prob, x_trial, trial)
            if math.isfinite(h_trial) and h_trial <= h_ref + ARMIJO_C * float(g @ d):
                return a, x_trial, d, dd, h_trial
        a *= BACKTRACK_FACTOR
    return a, None, None, None, None


def solve(prob, x0, config=None):
    """Projected gradient iteration x <- P(x - a * grad h(x)).

    The step `a` is config.eta (estimated from x0 when None) under the fixed
    rule; under "bb_nonmonotone" it is a clipped BB step, backtracked until
    the trial moves at most MAX_STEP_SCALE * (1 + ||x||) and passes a
    non-monotone Armijo test over the last NM_MEMORY values of h.  When
    MAX_BACKTRACKS halvings fail, the search restarts once from the first
    step's rule with h(x) as the only memory, the safeguard of spectral
    projected gradient (Birgin, Martinez & Raydan, SIAM J. Optim. 2000);
    only a failed restart ends the solve in a line-search failure.  The loop
    carries the point dict `h_value` fills for the iterate, the trial and the
    best iterate, and every exit reads its numbers from those points and the
    gradient it holds.  Each iterate's norm and each trial's d.d are computed
    once and shared by the residual, the step cap and the BB step.
    """
    config = config or SolverConfig()
    bb = config.step_rule == "bb_nonmonotone"
    t0 = time.perf_counter()
    x = prob.domain.project(np.asarray(x0, dtype=float))
    if not bb:
        a = config.eta if config.eta is not None else 1.0 / estimate_grad_lipschitz(prob, x)
        _check_step(a)

    pt = {}
    hval = h_value(prob, x, pt)
    g = h_grad(prob, x, pt)
    if not _finite(hval, g):
        return _result(prob, x, pt, g, hval, 0, t0, NUMERICAL_FAILURE,
                       [(hval, float("nan"), float("nan"), 0.0)])

    nx = _norm(x)
    if bb:
        memory = deque([hval], maxlen=NM_MEMORY)
        alpha = _first_step(g, nx)
        # projections return arrays the loop never mutates, so the best
        # point is kept without a copy
        best_h, best_x, best_pt = hval, x, pt
    trace = []
    accepted_step = 0.0
    k = 0

    while True:
        stat, feas = _metrics(prob, x, g, pt, nx)
        trace.append((hval, feas, stat, accepted_step))
        if stat <= config.tol_stat and feas <= config.tol_feas:
            return _result(prob, x, pt, g, hval, k, t0, CONVERGED, trace, (stat, feas))
        if k >= config.max_iter:
            return _result(prob, x, pt, g, hval, k, t0, MAX_ITER, trace, (stat, feas))

        trial = {}
        if bb:
            step_cap = MAX_STEP_SCALE * (1.0 + nx)
            a, x_trial, d, dd, h_trial = _backtrack(prob, x, g, alpha, max(memory),
                                                    step_cap, trial)
            if x_trial is None:
                memory = deque([hval], maxlen=NM_MEMORY)
                a, x_trial, d, dd, h_trial = _backtrack(prob, x, g, _first_step(g, nx),
                                                        hval, step_cap, trial)
            if x_trial is None:
                g_best = h_grad(prob, best_x, best_pt)
                stat, feas = _metrics(prob, best_x, g_best, best_pt, _norm(best_x))
                trace.append((best_h, feas, stat, a))
                return _result(prob, best_x, best_pt, g_best, best_h, k + 1, t0,
                               LINE_SEARCH_FAILURE, trace, (stat, feas))
        else:
            x_trial = prob.domain.project(x - a * g)
            h_trial = h_value(prob, x_trial, trial)

        g_new = h_grad(prob, x_trial, trial)
        if not _finite(h_trial, g_new):
            trace.append((h_trial, float("nan"), float("nan"), a))
            return _result(prob, x_trial, trial, g_new, h_trial, k + 1, t0,
                           NUMERICAL_FAILURE, trace)
        if bb:
            y = g_new - g
            sy = float(d @ y)
            if sy > 0.0:
                alpha = dd / sy
            else:
                # nonpositive curvature: fall back to the local spectral scale
                # rather than BB_MAX, which would allow barrier-clearing steps
                ny = _norm(y)
                alpha = min(BB_MAX, math.sqrt(dd) / ny if ny > 0.0 else BB_MAX)
            memory.append(h_trial)
            if h_trial < best_h:
                best_h, best_x, best_pt = h_trial, x_trial, trial
        x, g, hval, pt, nx = x_trial, g_new, h_trial, trial, _norm(x_trial)
        accepted_step = a
        k += 1


def kkt_residual_original(prob, x):
    """Upper bound on dist(0, grad f(x) + range(G(x)) + N(x)).

    Alternates a least-squares fit of the equality multipliers with a closed
    form projection of the remaining residual onto the normal cone, at most
    KKT_ROUNDS times and until the residual moves by less than
    KKT_TOL_CHANGE, and returns the last value reached.
    """
    x = np.asarray(x, dtype=float)
    g0 = np.asarray(prob.f_grad(x), dtype=float)
    G = prob.cmap.jac_matrix(x)
    p = prob.cmap.p
    nu = np.zeros_like(g0)
    prev = np.inf
    res = float(np.linalg.norm(g0))
    for _ in range(KKT_ROUNDS):
        if p:
            lam = np.linalg.lstsq(G, -(g0 + nu), rcond=None)[0]
            t = g0 + G @ lam
        else:
            t = g0
        nu = prob.domain.normal_cone_project(x, -t)
        res = float(np.linalg.norm(t + nu))
        if abs(prev - res) < KKT_TOL_CHANGE:
            break
        prev = res
    return res
