"""Constraint maps, constraint-dissolving mappings, and the penalty objective.

The penalty objective is h(x) = f(A(x)) + (beta/2) * ||c(x)||^2, where A is a
smooth map that fixes the feasible set {x in X : c(x) = 0} pointwise and whose
transposed Jacobian annihilates range(grad c) there.  The generic construction
is

    A(x) = x - Q(x) G(x) (G(x)^T Q(x) G(x) + sigma ||c(x)||^2 I)^+ c(x),

with G(x) the n-by-p matrix of constraint gradients and Q the domain's
projective mapping.  The p-by-p core is formed densely, so p is assumed
small, and pseudo-inverted by `_core_pinv`: np.linalg.pinv's steps with the
SVD cutoff PINV_RCOND on one SVD call, bit-identical to pinv, raising
LinAlgError on a non-finite core.  A build applies Q(x) to all p columns of
G in one `_q_cols` call and adds the map's prebuilt p-by-p identity.

A build runs over an (N, n) stack of points, and one point is the stack of
one.  Every constraint map takes stacks (see `ConstraintMap`; a one-point
map is wrapped once, when it is built), so c and G come from one `value`
and one `jac_columns` call over the stack, and the error-bound probe's G c
from one `jac_t_apply` call.  Every product over the stack is a matmul
whose slices keep the strides of the one-point product, and the N cores
take one stacked SVD, so row i is bit-identical to a build at x_i alone.
`h_value(prob, X, point)` on an (N, n) stack returns the N penalty values
from one build and fills `point` with the stacked parts, and
`point_row(point, i)` hands out row i's one-point dict, bit for bit what
`h_value(prob, x_i, {})` fills, for every map.  grad_check sends each
gradient point in the stack of its finite-difference stencil and takes
`h_grad` at it from its row, so a wrapper of `h_value` sees each stack as
one call and no point is built twice.

A vjp runs over an n-by-m block of directions in the same way, and one
direction is the block of one: gradA(x) W, column j bit-identical to the
vjp of W[:, j] alone.  The generic map applies Q and the derivative kernel
to the block through the domain's `_q_cols` and `_dq_form_cols`, and the
constraint Hessians through one `hess_apply` call over a stack of rows;
its products with G and the core are stacked matrix-vector products, each
slice on the one-direction BLAS path.

Work done at one point lives in a dict the caller carries for that point,
never in the map or the problem.  `A.value(x, point)` and `A.vjp(x, w,
point)` store the map's x-only parts there under "build" and reuse them, so
A(x) and any number of vjps at x share one build: the generic map's core,
or x^T x for the closed-form sphere map.  `h_value(prob, x, point)` clears
the dict and fills it with A(x), f(A(x)), c(x), c(x)^T c(x) and the build;
`h_grad(prob, x, point)` reads them instead of evaluating them again, and
the solver reads the feasibility ||c(x)|| from c(x)^T c(x).  c(x) and G(x) c(x)
come from the build only when the map was built over the problem's
constraint map; otherwise the constraint map is called.  Without a point,
every call builds afresh.  The solve loop holds one dict per iterate, trial
and best point.  The solvers call `h_value` and `h_grad` by name for every
point they evaluate, so wrappers that replace those names see each one.
Closed-form objectives may memoize as well: npca's `f` and its gradient
share B^T x for the last point, finite or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sets import ConvexSet

PINV_RCOND = 1e-12  # relative SVD cutoff for the dissolving core

__all__ = [
    "ConstraintMap",
    "DissolvingMap",
    "PenaltyProblem",
    "empty_constraint_map",
    "build_aq",
    "sphere_nonneg_map",
    "h_value",
    "point_row",
    "h_grad",
]


@dataclass(frozen=True)
class ConstraintMap:
    """Smooth equality constraints c : R^n -> R^p with Jacobian products.

    Every callback takes one point x (n,) or an (N, n) stack X of points:
    value(X) = c(x), or the (N, p) stack of c(x_i); jac_t_apply(X, V) =
    G(x) v for one v (p,) (columns of G are constraint gradients), or the
    (N, n) stack of G(x_i) v_i for an (N, p) V; jac_columns(X) = the n-by-p
    G(x), or the (N, n, p) stack, column j being jac_t_apply(x, e_j) bit for
    bit.  hess_apply(x, lam, d) = sum_i lam_i Hess(c_i)(x) d at one x, for
    one (lam, d) or for an (m, p) stack of multipliers with an (m, n) stack
    of directions, as the (m, n) stack (`build_aq` needs it when p >= 1).
    Row i of every stacked result is the one-row call's, bit for bit.

    Passing jac_columns declares that contract.  A map built without it is
    a one-point map: its callbacks take one point (and one lam and d), and
    the constructor wraps value, jac_t_apply and hess_apply once to loop
    over the rows of a stack, and derives jac_columns from jac_t_apply on
    the unit vectors.  A `dataclasses.replace` of the map carries that
    jac_columns, so nothing is wrapped twice: a callback passed to it must
    take stacks, and a wrapper of a callback sees one call per stack.  The
    library never calls jac_apply(x, d) = G(x)^T d: only the benchmark's
    tracer and qpb-l4 workload pass it; ROADMAP item 4 drops it.
    """

    p: int
    value: Callable[[np.ndarray], np.ndarray]
    jac_t_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_apply: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    hess_apply: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    jac_columns: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.jac_columns is not None:
            return
        p, value, jac_t, hess = self.p, self.value, self.jac_t_apply, self.hess_apply
        eye = np.eye(p)

        def columns(x):
            G = np.empty((x.size, p))
            for j in range(p):
                G[:, j] = jac_t(x, eye[j])
            return G

        rowwise = {
            "value": lambda X: (value(X) if np.ndim(X) == 1
                                else _per_row(value, (len(X), p), X)),
            "jac_t_apply": lambda X, V: (jac_t(X, V) if np.ndim(X) == 1
                                         else _per_row(jac_t, X.shape, X, V)),
            "jac_columns": lambda X: (columns(X) if np.ndim(X) == 1
                                      else _per_row(columns, X.shape + (p,), X)),
        }
        if hess is not None:
            rowwise["hess_apply"] = lambda x, Lam, D: (
                hess(x, Lam, D) if np.ndim(D) == 1
                else _per_row(lambda lam, d: hess(x, lam, d), D.shape, Lam, D))
        for name, fn in rowwise.items():
            object.__setattr__(self, name, fn)


def _per_row(fn, shape, *stacks):
    # the stack of fn's per-point results, one call per row
    out = np.empty(shape)
    for i in range(shape[0]):
        out[i] = fn(*(a[i] for a in stacks))
    return out


def empty_constraint_map(n):
    """Constraint map with p = 0 (no equality constraints)."""
    return ConstraintMap(
        p=0,
        value=lambda X: np.zeros(np.shape(X)[:-1] + (0,)),
        jac_t_apply=lambda X, V: np.zeros(np.shape(X)),
        hess_apply=lambda x, Lam, D: np.zeros(np.shape(D)),
        jac_columns=lambda X: np.zeros(np.shape(X) + (0,)),
    )


@dataclass(frozen=True)
class DissolvingMap:
    """A(x) plus its transposed-Jacobian-vector product vjp(x, w) = gradA(x) w.

    Both are called as value(x, point=None) and vjp(x, w, point=None).
    `point` is a dict the caller carries for one x and one map; the map may
    store work done at x there and reuse it on later calls with the same
    dict.  Every value also takes an (N, n) stack of points and returns the
    (N, n) stack of A(x_i), row i bit for bit A(x_i) alone; the generic map
    builds the stack at once.  Every vjp takes one direction w (n,) or an
    n-by-m block W of directions, one direction being the block of one.
    For a block it returns gradA(x) W as a C-ordered n-by-m array whose
    column j is vjp(x, W[:, j]) bit for bit, the column taken as a
    contiguous vector.  A map stores its x-only work in the point under
    "build" as a tuple of arrays whose leading axis runs over the points,
    one point being the stack of one, so each part's [i:i + 1] is row i's
    build (`point_row`): the generic map its core build, the closed-form
    sphere map x^T x; the p = 0 identity map stores nothing.  Every vjp is
    exact.
    """

    value: Callable[..., np.ndarray]
    vjp: Callable[..., np.ndarray]
    mode: str  # closed_form | generic_analytic; the library never reads it
    sigma: Optional[float] = None


def _check_beta(beta):
    if not 0 <= beta < np.inf:
        raise ValueError(f"beta must be finite and nonnegative; got {beta}")


@dataclass(frozen=True)
class PenaltyProblem:
    """Objective f, constraints c, domain X, dissolving map A, and beta."""

    f_value: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    cmap: ConstraintMap
    amap: DissolvingMap
    domain: ConvexSet
    beta: float

    def __post_init__(self):
        _check_beta(self.beta)

    @property
    def n(self):
        return self.domain.n


def _core_pinv(core):
    """np.linalg.pinv(core, rcond=PINV_RCOND), bit for bit, for one p-by-p
    core or an (N, p, p) stack: pinv's own steps on one SVD call.  A NaN or
    infinite entry anywhere raises LinAlgError before LAPACK sees it, since
    an infinite entry can keep the SVD from returning."""
    if not np.isfinite(core).all():
        raise np.linalg.LinAlgError("dissolving core has a NaN or infinite entry")
    u, s, vt = np.linalg.svd(core, full_matrices=False)
    large = s > PINV_RCOND * s.max(axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return vt.swapaxes(-1, -2) @ (s[..., None] * u.swapaxes(-1, -2))


def _aq_value_parts(domain, cmap, sigma, x, eye):
    """The generic map's parts at each row of the (N, n) stack x: c (N, p),
    G (N, n, p), Q G, the core pseudo-inverses (N, p, p) and u (N, p).  `eye`
    is the p-by-p identity, which a map builds once.  Every product is a
    stacked matmul, whose slices take the BLAS path of the one-point
    product, so row i equals a build at x_i alone bit for bit."""
    x = np.asarray(x, dtype=float)
    c = cmap.value(x)
    G = cmap.jac_columns(x)
    QG = domain._q_cols(x, G)
    GtQG = G.swapaxes(-1, -2) @ QG
    cc = c[:, None, :] @ c[:, :, None]  # c_i . c_i, as c @ c takes it
    core = 0.5 * (GtQG + GtQG.swapaxes(-1, -2)) + sigma * cc * eye
    core_pinv = _core_pinv(core)
    u = (core_pinv @ c[:, :, None])[:, :, 0]
    return c, G, QG, core_pinv, u


def build_aq(domain, cmap, sigma=1.0, mode="generic_analytic"):
    """The generic dissolving map for (domain, cmap), with the analytic vjp
    from Q, DQ and cmap.hess_apply, which a map with p >= 1 must supply.
    "generic_analytic" is the only mode; with p = 0 the map is the identity."""
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive; got {sigma}")
    if mode != "generic_analytic":
        raise ValueError(f"mode must be 'generic_analytic'; got {mode!r}")
    if cmap.p == 0:
        return DissolvingMap(value=lambda x, point=None: np.asarray(x, dtype=float).copy(),
                             vjp=lambda x, w, point=None: np.asarray(w, dtype=float).copy(),
                             mode="closed_form", sigma=float(sigma))
    if cmap.hess_apply is None:
        raise ValueError("dissolving a constraint map needs its hess_apply")
    amap = _GenericMap(domain, cmap, sigma)
    return DissolvingMap(value=amap.value, vjp=amap.vjp, mode="generic_analytic",
                         sigma=float(sigma))


class _GenericMap:
    """The generic A(x) and its analytic vjp; it keeps no state of its own.

    `value` takes one point (n,) or an (N, n) stack of points and builds
    over the stack either way, one point being the stack of one; `vjp` takes
    one point and a block of directions, one direction being the block of
    one, and applies Q, the derivative kernel and the constraint Hessians
    to the whole block: two `_q_cols` calls, one `_dq_form_cols` call over
    the 2m columns of its two `dq_form` terms, and one `hess_apply` call
    over the 3m rows of its three Hessian terms.  Work done at x lives in
    the `point` dict the caller carries for that x: the stacked value parts
    (c, G, QG, core_pinv, u) under "build", with the constraint map they
    were built over under "built_over", and, once a vjp has run there, the
    w-free vjp parts (the point's G, core_pinv and u, then G u, Q(x) G u,
    G(x) c) under "build_vjp".  Without a point every call builds afresh.
    """

    def __init__(self, domain, cmap, sigma):
        self.domain = domain
        self.cmap = cmap
        self.sigma = sigma
        self.eye = np.eye(cmap.p)
        self.eye.flags.writeable = False

    def _parts(self, x, point):
        if "build" not in point:
            point["build"] = _aq_value_parts(self.domain, self.cmap, self.sigma,
                                             x.reshape(-1, x.shape[-1]), self.eye)
            point["built_over"] = self.cmap
        return point["build"]

    def value(self, x, point=None):
        x = np.asarray(x, dtype=float)
        _, _, QG, _, u = self._parts(x, {} if point is None else point)
        return x - (QG @ u[:, :, None]).reshape(x.shape)

    def vjp(self, x, w, point=None):
        # product rule across Q G, the pseudo-inverted core, and c; exact.
        # The m directions are the columns of W, contiguous, and R = W^T
        # holds them as rows; each term is one call or one stacked product
        # over all of them, whose slices take the one-direction path
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        point = {} if point is None else point
        domain = self.domain
        if "build_vjp" not in point:
            c, G, _, core_pinv, u = (part[0] for part in self._parts(x, point))
            Gu = G @ u
            point["build_vjp"] = (G, core_pinv, u, Gu, domain._q(x, Gu),
                                  self.cmap.jac_t_apply(x, c))
        G, core_pinv, u, Gu, QGu, Gc = point["build_vjp"]
        W = np.asfortranarray(w.reshape(x.size, -1))
        R = W.T
        m, n = R.shape
        # the rows of the three Hessian terms' multipliers and directions:
        # (u, Q w_j), (a_j, Q G u), (u, Q G a_j)
        Lam, D = np.empty((3 * m, u.size)), np.empty((3 * m, n))
        D[:m] = domain._q_cols(x, W).T
        A = core_pinv @ (G.T @ D[:m, :, None])
        GA = (G @ A)[:, :, 0]
        D[m:2 * m] = QGu
        D[2 * m:] = domain._q_cols(x, GA.T).T
        Lam[:m] = Lam[2 * m:] = u
        Lam[m:2 * m] = A[:, :, 0]
        au = (A.swapaxes(-1, -2) @ u[:, None])[:, 0, 0]  # a_j . u, as a @ u takes it
        DQ = domain._dq_form_cols(x, Gu, np.concatenate([R, GA]).T).T
        H = self.cmap.hess_apply(x, Lam, D)
        grad_phi = (DQ[:m]
                    + H[:m]
                    + GA
                    - H[m:2 * m]
                    - DQ[m:]
                    - H[2 * m:]
                    - (2.0 * self.sigma * au)[:, None] * Gc)
        return np.ascontiguousarray((R - grad_phi).T).reshape(w.shape)


def sphere_nonneg_map():
    """npca's hand-differentiated dissolving map for the unit sphere over the
    nonnegative orthant: A(x) = x - x (x^T x - 1) / 2, with
    gradA(x) w = (3 - x^T x) w / 2 - x (x^T w), for one w or each column
    of a block.  The value also takes an (N, n) stack of points."""

    def xx(x, point):
        # x^T x, which value and vjp share, kept in the point as the (N, 1)
        # stack of each point's; for a stack, one stacked (1, n) @ (n, 1)
        # matmul, whose slices keep the bits of x_i @ x_i
        if point is not None and "build" in point:
            out = point["build"][0]
        else:
            out = (x @ x).reshape(1, 1) if x.ndim == 1 else (x[:, None, :] @ x[:, :, None])[:, 0]
            if point is not None:
                point["build"] = (out,)
        return out[0, 0] if x.ndim == 1 else out

    def value(x, point=None):
        x = np.asarray(x, dtype=float)
        return x - 0.5 * x * (xx(x, point) - 1.0)

    def vjp(x, w, point=None):
        x = np.asarray(x, dtype=float)
        alpha = 0.5 * (3.0 - xx(x, point))
        if np.ndim(w) == 1:
            return alpha * w - x * (x @ w)
        W = np.asfortranarray(w, dtype=float)
        xw = (x @ W.T[:, :, None])[:, 0]  # x . w_j over the contiguous columns
        return np.ascontiguousarray(alpha * W - x[:, None] * xw)

    return DissolvingMap(value=value, vjp=vjp, mode="closed_form", sigma=None)


def _penalty_c(prob, x, point):
    """c(x) as `point` holds it; else from the map's build there when the map
    was built over prob.cmap, else from prob.cmap; stored in `point`.  For an
    (N, n) stack x, the (N, p) stack of c."""
    if "c" not in point:
        if point.get("built_over") is prob.cmap:
            c = point["build"][0]
            point["c"] = c if x.ndim == 2 else c[0]
        else:
            point["c"] = prob.cmap.value(x)
    return point["c"]


def h_value(prob, x, point=None):
    """Penalty objective f(A(x)) + (beta/2)||c(x)||^2.

    When `point` is a dict, it is cleared and filled with A(x) under "a",
    f(A(x)) under "fa", c(x) under "c", c(x)^T c(x) under "cc" and the map's
    build at x, for `h_grad` at the same x.
    For an (N, n) stack x it returns the N values, each bit for bit what x_i
    alone gives, from one call of the map's value over the whole stack, and
    fills `point` with the stacks of those parts, whose row i `point_row`
    hands out.
    Callers are expected to supply x in the domain (within tolerance); the
    smooth formulas extend off the set, which finite-difference oracles rely
    on.
    """
    x = np.asarray(x, dtype=float)
    point = {} if point is None else point
    point.clear()
    point["a"] = prob.amap.value(x, point)
    if x.ndim == 1:
        point["fa"] = prob.f_value(point["a"])
        c = _penalty_c(prob, x, point)
        point["cc"] = c @ c
        return float(point["fa"] + 0.5 * prob.beta * point["cc"])
    point["fa"] = [prob.f_value(a) for a in point["a"]]
    c = _penalty_c(prob, x, point)
    point["cc"] = (c[:, None, :] @ c[:, :, None])[:, 0, 0]  # c_i . c_i, as c @ c takes it
    return np.array([float(fa) for fa in point["fa"]]) + 0.5 * prob.beta * point["cc"]


def point_row(point, i):
    """The dict `h_value(prob, x_i, {})` fills, bit for bit, read off row i of
    a dict `h_value` filled over a stack, for `h_grad` at x_i."""
    row = {key: point[key][i] for key in ("a", "fa", "c", "cc")}
    if "build" in point:
        row["build"] = tuple(part[i:i + 1] for part in point["build"])
    if "built_over" in point:
        row["built_over"] = point["built_over"]
    return row


def h_grad(prob, x, point=None):
    """Gradient of the penalty objective: gradA(x) gradf(A(x)) + beta*G(x)c(x).

    `point`, when given, must be a dict that `h_value` filled at this x,
    unchanged since but for what `h_grad` adds, for a problem with the same
    map and constraints (beta may differ); its parts are read without a
    check.  Without one, A(x) is built once here.
    """
    x = np.asarray(x, dtype=float)
    if point is None:
        point = {}
        point["a"] = prob.amap.value(x, point)
    out = prob.amap.vjp(x, np.asarray(prob.f_grad(point["a"]), dtype=float), point)
    if prob.cmap.p and prob.beta != 0.0:
        c = _penalty_c(prob, x, point)
        if point.get("built_over") is prob.cmap and "build_vjp" in point:
            Gc = point["build_vjp"][-1]
        else:
            Gc = prob.cmap.jac_t_apply(x, c)
        out = out + prob.beta * Gc
    return out
