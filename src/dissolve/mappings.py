"""Constraint maps, constraint-dissolving mappings, and the penalty objective.

The penalty objective is h(x) = f(A(x)) + (beta/2) * ||c(x)||^2, where A is a
smooth map that fixes the feasible set {x in X : c(x) = 0} pointwise and whose
transposed Jacobian annihilates range(grad c) there.  The generic construction
is

    A(x) = x - Q(x) G(x) (G(x)^T Q(x) G(x) + sigma ||c(x)||^2 I)^+ c(x),

with G(x) the n-by-p matrix of constraint gradients and Q the domain's
projective mapping.  The p-by-p core is formed densely and pseudo-inverted
with an SVD cutoff, so p is assumed small.  A build applies Q(x) to all p
columns of G in one `_q_cols` call.  The generic map keeps the core's parts
for the last point it saw, keyed by the exact bytes of x, so `value` and
`vjp` at one point share a single build; any other point, including the same
array mutated in place, builds afresh.  `h_value` and `h_grad` take c(x) and
G(x) c(x) from that point too, when the map was built over the problem's
constraint map; otherwise they evaluate the constraint map themselves.

`h_value` and `h_grad` also share A(x) and c(x) through a point the caller
carries: `h_value(prob, x, point)` fills the list `point` with [A(x), c(x)],
and `h_grad(prob, x, point)` reads both from it instead of evaluating them
again.  The solve loop holds one such list per iterate, trial and best
point, and reads the reported feasibility and the final f(A(x)) from them
too.  The solvers still call `h_value` and `h_grad` by name for every
evaluation, so wrappers that replace those names see each one.
Closed-form objectives may memoize as well: npca's `f` and its gradient
share B^T x for the last finite point.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sets import ConvexSet, _sym

logger = logging.getLogger("dissolve")

PINV_RCOND = 1e-12  # relative SVD cutoff for the dissolving core

__all__ = [
    "CapabilityError",
    "ConstraintMap",
    "DissolvingMap",
    "PenaltyProblem",
    "empty_constraint_map",
    "build_aq",
    "closed_form_map",
    "h_value",
    "h_grad",
]


class CapabilityError(RuntimeError):
    """A requested mode needs callbacks that were not supplied."""


@dataclass(frozen=True)
class ConstraintMap:
    """Smooth equality constraints c : R^n -> R^p with Jacobian products.

    jac_t_apply(x, v) returns G(x) v (columns of G are constraint gradients);
    jac_apply(x, d) returns G(x)^T d; hess_apply(x, lam, d), when present,
    returns sum_i lam_i * Hess(c_i)(x) d; jac_columns(x), when present,
    returns the whole n-by-p G(x) and must equal the stack of
    jac_t_apply(x, e_i) bit for bit.
    """

    p: int
    value: Callable[[np.ndarray], np.ndarray]
    jac_t_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_apply: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    jac_columns: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def jac_matrix(self, x):
        """Materialize G(x) as an n-by-p array, one column per constraint."""
        x = np.asarray(x, dtype=float)
        if self.p == 0:
            return np.zeros((x.size, 0))
        if self.jac_columns is not None:
            return self.jac_columns(x)
        cols = [self.jac_t_apply(x, e) for e in np.eye(self.p)]
        return np.column_stack(cols)


def empty_constraint_map(n):
    """Constraint map with p = 0 (no equality constraints)."""
    return ConstraintMap(
        p=0,
        value=lambda x: np.zeros(0),
        jac_t_apply=lambda x, v: np.zeros(n),
        jac_apply=lambda x, d: np.zeros(0),
        hess_apply=lambda x, lam, d: np.zeros(n),
    )


@dataclass(frozen=True)
class DissolvingMap:
    """A(x) plus its transposed-Jacobian-vector product vjp(x, w) = gradA(x) w.

    point_parts(cmap, x), set only by `build_aq`, returns (c(x), G(x) c(x))
    as the map's last build computed them, G c being None until a vjp ran
    there; it returns None, and builds nothing, when x is not the map's last
    point or cmap is not the constraint map the map was built over.
    """

    value: Callable[[np.ndarray], np.ndarray]
    vjp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mode: str  # closed_form | generic_analytic | generic_fd
    sigma: Optional[float] = None
    point_parts: Optional[Callable[[ConstraintMap, np.ndarray], Optional[tuple]]] = None


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
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and nonnegative; got {self.beta}")

    @property
    def n(self):
        return self.domain.n

    def with_beta(self, beta):
        return dataclasses.replace(self, beta=float(beta))


def _aq_value_parts(domain, cmap, sigma, x):
    x = np.asarray(x, dtype=float)
    c = cmap.value(x)
    G = cmap.jac_matrix(x)
    QG = domain._q_cols(x, G)
    core = _sym(G.T @ QG) + sigma * float(c @ c) * np.eye(cmap.p)
    core_pinv = np.linalg.pinv(core, rcond=PINV_RCOND)
    u = core_pinv @ c
    return c, G, QG, core_pinv, u


def build_aq(domain, cmap, sigma=1.0, mode="auto"):
    """Construct the generic dissolving map for (domain, cmap).

    mode: "generic_analytic" needs domain derivatives and cmap.hess_apply;
    "generic_fd" differentiates A by central differences; "auto" picks the
    analytic route when second-order callbacks exist.
    """
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive; got {sigma}")
    if cmap.p == 0:
        return DissolvingMap(value=lambda x: np.asarray(x, dtype=float).copy(),
                             vjp=lambda x, w: np.asarray(w, dtype=float).copy(),
                             mode="closed_form", sigma=float(sigma))

    if mode == "auto":
        if cmap.hess_apply is not None:
            mode = "generic_analytic"
        else:
            mode = "generic_fd"
            logger.warning("constraint map has no Hessian products; "
                           "falling back to finite-difference Jacobians of A")
    if mode == "generic_analytic" and cmap.hess_apply is None:
        raise CapabilityError("generic_analytic needs cmap.hess_apply; "
                              "use mode='generic_fd' instead")

    amap = _GenericMap(domain, cmap, sigma)
    if mode == "generic_analytic":
        vjp = amap.vjp
    else:

        def vjp(x, w):
            return _fd_vjp(amap.value, x, w)

    return DissolvingMap(value=amap.value, vjp=vjp, mode=mode, sigma=float(sigma),
                         point_parts=amap.point_parts)


class _GenericMap:
    """The generic A(x) and its analytic vjp, sharing one cached point.

    The slot holds the exact bytes of the last finite x with its value parts
    (c, G, QG, core_pinv, u) and, once a vjp has run there, the w-free vjp
    parts (G u, Q(x) G u, G(x) c).  Bytes, not identity or a tolerance, key
    the slot, so a caller that mutates x in place gets fresh parts.
    """

    def __init__(self, domain, cmap, sigma):
        self.domain = domain
        self.cmap = cmap
        self.sigma = sigma
        self._slot = (None, None, None)  # key, value parts, vjp parts

    def _entry(self, x):
        key = x.tobytes()
        slot = self._slot
        if slot[0] != key:
            slot = (key, _aq_value_parts(self.domain, self.cmap, self.sigma, x), None)
            # equal bytes do not make a NaN point equal to itself: never store one
            if np.isfinite(x).all():
                self._slot = slot
        return slot

    def value(self, x):
        x = np.asarray(x, dtype=float)
        _, _, QG, _, u = self._entry(x)[1]
        return x - QG @ u

    def point_parts(self, cmap, x):
        key, parts, extra = self._slot
        if cmap is not self.cmap or key != x.tobytes():
            return None
        return parts[0], None if extra is None else extra[2]

    def vjp(self, x, w):
        # product rule across Q G, the pseudo-inverted core, and c; exact
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        slot = self._entry(x)
        key, parts, extra = slot
        c, G, _, core_pinv, u = parts
        domain, hess = self.domain, self.cmap.hess_apply
        if extra is None:
            Gu = G @ u
            extra = (Gu, domain._q(x, Gu), self.cmap.jac_t_apply(x, c))
            if self._slot is slot:
                self._slot = (key, parts, extra)
        Gu, QGu, Gc = extra
        Qw = domain._q(x, w)
        a = core_pinv @ (G.T @ Qw)
        Ga = G @ a
        QGa = domain._q(x, Ga)
        grad_phi = (domain._dq_form(x, Gu, w)
                    + hess(x, u, Qw)
                    + Ga
                    - hess(x, a, QGu)
                    - domain._dq_form(x, Gu, Ga)
                    - hess(x, u, QGa)
                    - 2.0 * self.sigma * float(a @ u) * Gc)
        return w - grad_phi


def _fd_vjp(value, x, w):
    """Central-difference gradA(x) w from 2n evaluations of A = value."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    delta = np.cbrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x))
    out = np.empty_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = delta
        out[j] = w @ (value(x + step) - value(x - step)) / (2.0 * delta)
    return out


def closed_form_map(kind, **params):
    """Hand-differentiated dissolving maps for specific constraint families.

    kinds: sphere_nonneg(H), lq_nonneg(exponent), psd_diag(s),
    nonneg_orthonormal_diag(m, s).  H=None means the identity quadratic form.
    """
    if kind == "sphere_nonneg":
        H = params.get("H")
        if H is not None:
            H = np.asarray(H, dtype=float)
            if H.ndim != 2 or H.shape[0] != H.shape[1]:
                raise ValueError("H must be square")
            if np.abs(H - H.T).max() > 1e-12:
                raise ValueError("H must be symmetric")

        def apply_h(x):
            return x if H is None else H @ x

        def value(x):
            x = np.asarray(x, dtype=float)
            return x - 0.5 * x * (x @ apply_h(x) - 1.0)

        def vjp(x, w):
            x = np.asarray(x, dtype=float)
            hx = apply_h(x)
            alpha = 0.5 * (3.0 - x @ hx)
            return alpha * w - hx * (x @ w)

    elif kind == "lq_nonneg":
        q = float(params["exponent"])
        if q <= 1:
            raise ValueError("exponent must exceed 1")

        def value(x):
            x = np.asarray(x, dtype=float)
            r = np.sum(np.abs(x) ** q)
            return x / (1.0 + (r - 1.0) / q)

        def vjp(x, w):
            x = np.asarray(x, dtype=float)
            r = np.sum(np.abs(x) ** q)
            den = 1.0 + (r - 1.0) / q
            g = np.sign(x) * np.abs(x) ** (q - 1.0)
            return w / den - g * (x @ w) / den ** 2

    elif kind == "psd_diag":
        s = int(params["s"])

        def value(x):
            X = np.asarray(x, dtype=float).reshape((s, s), order="F")
            D = np.diag(np.diag(X))
            out = X @ (2.0 * np.eye(s) - D)
            return _sym(out).reshape(-1, order="F")

        def vjp(x, w):
            X = np.asarray(x, dtype=float).reshape((s, s), order="F")
            W = _sym(np.asarray(w, dtype=float).reshape((s, s), order="F"))
            D = np.diag(np.diag(X))
            out = W @ (2.0 * np.eye(s) - D) - np.diag(np.diag(X.T @ W))
            return out.reshape(-1, order="F")

    elif kind == "nonneg_orthonormal_diag":
        m, s = int(params["m"]), int(params["s"])

        def value(x):
            X = np.asarray(x, dtype=float).reshape((m, s), order="F")
            delta = np.sum(X * X, axis=0) - 1.0
            return (X - 0.5 * X * delta[None, :]).reshape(-1, order="F")

        def vjp(x, w):
            X = np.asarray(x, dtype=float).reshape((m, s), order="F")
            W = np.asarray(w, dtype=float).reshape((m, s), order="F")
            delta = np.sum(X * X, axis=0) - 1.0
            alpha = 1.0 - 0.5 * delta
            out = W * alpha[None, :] - X * np.sum(X * W, axis=0)[None, :]
            return out.reshape(-1, order="F")

    else:
        raise ValueError(f"unknown closed-form kind {kind!r}")

    return DissolvingMap(value=value, vjp=vjp, mode="closed_form", sigma=None)


def _penalty_parts(prob, x, c=None):
    """(c(x), G(x) c(x) or None): c as given, else from the map's point when
    it holds x, else from the constraint map; G c from the map's point only."""
    parts = None if prob.amap.point_parts is None else prob.amap.point_parts(prob.cmap, x)
    if parts is None:
        return (prob.cmap.value(x) if c is None else c), None
    return (parts[0] if c is None else c), parts[1]


def h_value(prob, x, point=None):
    """Penalty objective f(A(x)) + (beta/2)||c(x)||^2.

    When `point` is a list, it is filled with [A(x), c(x)] for `h_grad` at
    the same x.  Callers are expected to supply x in the domain (within
    tolerance); the smooth formulas extend off the set, which
    finite-difference oracles rely on.
    """
    x = np.asarray(x, dtype=float)
    a = prob.amap.value(x)
    fa = prob.f_value(a)
    c, _ = _penalty_parts(prob, x)
    if point is not None:
        point[:] = (a, c)
    return float(fa + 0.5 * prob.beta * (c @ c))


def h_grad(prob, x, point=None):
    """Gradient of the penalty objective: gradA(x) gradf(A(x)) + beta*G(x)c(x).

    `point`, when given, must be a list that `h_value` filled at this x,
    unchanged since, for a problem with the same map and constraints (beta
    may differ); A(x) and c(x) are read from it without a check.
    """
    x = np.asarray(x, dtype=float)
    a, c = (prob.amap.value(x), None) if point is None else point
    out = prob.amap.vjp(x, np.asarray(prob.f_grad(a), dtype=float))
    if prob.cmap.p and prob.beta != 0.0:
        c, Gc = _penalty_parts(prob, x, c)
        if Gc is None:
            Gc = prob.cmap.jac_t_apply(x, c)
        out = out + prob.beta * Gc
    return out
