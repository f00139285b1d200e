"""Closed convex sets used as feasible domains.

The dissolving construction needs of a set only its projection and its
projective mapping, so any closed convex set enters by subclassing
`ConvexSet` with its kernels.  This module holds the sets the problem
families, the CLI, the diagnostics and the benchmark build: boxes (pinned
coordinates included) and the nonnegative orthant, l2 and lq norm balls, the
spectral-norm ball of matrices, and Cartesian products of these.

Every descriptor knows how to project onto itself, expose the orthogonal
projector onto the subspace parallel to its affine hull, evaluate its
projective mapping Q(x) (a smooth, symmetric, positive-semidefinite operator
whose null space spans the normal cone), and differentiate Q in the adjoint
form the dissolving map's vjp needs.  Matrix-shaped sets act on column-major
flattened vectors.

The public methods of `ConvexSet` validate their arguments once and call a
kernel (`_project`, `_normal_cone_project`, `_q`, `_dq_form`); the
subclasses supply only kernels, and a product calls its factors' kernels.

`_q_cols` applies Q(x) to every column of a matrix, as the dissolving-map
build needs, at one point x with an n-by-m matrix or at an (N, n) stack of
points with an (N, n, m) stack of matrices: a box scales all columns of all
points at once, a product splits the points and the matrices once, and the
spectral ball takes one X^T Y and one X S over the stack of all columns of
all points.  Each equals the stack of `_q(x_i, V_i[:, j])` bit for bit; the
norm balls loop over those calls.  `_dq_form_cols(x, v, W)` is the derivative
kernel over a block, as the dissolving map's vjp over a block of directions
needs: `_dq_form(x, v, W[:, j])` for each column of an n-by-m W, with x and
v fixed.  A box scales all columns at once, a product splits W once, and the
spectral ball takes each product once over the stack of all columns; each
equals `_dq_form` on a contiguous copy of the column bit for bit, and the
norm balls loop over `_dq_form`.

This module imports numpy only.  scipy is imported on first use, by the
lq-ball projection of a point outside the ball (`brentq`), so
`import dissolve` and every other set leave it unloaded.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-8

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatch",
    "DomainViolation",
    "ProjectionNotConverged",
    "ConvexSet",
    "Box",
    "NonnegOrthant",
    "NormBall",
    "SpectralBall",
    "Product",
]


class DimensionMismatch(ValueError):
    """Vector length does not match the ambient dimension."""


class DomainViolation(ValueError):
    """Point lies outside the set beyond the membership tolerance."""


class ProjectionNotConverged(RuntimeError):
    """A projection could not be computed, e.g. the lq-ball multiplier search
    found no root."""


def _vec(x, n, name="x"):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {x.shape}, expected ({n},)")
    return x


def _sym(M):
    return 0.5 * (M + M.T)


def _mat(x, shape):
    # internal layout is column-major; kernels receive validated float arrays
    return x.reshape(shape, order="F")


def _flat(M):
    return M.reshape(-1, order="F")


def _require_finite(x, what):
    if not np.isfinite(x).all():
        raise ValueError(f"{what} needs a finite point; x has a NaN or infinite entry")


class ConvexSet:
    """Base descriptor.  Instances are immutable and safe to share.

    The public methods validate their arguments and call a kernel; a
    subclass supplies the kernels and never validates again.
    """

    kind = "abstract"

    @property
    def n(self) -> int:
        raise NotImplementedError

    # ---- kernels supplied by subclasses (arguments already validated) ----

    def _project(self, x):
        raise NotImplementedError

    def _q(self, x, v):
        raise NotImplementedError

    def _q_cols(self, x, V):
        """Q(x) applied to each column of the n-by-m V, or, for an (N, n)
        stack x, Q(x_i) to each column of V_i in an (N, n, m) stack V; equals
        _q(x_i, .) on a contiguous copy of each column bit for bit when V's
        columns are contiguous."""
        out = np.empty(V.shape)
        if x.ndim == 2:
            for i in range(x.shape[0]):
                out[i] = self._q_cols(x[i], V[i])
            return out
        for j in range(V.shape[1]):
            out[:, j] = self._q(x, V[:, j])
        return out

    def _dq_form(self, x, v, w):
        raise NotImplementedError

    def _dq_form_cols(self, x, v, W):
        """_dq_form(x, v, W[:, j]) for each column of the n-by-m W, as an
        n-by-m array; bit for bit when W's columns are contiguous."""
        out = np.empty(W.shape)
        for j in range(W.shape[1]):
            out[:, j] = self._dq_form(x, v, W[:, j])
        return out

    def affine_hull_projector(self):
        raise NotImplementedError

    def _normal_cone_project(self, x, z, tol):
        raise NotImplementedError

    def _params(self):
        # the constructor arguments that __repr__ shows
        return {}

    # ---- shared surface ----

    def project(self, x):
        """Euclidean projection of x onto the set."""
        return self._project(_vec(x, self.n))

    def normal_cone_project(self, x, z, tol=DEFAULT_TOL):
        """Euclidean projection of z onto the normal cone at x (x in the set)."""
        return self._normal_cone_project(_vec(x, self.n), _vec(z, self.n, "z"), tol)

    def contains(self, x, tol=DEFAULT_TOL) -> bool:
        x = _vec(x, self.n)
        return float(np.linalg.norm(x - self.project(x))) <= tol

    def _check_point(self, x, validate):
        x = _vec(x, self.n)
        if validate and not np.linalg.norm(x - self._project(x)) <= DEFAULT_TOL:
            raise DomainViolation(
                f"point is outside {self.kind} beyond tol={DEFAULT_TOL}; "
                "the projective mapping is only defined on the set"
            )
        return x

    def q_apply(self, x, v, validate=True):
        """Apply the projective mapping:  Q(x) v."""
        x = self._check_point(x, validate)
        v = _vec(v, self.n, "v")
        return self._q(x, v)

    def q_matrix(self, x, validate=True):
        """Materialize Q(x) as a dense n-by-n matrix (cheap only for small n)."""
        return self._q_cols(self._check_point(x, validate), np.eye(self.n))

    def dq_apply(self, x, d, v, validate=True):
        """Directional derivative of x -> Q(x) v along d:  (DQ(x)[d]) v, whose
        entry i is <dq_form_grad(x, v, e_i), d>: n kernel calls, for tests and
        small n (no solve or check calls it)."""
        x = self._check_point(x, validate)
        d = _vec(d, self.n, "d")
        v = _vec(v, self.n, "v")
        return np.array([self._dq_form(x, v, e) @ d for e in np.eye(self.n)])

    def dq_form_grad(self, x, v, w, validate=True):
        """Gradient of the scalar map d -> <w, (DQ(x)[d]) v>: each set's one
        derivative kernel, in closed form so that the dissolving map's vjp
        stays O(n)."""
        x = self._check_point(x, validate)
        v = _vec(v, self.n, "v")
        w = _vec(w, self.n, "w")
        return self._dq_form(x, v, w)

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in self._params().items())
        return f"{type(self).__name__}({params})"


class Box(ConvexSet):
    """{x : lower <= x <= upper}, entries may be infinite."""

    kind = "box"

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionMismatch("lower/upper must be 1-d of equal length")
        if np.any(lower > upper):
            raise ValueError("requires lower <= upper componentwise")
        self.lower = lower
        self.upper = upper
        self._lo_fin = np.isfinite(lower)
        self._up_fin = np.isfinite(upper)
        # which bounds shape the weights of Q: both, lower only, upper only
        self._both = self._lo_fin & self._up_fin
        self._lo_only = self._lo_fin & ~self._up_fin
        self._up_only = ~self._lo_fin & self._up_fin
        # a side without a finite bound leaves every entry, NaN and -0.0 too,
        # as it is, so project skips its clamp
        self._clamp_lo = bool(self._lo_fin.any())
        self._clamp_up = bool(self._up_fin.any())
        # whole-box patterns whose weights need no masks
        self._orthant = bool(self._lo_only.all())
        self._free = not (self._clamp_lo or self._clamp_up)
        # the x-free weights of those patterns, built once and read-only; the
        # kernels multiply them into new arrays
        self._ones, self._zeros = np.ones(self.n), np.zeros(self.n)
        self._ones.flags.writeable = self._zeros.flags.writeable = False

    @property
    def n(self):
        return self.lower.size

    def _project(self, x):
        out = np.maximum(x, self.lower) if self._clamp_lo else x.copy()
        return np.minimum(out, self.upper, out=out) if self._clamp_up else out

    def _weights(self, x):
        # smooth weights vanishing exactly on active bounds, positive inside
        if self._orthant:
            return x - self.lower
        if self._free:
            return self._ones
        # x may be a stack of points: the masks index its last axis
        w = np.ones_like(x)
        both, lo, up = self._both, self._lo_only, self._up_only
        w[..., both] = (x[..., both] - self.lower[both]) * (self.upper[both] - x[..., both])
        w[..., lo] = x[..., lo] - self.lower[lo]
        w[..., up] = self.upper[up] - x[..., up]
        return w

    def _weights_deriv(self, x):
        if self._orthant:
            return self._ones
        if self._free:
            return self._zeros
        dw = np.zeros_like(x)
        both, lo, up = self._both, self._lo_only, self._up_only
        dw[both] = self.lower[both] + self.upper[both] - 2.0 * x[both]
        dw[lo] = 1.0
        dw[up] = -1.0
        return dw

    def _q(self, x, v):
        return self._weights(x) * v

    def _q_cols(self, x, V):
        return self._weights(x)[..., None] * V

    def _dq_form(self, x, v, w):
        return self._weights_deriv(x) * v * w

    def _dq_form_cols(self, x, v, W):
        return (self._weights_deriv(x) * v)[:, None] * W

    def affine_hull_projector(self):
        return np.diag((self.lower < self.upper).astype(float))

    def _normal_cone_project(self, x, z, tol):
        out = np.zeros_like(z)
        pinned = self.upper - self.lower <= 2.0 * tol
        at_lo = self._lo_fin & (x - self.lower <= tol) & ~pinned
        at_up = self._up_fin & (self.upper - x <= tol) & ~pinned
        out[pinned] = z[pinned]
        out[at_lo] = np.minimum(z[at_lo], 0.0)
        out[at_up] = np.maximum(z[at_up], 0.0)
        return out


class NonnegOrthant(Box):
    """{x : x >= 0}."""

    kind = "nonneg_orthant"

    def __init__(self, n):
        super().__init__(np.zeros(n), np.full(n, np.inf))

    def _params(self):
        return {"n": self.n}


class NormBall(ConvexSet):
    """{x : ||x||_q <= radius}; q = 2 gets dedicated closed forms."""

    kind = "norm_ball"

    def __init__(self, n, radius=1.0, exponent=2.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if exponent <= 1:
            raise ValueError("exponent must exceed 1")
        self._n = int(n)
        self.radius = float(radius)
        self.exponent = float(exponent)

    @property
    def n(self):
        return self._n

    @property
    def _is_l2(self):
        return self.exponent == 2.0

    def _project(self, x):
        u, q = self.radius, self.exponent
        if self._is_l2:
            nrm = np.linalg.norm(x)
            if not math.isfinite(nrm):  # else NaN or a silent zero
                _require_finite(x, "l2-ball projection")
                # the norm of a finite x overflowed, so x lies far outside:
                # its direction, scaled to the radius
                z = x / np.max(np.abs(x))
                return z * (u / np.linalg.norm(z))
            return x if nrm <= u else x * (u / nrm)
        # an infinite entry would keep the multiplier bracket growing forever
        _require_finite(x, "lq-ball projection")
        a = np.abs(x)
        with np.errstate(over="ignore"):  # an overflow to inf lies outside
            inside = np.sum(a ** q) <= u ** q
        if inside:
            return x.copy()
        return np.sign(x) * _lq_ball_shrink(a, u, q)

    def _q(self, x, v):
        u, q = self.radius, self.exponent
        if self._is_l2:
            return v - x * (x @ v) / u ** 2
        w = np.sign(x) * np.abs(x) ** (q - 1.0)
        s = np.sum(np.abs(x) ** (2.0 * q - 2.0))
        return (v - (w * (x @ v) + x * (w @ v)) / u ** q
                + s * x * (x @ v) / u ** (2.0 * q))

    def _dq_form(self, x, v, w):
        u, q = self.radius, self.exponent
        if self._is_l2:
            return -((x @ v) * w + (x @ w) * v) / u ** 2
        ax = np.abs(x)
        if q < 2.0 and np.any(ax < 1e-14):
            raise DomainViolation("derivative of the lq projective mapping is unbounded at "
                                  "zero coordinates for exponents below 2")
        wx = np.sign(x) * ax ** (q - 1.0)
        kappa = (q - 1.0) * ax ** (q - 2.0)
        tau = (2.0 * q - 2.0) * np.sign(x) * ax ** (2.0 * q - 3.0)
        s = np.sum(ax ** (2.0 * q - 2.0))
        uq, u2q = u ** q, u ** (2.0 * q)
        xv, xw = x @ v, x @ w
        return (-(xv * kappa * w + (w @ wx) * v + (wx @ v) * w + xw * kappa * v) / uq
                + (xv * xw * tau + s * (xv * w + xw * v)) / u2q)

    def affine_hull_projector(self):
        return np.eye(self.n)

    def _normal_cone_project(self, x, z, tol):
        _require_finite(x, "l2-ball normal cone" if self._is_l2 else "lq-ball normal cone")
        q, u = self.exponent, self.radius
        nrm = np.linalg.norm(x) if self._is_l2 else np.sum(np.abs(x) ** q) ** (1.0 / q)
        if nrm < u - tol * max(1.0, u):
            return np.zeros_like(z)
        g = x if self._is_l2 else np.sign(x) * np.abs(x) ** (q - 1.0)
        gg = g @ g
        if gg == 0.0:
            return np.zeros_like(z)
        t = max(0.0, (z @ g) / gg)
        return t * g

    def _params(self):
        return {"n": self.n, "radius": self.radius, "exponent": self.exponent}


def _lq_ball_shrink(a, u, q):
    """Solve the lq-ball projection in magnitudes: t + lam*q*t^(q-1) = a, sum t^q = u^q.

    No magnitude of the projection exceeds the radius, so each t_i is
    bisected on [0, min(a_i, u)] and resolved to u * 2^-200 however large
    a_i is.  At lam = 0 that gives min(a_i, u), the projection when it lies
    in the ball already (one a_i above u, the others' q-th powers negligible).
    The multiplier stays at or below the largest float; a root beyond it, or
    any other failure of the root finder, raises ProjectionNotConverged."""
    from scipy.optimize import brentq

    def magnitudes(lam):
        lo = np.zeros_like(a)
        hi = np.minimum(a, u)
        with np.errstate(over="ignore"):  # an overflow to inf is too big
            lq = lam * q
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                # lam * q overflows only near the largest float; there the
                # product is taken as lam * (q t^(q-1)), never as inf * 0
                term = (lq * mid ** (q - 1.0) if lq < np.inf
                        else lam * (q * mid ** (q - 1.0)))
                too_big = mid + term > a
                hi = np.where(too_big, mid, hi)
                lo = np.where(too_big, lo, mid)
        return 0.5 * (lo + hi)

    def excess(lam):
        return np.sum(magnitudes(lam) ** q) - u ** q

    if excess(0.0) <= 0.0:
        return magnitudes(0.0)
    # bracket [0, 2^k] with the least k >= 0 where excess <= 0; excess falls
    # as lam grows, so galloping on k finds it in O(log k) evaluations.  Past
    # 2^1023 the top is the largest float
    k_out, k = -1, 0
    while k <= 1023 and excess(np.ldexp(1.0, k)) > 0.0:
        k_out, k = k, 2 * k + 1
    if k > 1023:
        top = float(np.finfo(float).max)
    else:
        while k - k_out > 1:
            mid = (k_out + k) // 2
            k_out, k = (mid, k) if excess(np.ldexp(1.0, mid)) > 0.0 else (k_out, mid)
        top = float(np.ldexp(1.0, k))
    try:
        lam = brentq(excess, 0.0, top, xtol=1e-300, rtol=8.9e-16, maxiter=300)
    except (RuntimeError, ValueError) as exc:
        raise ProjectionNotConverged(
            f"lq-ball projection: no multiplier in [0, {top:.3e}] solves it") from exc
    return magnitudes(lam)


class SpectralBall(ConvexSet):
    """{X in R^(m x s) : ||X||_2 <= 1}, flattened column-major."""

    kind = "spectral_ball"

    def __init__(self, m, s):
        self.m = int(m)
        self.s = int(s)

    @property
    def n(self):
        return self.m * self.s

    def _shape(self):
        return (self.m, self.s)

    def _project(self, x):
        # LAPACK's SVD may never return on an infinite entry
        _require_finite(x, "spectral-ball projection")
        X = _mat(x, self._shape())
        U, sv, Vt = np.linalg.svd(X, full_matrices=False)
        if sv.size == 0 or sv[0] <= 1.0:
            return x.copy()
        return _flat(U @ np.diag(np.minimum(sv, 1.0)) @ Vt)

    def _q(self, x, v):
        X = _mat(x, self._shape())
        Y = _mat(v, self._shape())
        return _flat(Y - X @ _sym(X.T @ Y))

    def _q_cols(self, x, V):
        # _q over the (..., p, m, s) stack of columns of every point: one
        # X^T Y, one X S.  Each X and each column's Y is a view with the
        # strides _mat gives x_i and V_i[:, j], so each product takes the same
        # BLAS path as in _q
        lead = x.shape[:-1]
        X = x.reshape(lead + (self.s, self.m)).swapaxes(-1, -2)[..., None, :, :]
        Y = V.swapaxes(-1, -2).reshape(lead + (V.shape[-1], self.s, self.m)).swapaxes(-1, -2)
        M = X.swapaxes(-1, -2) @ Y
        R = Y - X @ (0.5 * (M + M.swapaxes(-1, -2)))
        return np.ascontiguousarray(R.swapaxes(-1, -3).reshape(V.shape))

    def _dq_form(self, x, v, w):
        X = _mat(x, self._shape())
        Y = _mat(v, self._shape())
        W = _mat(w, self._shape())
        return _flat(-W @ _sym(X.T @ Y) - Y @ _sym(X.T @ W))

    def _dq_form_cols(self, x, v, W):
        # _dq_form over the (k, m, s) stack of W's columns as matrices; with
        # contiguous columns each is a view with the strides _mat gives a
        # contiguous w, so each product takes the same BLAS path as there
        X = _mat(x, self._shape())
        Y = _mat(v, self._shape())
        Ws = W.T.reshape(W.shape[1], self.s, self.m).swapaxes(-1, -2)
        M = X.T @ Ws
        R = -Ws @ _sym(X.T @ Y) - Y @ (0.5 * (M + M.swapaxes(-1, -2)))
        return R.swapaxes(-1, -2).reshape(W.shape[1], self.n).T

    def affine_hull_projector(self):
        return np.eye(self.n)

    def _normal_cone_project(self, x, z, tol):
        _require_finite(x, "spectral-ball normal cone")
        X = _mat(x, self._shape())
        Z = _mat(z, self._shape())
        U, sv, Vt = np.linalg.svd(X, full_matrices=False)
        top = sv >= 1.0 - tol
        if not np.any(top):
            return np.zeros(self.n)
        U1 = U[:, top]
        V1 = Vt[top, :].T
        S = _psd_part(_sym(U1.T @ Z @ V1))
        return _flat(U1 @ S @ V1.T)

    def _params(self):
        return {"m": self.m, "s": self.s}


def _psd_part(B):
    vals, vecs = np.linalg.eigh(B)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


class Product(ConvexSet):
    """Cartesian product of descriptors; vectors are concatenated blocks."""

    kind = "product"

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("product of zero factors")
        self.factors = tuple(factors)
        # block slices with Python int bounds: slicing with them is cheaper
        self._slices, self._n = [], 0
        for f in factors:
            self._slices.append(slice(self._n, self._n + int(f.n)))
            self._n += int(f.n)

    @property
    def n(self):
        return self._n

    def _each(self, kernel, arrays, *rest):
        """Concatenate, in factor order, each factor's `kernel` applied to its
        block of every array in `arrays` and then to `rest`."""
        return np.concatenate([getattr(f, kernel)(*[a[s] for a in arrays], *rest)
                               for f, s in zip(self.factors, self._slices)])

    def _project(self, x):
        return self._each("_project", (x,))

    def _q(self, x, v):
        return self._each("_q", (x, v))

    def _q_cols(self, x, V):
        # blocks run along the last axis of x and the rows of each V
        return np.concatenate([f._q_cols(x[..., s], V[..., s, :])
                               for f, s in zip(self.factors, self._slices)], axis=-2)

    def _dq_form(self, x, v, w):
        return self._each("_dq_form", (x, v, w))

    def _dq_form_cols(self, x, v, W):
        return np.concatenate([f._dq_form_cols(x[s], v[s], W[s])
                               for f, s in zip(self.factors, self._slices)])

    def affine_hull_projector(self):
        P = np.zeros((self.n, self.n))
        for f, s in zip(self.factors, self._slices):
            P[s, s] = f.affine_hull_projector()
        return P

    def _normal_cone_project(self, x, z, tol):
        return self._each("_normal_cone_project", (x, z), tol)
