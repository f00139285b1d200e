"""Closed convex sets used as feasible domains.

The dissolving construction needs of a set only its projection and its
projective mapping, so any closed convex set enters by subclassing
`ConvexSet` with its kernels.  This module holds the sets the problem
families, the CLI, the diagnostics and the benchmark build: boxes and the
nonnegative orthant, l2 and lq norm balls, the spectral-norm ball of
matrices, and Cartesian products of these.  Every set has an interior (a box
needs lower < upper in each coordinate), so its affine hull is all of R^n.

Every descriptor knows how to project onto itself, evaluate its projective
mapping Q(x) (a smooth, symmetric, positive-semidefinite operator whose null
space spans the normal cone), and differentiate Q in the adjoint form the
dissolving map's vjp needs.  Matrix-shaped sets act on column-major
flattened vectors.

The public methods `project`, `normal_cone_project` and `contains` validate
their arguments once and call a kernel; the subclasses supply only kernels,
and a product calls its factors' kernels.  A new set defines `n`, `_project`,
`_q_cols`, `_dq_form_cols` and `_normal_cone_project(x, Z)`; membership and
the normal cone's active set are judged at `DEFAULT_TOL`.  Q and its
derivative are reached only through the block kernels, which the dissolving
map calls on arrays it built itself.
`_normal_cone_project(x, Z)` projects each column of an n-by-m Z onto the
normal cone at x, as `assumption_a_check` needs for v and -v; the public
`normal_cone_project(x, z)` is its block of one.  The spectral ball takes
one SVD of X for all columns and stacks each column's U1^T Z_j V1 and its
`eigh`; the box masks rows and a norm ball takes each column's dot with
the normal through `_dots`.
`_q_cols(x, V)` applies Q(x) to every column of a matrix, at one point x
with an n-by-m matrix or at an (N, n) stack of points with an (N, n, m)
stack of matrices, as the dissolving-map build needs.  `_dq_form_cols(x, v,
W)` is the derivative kernel over the columns of an n-by-m W at one x and v,
as the dissolving map's vjp over a block of directions needs.  A box scales
all columns of all points at once, a product splits the points and the
matrices once, the spectral ball takes each product once over the stack of
all columns of all points (`_mats`), and a norm ball takes each column's
dot products through `_dots`.  Column j equals the kernel on that column
alone bit for bit; `_q` and `_dq_form` are those one-column blocks.

The bit-exact array rules every module shares live here: `_dots` for
row-wise dot products, `_mats` and `_flats` for the column-major layout of
a matrix variable, and `_norm` for the Euclidean norm of one vector.

This module imports numpy only.  scipy is imported on first use, by the
lq-ball projection of a point outside the ball (`brentq`), so
`import dissolve` and every other set leave it unloaded.
"""

from __future__ import annotations

import math
import numbers

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
    """The derivative of Q is not defined at the point, as at a zero
    coordinate of an lq ball with exponent below 2."""


class ProjectionNotConverged(RuntimeError):
    """A projection could not be computed, e.g. the lq-ball multiplier search
    found no root."""


def _vec(x, n, name="x"):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {x.shape}, expected ({n},)")
    return x


def _sym(M):
    # of M or of each matrix of a stack M
    return 0.5 * (M + M.swapaxes(-1, -2))


def _norm(v):
    """Euclidean norm of a 1-D array, bit for bit what np.linalg.norm gives."""
    return math.sqrt(float(v @ v))


def _dots(a, b):
    """a_i . b_i over the last axis, broadcast over the leading axes: one
    stacked (1, n) @ (n, 1) matmul, each slice of which keeps the bits of the
    one-row a_i @ b_i (einsum, or a multiply followed by sum, would round
    differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _mats(v, m, s):
    """The m-by-s matrix of each vector along the last axis of v, read
    column-major, as a view: each matrix has the strides a lone contiguous
    vector's would, so a product with it takes that vector's BLAS path."""
    return v.reshape(v.shape[:-1] + (s, m)).swapaxes(-1, -2)


def _flats(M):
    """The inverse of `_mats`: each m-by-s matrix of M as its column-major
    vector; the size is explicit, so a stack of no matrices reshapes too."""
    m, s = M.shape[-2:]
    return M.swapaxes(-1, -2).reshape(M.shape[:-2] + (m * s,))


def _size(value, name):
    """`value` as a set dimension: a nonnegative whole number, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (value >= 0 and float(value).is_integer())):
        raise ValueError(f"{name} must be a nonnegative integer; got {value!r}")
    return int(value)


def _require_finite(x, what):
    if not np.isfinite(x).all():
        raise ValueError(f"{what} needs a finite point; x has a NaN or infinite entry")


class ConvexSet:
    """Base descriptor.  Instances are immutable and safe to share.

    The public methods validate their arguments and call a kernel; a
    subclass supplies the kernels and never validates again.
    """

    @property
    def n(self) -> int:
        raise NotImplementedError

    # ---- kernels supplied by subclasses (arguments already validated) ----

    def _project(self, x):
        raise NotImplementedError

    def _q_cols(self, x, V):
        """Q(x) applied to each column of the n-by-m V, as an n-by-m array,
        or, for an (N, n) stack x, Q(x_i) to each column of V_i in an
        (N, n, m) stack V."""
        raise NotImplementedError

    def _dq_form_cols(self, x, v, W):
        """For each column w of the n-by-m W, the gradient of the scalar map
        d -> <w, (DQ(x)[d]) v>, as an n-by-m array."""
        raise NotImplementedError

    def _q(self, x, v):
        return self._q_cols(x, v[:, None])[:, 0]

    def _dq_form(self, x, v, w):
        return self._dq_form_cols(x, v, w[:, None])[:, 0]

    def _normal_cone_project(self, x, Z):
        """The projection of each column of the n-by-m Z onto the normal cone
        at x, as an n-by-m array."""
        raise NotImplementedError

    def _params(self):
        # the constructor arguments that __repr__ shows
        return {}

    # ---- shared surface ----

    def project(self, x):
        """Euclidean projection of x onto the set."""
        return self._project(_vec(x, self.n))

    def normal_cone_project(self, x, z):
        """Euclidean projection of z onto the normal cone at x (x in the set)."""
        return self._normal_cone_project(_vec(x, self.n), _vec(z, self.n, "z")[:, None])[:, 0]

    def contains(self, x) -> bool:
        """Whether x lies within DEFAULT_TOL of the set."""
        x = _vec(x, self.n)
        return float(np.linalg.norm(x - self.project(x))) <= DEFAULT_TOL

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in self._params().items())
        return f"{type(self).__name__}({params})"


class Box(ConvexSet):
    """{x : lower <= x <= upper} with lower < upper; entries may be infinite."""

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionMismatch("lower/upper must be 1-d of equal length")
        # an interior in every coordinate; this rejects NaN, +inf lower and -inf upper too
        if not np.all(lower < upper):
            raise ValueError("requires lower < upper componentwise and no NaN bound")
        self.lower = lower
        self.upper = upper
        self._lo_fin = np.isfinite(lower)
        self._up_fin = np.isfinite(upper)
        self._both = self._lo_fin & self._up_fin
        # lower + upper where both bounds are finite (0 elsewhere: no inf - inf),
        # and the other weights' derivative: 1 lower only, -1 upper only, 0 free
        self._lu = np.add(lower, upper, out=np.zeros(lower.size), where=self._both)
        self._dw = np.subtract(self._lo_fin, self._up_fin, dtype=float)
        # a side without a finite bound leaves every entry, NaN and -0.0 too,
        # as it is, so project skips its clamp
        self._clamp_lo = bool(self._lo_fin.any())
        self._clamp_up = bool(self._up_fin.any())

    @property
    def n(self):
        return self.lower.size

    def _project(self, x):
        out = np.maximum(x, self.lower) if self._clamp_lo else x.copy()
        return np.minimum(out, self.upper, out=out) if self._clamp_up else out

    def _weights(self, x):
        # (x - lower) (upper - x) with each infinite bound's factor 1: smooth,
        # vanishing exactly on active bounds, positive inside; x may be a
        # stack of points
        return (np.where(self._lo_fin, x - self.lower, 1.0)
                * np.where(self._up_fin, self.upper - x, 1.0))

    def _weights_deriv(self, x):
        return np.where(self._both, self._lu - 2.0 * x, self._dw)

    def _q_cols(self, x, V):
        return self._weights(x)[..., None] * V

    def _dq_form_cols(self, x, v, W):
        return (self._weights_deriv(x) * v)[:, None] * W

    def _normal_cone_project(self, x, Z):
        # the masks pick rows: coordinate i of every column
        out = np.zeros_like(Z)
        # on a coordinate thinner than 2 * DEFAULT_TOL both bounds are active
        # within the tolerance at every x, so its whole axis is normal
        both_active = self.upper - self.lower <= 2.0 * DEFAULT_TOL
        at_lo = self._lo_fin & (x - self.lower <= DEFAULT_TOL) & ~both_active
        at_up = self._up_fin & (self.upper - x <= DEFAULT_TOL) & ~both_active
        out[both_active] = Z[both_active]
        out[at_lo] = np.minimum(Z[at_lo], 0.0)
        out[at_up] = np.maximum(Z[at_up], 0.0)
        return out


class NonnegOrthant(Box):
    """{x : x >= 0}."""

    def __init__(self, n):
        n = _size(n, "n")
        super().__init__(np.zeros(n), np.full(n, np.inf))

    def _params(self):
        return {"n": self.n}


class NormBall(ConvexSet):
    """{x : ||x||_q <= radius}; q = 2 gets dedicated closed forms."""

    def __init__(self, n, radius=1.0, exponent=2.0):
        self._n = _size(n, "n")
        self.radius = float(radius)
        self.exponent = float(exponent)
        # the negations reject NaN too
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not 1.0 < self.exponent < math.inf:
            raise ValueError("exponent must exceed 1 and be finite")

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

    def _q_cols(self, x, V):
        # each column's scalars come as rows (..., 1, m), x and its weights
        # as columns (..., n, 1)
        u, q = self.radius, self.exponent
        xv = _dots(x[..., None, :], V.swapaxes(-1, -2))[..., None, :]
        xc = x[..., None]
        if self._is_l2:
            return V - xc * xv / u ** 2
        w = np.sign(x) * np.abs(x) ** (q - 1.0)
        s = np.sum(np.abs(x) ** (2.0 * q - 2.0), axis=-1)[..., None, None]
        wv = _dots(w[..., None, :], V.swapaxes(-1, -2))[..., None, :]
        return (V - (w[..., None] * xv + xc * wv) / u ** q
                + s * xc * xv / u ** (2.0 * q))

    def _dq_form_cols(self, x, v, W):
        u, q = self.radius, self.exponent
        vc = v[:, None]
        xv, xw = x @ v, _dots(x, W.T)
        if self._is_l2:
            return -(xv * W + xw * vc) / u ** 2
        ax = np.abs(x)
        if q < 2.0 and np.any(ax < 1e-14):
            raise DomainViolation("derivative of the lq projective mapping is unbounded at "
                                  "zero coordinates for exponents below 2")
        wx = np.sign(x) * ax ** (q - 1.0)
        kappa = ((q - 1.0) * ax ** (q - 2.0))[:, None]
        tau = ((2.0 * q - 2.0) * np.sign(x) * ax ** (2.0 * q - 3.0))[:, None]
        s = np.sum(ax ** (2.0 * q - 2.0))
        uq, u2q = u ** q, u ** (2.0 * q)
        return (-(xv * kappa * W + _dots(wx, W.T) * vc + (wx @ v) * W + xw * kappa * vc) / uq
                + (xv * xw * tau + s * (xv * W + xw * vc)) / u2q)

    def _normal_cone_project(self, x, Z):
        # the cone is the ray along g: column j goes to max(0, z_j . g / g . g) g,
        # a NaN multiple taken as 0 as Python's max takes it
        _require_finite(x, "l2-ball normal cone" if self._is_l2 else "lq-ball normal cone")
        q, u = self.exponent, self.radius
        nrm = np.linalg.norm(x) if self._is_l2 else np.sum(np.abs(x) ** q) ** (1.0 / q)
        if nrm < u - DEFAULT_TOL * max(1.0, u):
            return np.zeros_like(Z)
        g = x if self._is_l2 else np.sign(x) * np.abs(x) ** (q - 1.0)
        gg = g @ g
        if gg == 0.0:
            return np.zeros_like(Z)
        t = _dots(g, Z.T) / gg
        return g[:, None] * np.where(t > 0.0, t, 0.0)

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

    def __init__(self, m, s):
        self.m = _size(m, "m")
        self.s = _size(s, "s")

    @property
    def n(self):
        return self.m * self.s

    def _project(self, x):
        # LAPACK's SVD may never return on an infinite entry
        _require_finite(x, "spectral-ball projection")
        U, sv, Vt = np.linalg.svd(_mats(x, self.m, self.s), full_matrices=False)
        if sv.size == 0 or sv[0] <= 1.0:
            return x.copy()
        return _flats(U @ np.diag(np.minimum(sv, 1.0)) @ Vt)

    def _q_cols(self, x, V):
        # Y - X sym(X^T Y) over the (..., p, m, s) stack of columns of every
        # point (`_mats`): one X^T Y, one X S
        X = _mats(x, self.m, self.s)[..., None, :, :]
        Y = _mats(V.swapaxes(-1, -2), self.m, self.s)
        M = X.swapaxes(-1, -2) @ Y
        R = Y - X @ _sym(M)
        return np.ascontiguousarray(R.swapaxes(-1, -3).reshape(V.shape))

    def _dq_form_cols(self, x, v, W):
        # -W sym(X^T Y) - Y sym(X^T W) over the (k, m, s) stack of W's
        # columns as matrices (`_mats`)
        X, Y, Ws = (_mats(a, self.m, self.s) for a in (x, v, W.T))
        M = X.T @ Ws
        R = -Ws @ _sym(X.T @ Y) - Y @ _sym(M)
        return _flats(R).T

    def _normal_cone_project(self, x, Z):
        # U1 psd(sym(U1^T Z_j V1)) V1^T over the (k, m, s) stack of Z's columns
        # as matrices (`_mats`, the columns made contiguous), from one SVD of X
        _require_finite(x, "spectral-ball normal cone")
        U, sv, Vt = np.linalg.svd(_mats(x, self.m, self.s), full_matrices=False)
        top = sv >= 1.0 - DEFAULT_TOL
        if not np.any(top):
            return np.zeros(Z.shape)
        U1 = U[:, top]
        V1 = Vt[top, :].T
        Zs = _mats(np.asfortranarray(Z).T, self.m, self.s)
        M = U1.T @ Zs @ V1
        R = U1 @ _psd_part(_sym(M)) @ V1.T
        return _flats(R).T

    def _params(self):
        return {"m": self.m, "s": self.s}


def _psd_part(B):
    # for B or each matrix of a stack B
    vals, vecs = np.linalg.eigh(B)
    return (vecs * np.maximum(vals, 0.0)[..., None, :]) @ vecs.swapaxes(-1, -2)


class Product(ConvexSet):
    """Cartesian product of descriptors; vectors are concatenated blocks."""

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

    def _each(self, kernel, arrays):
        """Concatenate, in factor order, each factor's `kernel` applied to its
        block of every array in `arrays`."""
        return np.concatenate([getattr(f, kernel)(*[a[s] for a in arrays])
                               for f, s in zip(self.factors, self._slices)])

    def _project(self, x):
        return self._each("_project", (x,))

    def _q_cols(self, x, V):
        # blocks run along the last axis of x and the rows of each V
        return np.concatenate([f._q_cols(x[..., s], V[..., s, :])
                               for f, s in zip(self.factors, self._slices)], axis=-2)

    def _dq_form_cols(self, x, v, W):
        return self._each("_dq_form_cols", (x, v, W))

    def _normal_cone_project(self, x, Z):
        return self._each("_normal_cone_project", (x, Z))
