import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dissolve.sets import (DEFAULT_TOL, Box, DomainViolation, NonnegOrthant, NormBall,
                           Product, SpectralBall, _sym)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_fresh(code, *flags):
    """Run `code` in a fresh interpreter, started with the interpreter `flags`,
    that imports dissolve from src; return its stdout."""
    out = subprocess.run([sys.executable, *flags, "-c", code],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


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


def make_catalog():
    """One instance per descriptor variant, small enough to materialize Q."""
    inf = np.inf
    return [
        Box([-1.0, 0.0, -inf], [1.5, 2.0, inf]),
        NonnegOrthant(4),
        # upper-only, lower-only and two-sided coordinates in one box
        Box([-inf, 0.0, 0.2, -1.0], [1.0, inf, 0.5, 2.0]),
        Box([-inf] * 3, [inf] * 3),
        NormBall(3, radius=1.5, exponent=2.0),
        NormBall(3, radius=1.0, exponent=4.0),
        NormBall(3, radius=1.0, exponent=1.5),
        SpectralBall(4, 3),
        SpectralBall(2, 4),
        Product([Box([0.0, 0.3], [2.0, 0.8]), NormBall(2, radius=1.0), SpectralBall(2, 2)]),
        Product([Product([NormBall(2, radius=1.0), NonnegOrthant(1)]),
                 Box([-1.0], [1.0])]),
    ]


def sample_point(domain, rng, spread=0.8):
    """A point of the set, boundary contact allowed."""
    return domain.project(spread * rng.standard_normal(domain.n))


def sample_smooth_point(domain, rng, spread=0.8):
    """A point of the set where Q is twice differentiable along the FD stencil.

    The lq-ball mapping for q < 2 is not differentiable at zero coordinates,
    so its samples are redrawn until every |x_i| >= 1e-2.
    """
    if isinstance(domain, NormBall) and domain.exponent < 2.0:
        for _ in range(1000):
            x = sample_point(domain, rng, spread)
            if np.all(np.abs(x) >= 1e-2):
                return x
        raise RuntimeError("rejection sampling failed")
    if isinstance(domain, Product):
        return np.concatenate([sample_smooth_point(f, rng, spread)
                               for f in domain.factors])
    return sample_point(domain, rng, spread)


@pytest.fixture(scope="session")
def catalog():
    return make_catalog()


# The sets' one-vector formulas for Q(x) v and the derivative kernel
# <w, (DQ(x)[.]) v>, kept as the oracle that their block kernels `_q_cols`
# and `_dq_form_cols` must match column by column, bit for bit.

def _box_q(self, x, v):
    return self._weights(x) * v


def _box_dq_form(self, x, v, w):
    return self._weights_deriv(x) * v * w


def _norm_ball_q(self, x, v):
    u, q = self.radius, self.exponent
    if self._is_l2:
        return v - x * (x @ v) / u ** 2
    w = np.sign(x) * np.abs(x) ** (q - 1.0)
    s = np.sum(np.abs(x) ** (2.0 * q - 2.0))
    return (v - (w * (x @ v) + x * (w @ v)) / u ** q
            + s * x * (x @ v) / u ** (2.0 * q))


def _norm_ball_dq_form(self, x, v, w):
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


def _spectral_ball_q(self, x, v):
    X = x.reshape((self.m, self.s), order="F")
    Y = v.reshape((self.m, self.s), order="F")
    return (Y - X @ _sym(X.T @ Y)).reshape(-1, order="F")


def _spectral_ball_dq_form(self, x, v, w):
    X = x.reshape((self.m, self.s), order="F")
    Y = v.reshape((self.m, self.s), order="F")
    W = w.reshape((self.m, self.s), order="F")
    return (-W @ _sym(X.T @ Y) - Y @ _sym(X.T @ W)).reshape(-1, order="F")


# ... and the one-vector normal-cone projections, which the block kernel
# `_normal_cone_project` must match column by column, bit for bit.

def _box_normal_cone(self, x, z):
    out = np.zeros_like(z)
    both_active = self.upper - self.lower <= 2.0 * DEFAULT_TOL
    at_lo = self._lo_fin & (x - self.lower <= DEFAULT_TOL) & ~both_active
    at_up = self._up_fin & (self.upper - x <= DEFAULT_TOL) & ~both_active
    out[both_active] = z[both_active]
    out[at_lo] = np.minimum(z[at_lo], 0.0)
    out[at_up] = np.maximum(z[at_up], 0.0)
    return out


def _norm_ball_normal_cone(self, x, z):
    q, u = self.exponent, self.radius
    nrm = np.linalg.norm(x) if self._is_l2 else np.sum(np.abs(x) ** q) ** (1.0 / q)
    if nrm < u - DEFAULT_TOL * max(1.0, u):
        return np.zeros_like(z)
    g = x if self._is_l2 else np.sign(x) * np.abs(x) ** (q - 1.0)
    gg = g @ g
    if gg == 0.0:
        return np.zeros_like(z)
    t = max(0.0, (z @ g) / gg)
    return t * g


def _spectral_ball_normal_cone(self, x, z):
    X = x.reshape((self.m, self.s), order="F")
    Z = z.reshape((self.m, self.s), order="F")
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    top = sv >= 1.0 - DEFAULT_TOL
    if not np.any(top):
        return np.zeros(self.n)
    U1 = U[:, top]
    V1 = Vt[top, :].T
    vals, vecs = np.linalg.eigh(_sym(U1.T @ Z @ V1))
    S = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return (U1 @ S @ V1.T).reshape(-1, order="F")


_ORACLES = {Box: (_box_q, _box_dq_form, _box_normal_cone),
            NormBall: (_norm_ball_q, _norm_ball_dq_form, _norm_ball_normal_cone),
            SpectralBall: (_spectral_ball_q, _spectral_ball_dq_form, _spectral_ball_normal_cone)}


def _oracle(which, domain, x, *vectors):
    if isinstance(domain, Product):
        return np.concatenate([_oracle(which, f, x[s], *[a[s] for a in vectors])
                               for f, s in zip(domain.factors, domain._slices)])
    kind = next(k for k in _ORACLES if isinstance(domain, k))
    return _ORACLES[kind][which](domain, x, *vectors)


def q_oracle(domain, x, v):
    """Q(x) v by the one-vector formula of each set."""
    return _oracle(0, domain, x, v)


def dq_form_oracle(domain, x, v, w):
    """The gradient of d -> <w, (DQ(x)[d]) v> by the one-vector formula of
    each set."""
    return _oracle(1, domain, x, v, w)


def normal_cone_oracle(domain, x, z):
    """The projection of z onto the normal cone at x by the one-vector
    formula of each set."""
    return _oracle(2, domain, x, z)


def q_matrix(domain, x):
    """Q(x) as a dense n-by-n matrix: the block kernel over the identity."""
    return domain._q_cols(np.asarray(x, dtype=float), np.eye(domain.n))


def dq_apply(domain, x, d, v):
    """(DQ(x)[d]) v, whose entry i is the derivative kernel on e_i dotted with
    d: one block kernel call over the identity."""
    x, d, v = (np.asarray(a, dtype=float) for a in (x, d, v))
    return domain._dq_form_cols(x, v, np.eye(domain.n)).T @ d
