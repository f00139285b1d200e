import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dissolve.sets import (
    Box,
    LinearInequalities,
    NonnegOrthant,
    NormBall,
    Product,
    PsdCone,
    PsdSpectralBall,
    SecondOrderCone,
    Simplex,
    SpectralBall,
)

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


def orthonormal_columns(n, m, seed=0):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q[:, :m]


def make_catalog():
    """One instance per descriptor variant, small enough to materialize Q."""
    return [
        Box([-1.0, 0.0, -np.inf], [1.5, 2.0, np.inf]),
        NonnegOrthant(4),
        NormBall(3, radius=1.5, exponent=2.0),
        NormBall(3, radius=1.0, exponent=4.0),
        Simplex(4),
        SecondOrderCone(3),
        SpectralBall(4, 3),
        PsdCone(3),
        PsdSpectralBall(3),
        LinearInequalities(orthonormal_columns(5, 2), np.array([0.5, 1.0])),
        Product([Box([0.0], [2.0]), Simplex(3), NormBall(2, radius=1.0)]),
    ]


def sample_point(domain, rng, spread=0.8):
    """A point of the set, boundary contact allowed."""
    return domain.project(spread * rng.standard_normal(domain.n))


def sample_smooth_point(domain, rng, spread=0.8):
    """A point of the set where Q is twice differentiable along the FD stencil.

    The linear-inequalities mapping is only C^1 across constraint activations,
    so samples for derivative checks keep every slack strictly positive.
    """
    if isinstance(domain, LinearInequalities):
        for _ in range(1000):
            x = spread * rng.standard_normal(domain.n)
            if np.all(domain.b - domain.A.T @ x >= 1e-2):
                return x
        raise RuntimeError("rejection sampling failed")
    if isinstance(domain, Product):
        return np.concatenate([sample_smooth_point(f, rng, spread)
                               for f in domain.factors])
    return sample_point(domain, rng, spread)


@pytest.fixture(scope="session")
def catalog():
    return make_catalog()
