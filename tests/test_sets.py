import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dissolve import sets
from dissolve.sets import (
    Box,
    DimensionMismatch,
    DomainViolation,
    NonnegOrthant,
    NormBall,
    Product,
    SpectralBall,
)

from conftest import SRC, make_catalog, run_fresh, sample_point, sample_smooth_point


# ---------------------------------------------------------------- projection


def test_box_projection_clamps():
    assert np.allclose(Box([0, 0], [1, 1]).project([2, -3]), [1, 0])


@pytest.mark.parametrize("lower,upper", [
    ([0.0] * 6, [np.inf] * 6),                                    # orthant
    ([-np.inf] * 6, [np.inf] * 6),                                # free
    ([-np.inf] * 6, [1.0, 0.0, -0.0, 2.0, 0.5, 3.0]),             # upper only
    ([-1.0, 0.0, -0.0, -2.0, 0.5, -3.0], [1.0, 0.0, 0.0, 2.0, 1.5, 3.0]),
    ([-1.0, 0.0, -np.inf, -np.inf, -0.0, 2.0], [1.5, np.inf, 2.0, np.inf, 0.0, 2.0]),
])
def test_box_projection_skips_unbounded_sides_bit_for_bit(lower, upper):
    # a side with no finite bound skips its clamp; the result must still be
    # the two-sided clamp byte for byte, and a new array
    box = Box(lower, upper)
    lo, up = box.lower, box.upper
    inf, nan = np.inf, np.nan
    points = [np.array([nan, -0.0, 0.0, inf, -inf, 1.0]),
              np.array([-0.0, -0.0, -0.0, -0.0, -0.0, -0.0]),
              np.array([0.0, -inf, nan, -0.0, inf, -2.5])]
    rng = np.random.default_rng(12)
    points += [3.0 * rng.standard_normal(6) for _ in range(20)]
    for x in points:
        out = box.project(x)
        assert out is not x and not np.shares_memory(out, x)
        assert out.tobytes() == np.minimum(np.maximum(x, lo), up).tobytes()


def test_l2_ball_projection_scales_radially():
    assert np.allclose(NormBall(2).project([3, 4]), [0.6, 0.8])


def test_lq_ball_projection_satisfies_kkt():
    ball = NormBall(4, radius=1.0, exponent=3.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(4) * 2.0
        y = ball.project(x)
        assert np.sum(np.abs(y) ** 3.0) <= 1.0 + 1e-10
        # stationarity: x - y parallel to the norm gradient at y
        g = np.sign(y) * np.abs(y) ** 2.0
        r = x - y
        lam = (r @ g) / (g @ g)
        assert lam > 0
        assert np.linalg.norm(r - lam * g) < 1e-7


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_projection_nonexpansive_and_idempotent(seed):
    rng = np.random.default_rng(seed)
    for domain in make_catalog():
        a = rng.standard_normal(domain.n) * 1.5
        b = rng.standard_normal(domain.n) * 1.5
        pa, pb = domain.project(a), domain.project(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9
        assert np.linalg.norm(domain.project(pa) - pa) <= 1e-9


# brentq (lq ball, q = 4) is imported on first call; printed as hex bytes in
# this process and in a fresh one
LAZY_SCIPY_CALLS = """
import numpy as np
from dissolve.sets import NormBall
rng = np.random.default_rng(29)
ball = NormBall(6, 1.0, exponent=4.0)
print(ball.project(3.0 * rng.standard_normal(6)).tobytes().hex())
"""


def test_lazy_scipy_calls_match_a_fresh_interpreter(capsys):
    exec(LAZY_SCIPY_CALLS, {})
    assert run_fresh(LAZY_SCIPY_CALLS) == capsys.readouterr().out


# ---------------------------------------------------------------- contains


def test_contains_examples():
    assert Box([0.0, 0.5], [1.0, 0.5]).contains([1.0, 0.5], tol=0.0)
    assert not NormBall(2).contains([1 + 1e-3, 0.0], tol=1e-6)
    assert Box([0.0], [np.inf]).contains([-1e-9], tol=1e-8)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        NormBall(3).project([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        Box([0.0, 0.0], [1.0, 1.0]).q_apply([0.5, 0.5], [1.0])


def test_projections_reject_wrong_lengths(catalog):
    # the public methods validate before any subclass kernel runs
    rng = np.random.default_rng(41)
    for domain in catalog:
        x = sample_point(domain, rng)
        for bad in (np.zeros(domain.n - 1), np.zeros(domain.n + 1),
                    np.zeros((domain.n, 1))):
            with pytest.raises(DimensionMismatch, match="x has shape"):
                domain.project(bad)
            with pytest.raises(DimensionMismatch, match="x has shape"):
                domain.normal_cone_project(bad, np.zeros(domain.n))
            with pytest.raises(DimensionMismatch, match="z has shape"):
                domain.normal_cone_project(x, bad)


# one catalog set, one NaN or infinite entry at a time: each call prints its
# name, then "ok" or the exception it raised
NON_FINITE_CALLS = """
import sys
import numpy as np
sys.path.insert(0, {tests!r})
from conftest import make_catalog, sample_point
domain = make_catalog()[{index}]
x0 = sample_point(domain, np.random.default_rng(0))
v = np.ones(domain.n)
for value in (np.nan, np.inf, -np.inf):
    for j in (0, domain.n - 1):
        x = x0.copy()
        x[j] = value
        for name, call in (("project", lambda: domain.project(x)),
                           ("q_apply", lambda: domain.q_apply(x, v)),
                           ("normal_cone_project", lambda: domain.normal_cone_project(x, v))):
            print(name, value, j, end=" ", flush=True)
            try:
                with np.errstate(all="ignore"):
                    call()
                print("ok", flush=True)
            except Exception as exc:
                print(type(exc).__name__, flush=True)
"""


def must_raise_value_error(domain):
    """Calls that must raise ValueError at a non-finite point: before an SVD,
    an eigensolver or the lq-ball multiplier search can spin or fail on it,
    and instead of a projection that comes back NaN or a silent zero."""
    if isinstance(domain, (SpectralBall, NormBall)):
        return {"project", "q_apply", "normal_cone_project"}
    return set()


@pytest.mark.parametrize("index", range(len(make_catalog())))
def test_calls_at_non_finite_points_return_or_raise(index):
    domain = make_catalog()[index]
    tests = str(pathlib.Path(__file__).resolve().parent)
    code = NON_FINITE_CALLS.format(tests=tests, index=index)
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        last = out.splitlines()[-1] if out else "(no call started)"
        pytest.fail(f"{domain!r} did not return within 60 s: {last}")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 * 2 * 3
    raising = must_raise_value_error(domain)
    for line in lines:
        if line.split()[0] in raising:
            assert line.endswith(" ValueError"), line


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_huge_finite_points_project_as_their_scaled_down_copy(scale):
    # ||x|| overflows to inf; the l2 ball maps every point far outside to its
    # direction at the radius
    rng = np.random.default_rng(41)
    for z in (np.array([1.0, 0.0]), rng.standard_normal(4), -np.abs(rng.standard_normal(4))):
        x = scale * z
        s = np.max(np.abs(x))
        for radius in (1.0, 10.0):
            ball = NormBall(z.size, radius=radius)
            with np.errstate(over="ignore"):
                got = ball.project(x)
            y = x / s
            assert np.allclose(got, y * (radius / np.linalg.norm(y)), rtol=1e-15, atol=0.0)
            assert np.linalg.norm(got) == pytest.approx(radius, rel=1e-15)


# the lq ball at huge finite points, in a fresh interpreter where a
# RuntimeWarning is an error: a magnitude bisected on [0, a_i] resolved only
# to a_i * 2^-200, so these points came back off the sphere (1e55), outside
# the ball (1e58) or never (1e75 on); sum(a^q) overflowing to inf warned
LQ_HUGE_POINTS = """
import json
import numpy as np
from dissolve.sets import NormBall
q, u = {q}, 1.5
pair, triple = NormBall(2, u, exponent=q), NormBall(3, u, exponent=q)
d = np.array([1.0, -0.25, 0.5])
out = {{"ref": triple.project(1e20 * d).tolist()}}
for m in (1e58, 1e80, 1e200, 1e300):
    out[repr(m)] = [pair.project(np.array([m, m])).tolist(),
                    triple.project(m * d).tolist()]
print(json.dumps(out))
"""


@pytest.mark.parametrize("q", [1.5, 3.0, 4.0])
def test_lq_ball_projection_of_huge_points_is_exact(q):
    u = 1.5
    out = json.loads(run_fresh(LQ_HUGE_POINTS.format(q=q), "-W", "error::RuntimeWarning"))
    ref = np.array(out.pop("ref"))
    assert len(out) == 4
    for m, (sym, asym) in out.items():
        sym, asym = np.array(sym), np.array(asym)
        assert NormBall(2, u, exponent=q).contains(sym), m
        assert NormBall(3, u, exponent=q).contains(asym), m
        # x = m (1, 1) projects to (1, 1) u 2^(-1/q)
        assert np.allclose(sym, u * 2.0 ** (-1.0 / q), rtol=1e-15, atol=0.0), m
        assert np.abs(asym - ref).max() <= 1e-12, m


# the lq ball near the largest float, in a fresh interpreter where a
# RuntimeWarning is an error: the multiplier's bracket grew to 2^2047 = inf
# and the root finder failed (q = 1.5), and lam * q overflowed against a
# zero magnitude term, inf * 0 (q = 7).  The last point needs a multiplier
# beyond the largest float
LQ_NEAR_MAX = """
import json
import numpy as np
from dissolve.sets import NormBall, ProjectionNotConverged
d = np.array([1.0, -0.25, 0.5])
out = [[q, m, NormBall(3, 1.5, exponent=q).project(m * d).tolist()]
       for q, m in ((1.5, 1.7e308), (7.0, 1e200), (3.0, 1.7e308))]
try:
    NormBall(2, 1e-4, exponent=1.5).project(np.array([1e308, 1e308]))
except ProjectionNotConverged:
    out.append("ProjectionNotConverged")
print(json.dumps(out))
"""


def test_lq_ball_projection_near_the_largest_float():
    u = 1.5
    *points, beyond = json.loads(run_fresh(LQ_NEAR_MAX, "-W", "error::RuntimeWarning"))
    assert beyond == "ProjectionNotConverged"
    for q, m, y in points:
        y, a = np.array(y), m * np.array([1.0, 0.25, 0.5])
        assert np.array_equal(np.sign(y), [1.0, -1.0, 1.0]), q
        t = np.abs(y)
        assert np.sum(t ** q) == pytest.approx(u ** q, rel=1e-14), q
        # x - y is normal to the sphere at y: a_i / t_i^(q-1) = lam q for all
        # i, with a_i - t_i = a_i at this scale
        ratio = a / t ** (q - 1.0)
        assert ratio.max() / ratio.min() - 1.0 <= 1e-12, q


@pytest.mark.parametrize("q", [1.5, 3.0, 4.0, 7.0])
@pytest.mark.parametrize("u", [0.3, 0.9, 1.2, 7.7])
def test_lq_ball_projection_of_axis_points_is_the_radius(q, u):
    # one |x_i| above u and the rest zero: the magnitude bisected toward u can
    # stop an ulp short of it, so no multiplier in [0, 2^k] brackets a root
    ball, cube = NormBall(2, u, exponent=q), NormBall(3, u, exponent=q)
    for m in (2.0 * u + 1.0, np.nextafter(u, np.inf), 1e200):
        for x, target in ((np.array([m, 0.0]), np.array([u, 0.0])),
                          (np.array([0.0, 0.0, -m]), np.array([0.0, 0.0, -u]))):
            with np.errstate(over="ignore"):
                p = (ball if x.size == 2 else cube).project(x)
            assert (ball if x.size == 2 else cube).contains(p), (m, x)
            assert np.abs(p - target).max() <= 4e-16 * u, (m, x)


# ---------------------------------------------------------------- affine hull


def test_affine_hull_projector_examples():
    assert np.allclose(Box([0.0, -1.0], [1.0, 2.0]).affine_hull_projector(), np.eye(2))
    # a pinned coordinate drops out of the hull
    assert np.allclose(Box([0.0, 0.5], [1.0, 0.5]).affine_hull_projector(),
                       np.diag([1.0, 0.0]))
    prod = Product([NormBall(2), Box([0.5], [0.5])])
    assert np.allclose(prod.affine_hull_projector(), np.diag([1.0, 1.0, 0.0]))


def test_affine_hull_projector_idempotent_symmetric(catalog):
    for domain in catalog:
        P = domain.affine_hull_projector()
        assert np.abs(P - P.T).max() <= 1e-12
        assert np.abs(P @ P - P).max() <= 1e-12


def scipy_block_diag(domain):
    from scipy.linalg import block_diag

    if isinstance(domain, Product):
        return block_diag(*[scipy_block_diag(f) for f in domain.factors])
    return domain.affine_hull_projector()


@pytest.mark.parametrize("prod", [
    Product([SpectralBall(4, 3), NonnegOrthant(2), Box([-np.inf], [np.inf])]),
    Product([Product([Box([0.5, 0.0], [0.5, 1.0]), NormBall(2)]), Box([0.0], [1.0]),
             SpectralBall(2, 2)]),
    Product([Box([0.0], [1.0]), Box([0.0, 0.3, -1.0], [1.0, 0.3, 1.0])]),
], ids=["fpca", "nested", "pinned_box"])
def test_product_affine_hull_projector_equals_block_diag(prod):
    expected = scipy_block_diag(prod)
    got = prod.affine_hull_projector()
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- Q mapping


def test_q_apply_examples():
    ball = NormBall(2)
    assert np.allclose(ball.q_apply([0.0, 0.0], [0.3, -0.7]), [0.3, -0.7])
    assert np.allclose(ball.q_apply([1.0, 0.0], [1.0, 1.0]), [0.0, 1.0])
    # an active bound and a pinned coordinate both have weight zero
    assert np.allclose(Box([0.0, 0.5], [1.0, 0.5]).q_apply([1.0, 0.5], [0.4, 0.6]),
                       [0.0, 0.0])
    # at X = I the spectral ball keeps the skew part of Y: Y - X sym(X^T Y)
    Y = np.array([[0.3, 0.1], [-0.2, 0.4]])
    out = SpectralBall(2, 2).q_apply(np.eye(2).reshape(-1, order="F"),
                                     Y.reshape(-1, order="F"))
    assert np.allclose(out.reshape(2, 2, order="F"), 0.5 * (Y - Y.T))


def test_q_matrix_examples():
    assert np.allclose(NonnegOrthant(2).q_matrix([3.0, 0.0]), np.diag([3.0, 0.0]))
    # hand evaluation: I - x x^T on the unit l2 ball
    assert np.allclose(NormBall(2).q_matrix([0.6, 0.8]),
                       [[0.64, -0.48], [-0.48, 0.36]])
    sb = SpectralBall(2, 2)
    assert np.allclose(sb.q_matrix(np.zeros(4)), np.eye(4))


def test_q_apply_rejects_points_outside_domain():
    with pytest.raises(DomainViolation):
        NormBall(2).q_apply([2.0, 0.0], [1.0, 0.0])
    with pytest.raises(DomainViolation):
        Box([0.0, 0.5], [1.0, 0.5]).q_apply([0.5, 0.6], [1.0, 0.0])
    # a NaN point has no distance to the set and is rejected too; the l2
    # ball's projection names it before the membership test
    with pytest.raises(DomainViolation):
        Box([0.0, 0.0], [1.0, 1.0]).q_apply([np.nan, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="l2-ball projection needs a finite point"):
        NormBall(2).q_apply([np.nan, 0.0], [1.0, 0.0])


def test_validated_q_methods_check_each_argument_once(monkeypatch):
    # membership runs the projection kernel on the x already validated
    calls = []
    vec = sets._vec

    def counting_vec(x, n, name="x"):
        calls.append(name)
        return vec(x, n, name)

    monkeypatch.setattr(sets, "_vec", counting_vec)
    ball = NormBall(2)
    ball.q_apply([0.6, 0.0], [1.0, 0.0])
    assert calls == ["x", "v"]
    calls.clear()
    ball.dq_form_grad([0.6, 0.0], [1.0, 0.0], [0.0, 1.0])
    assert calls == ["x", "v", "w"]


def test_q_symmetric_psd_on_samples(catalog):
    rng = np.random.default_rng(11)
    for domain in catalog:
        for _ in range(100):
            x = sample_point(domain, rng)
            Q = domain.q_matrix(x)
            assert np.abs(Q - Q.T).max() <= 1e-12
            assert np.linalg.eigvalsh(0.5 * (Q + Q.T)).min() >= -1e-10


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spread", [0.1, 3.0])  # interior, then boundary contact
def test_q_cols_matches_column_stack_of_q(catalog, spread):
    rng = np.random.default_rng(29)
    for domain in catalog:
        for m in (1, 2, 5):
            x = sample_point(domain, rng, spread)
            # a row block of a wider matrix, as the generic map passes it
            V = rng.standard_normal((domain.n + 2, m))[1:-1]
            stack = np.column_stack([domain._q(x, V[:, j]) for j in range(m)])
            assert same_bits(domain._q_cols(x, V), stack), (domain.kind, m)
            # a stack of points, each with a row block of a wider matrix
            X = np.array([sample_point(domain, rng, spread) for _ in range(3)])
            Vs = rng.standard_normal((3, domain.n + 2, m))[:, 1:-1]
            got = domain._q_cols(X, Vs)
            assert got.shape == Vs.shape, (domain.kind, m)
            for i in range(3):
                stack = np.column_stack([domain._q(X[i], Vs[i][:, j]) for j in range(m)])
                assert same_bits(got[i], stack), (domain.kind, m, i)
        assert domain._q_cols(x, np.zeros((domain.n, 0))).shape == (domain.n, 0)
        assert domain._q_cols(x[None], np.zeros((1, domain.n, 0))).shape == (1, domain.n, 0)


@pytest.mark.parametrize("spread", [0.1, 3.0])
def test_dq_form_cols_matches_column_stack_of_dq_form(catalog, spread):
    # the block derivative kernel at one x and v, over contiguous columns as
    # the dissolving map's vjp passes them
    rng = np.random.default_rng(41)
    for domain in catalog + [SpectralBall(30, 4), SpectralBall(1, 6)]:
        for m in (0, 1, 2, 7):
            x = sample_smooth_point(domain, rng, spread)
            v = rng.standard_normal(domain.n)
            W = np.asfortranarray(rng.standard_normal((domain.n, m)))
            W[:1] = -0.0
            cols = [domain._dq_form(x, v, W[:, j]) for j in range(m)]
            stack = np.column_stack(cols) if cols else np.zeros((domain.n, 0))
            assert same_bits(domain._dq_form_cols(x, v, W), stack), (domain.kind, m)


@pytest.mark.parametrize("m,s", [(1, 1), (4, 3), (5, 5), (7, 1), (1, 6), (30, 4),
                                 (100, 12)])
def test_spectral_ball_stacked_q_cols_is_column_stack_of_q(m, s):
    # the stacked build must take each column's BLAS path, whatever V's layout
    rng = np.random.default_rng(37)
    ball = SpectralBall(m, s)
    n = ball.n
    for p in range(9):
        x = ball.project(rng.standard_normal(n))
        x[:1] = -0.0
        layouts = {
            "C": rng.standard_normal((n, p)),
            "F": np.asfortranarray(rng.standard_normal((n, p))),
            "strided": rng.standard_normal((2 * n, 3 * p))[::2, ::3],
            "row block": rng.standard_normal((n + 3, p))[1:-2],
        }
        for name, V in layouts.items():
            V[:1] = 0.0
            V[-1:] = -0.0
            cols = [ball._q(x, V[:, j]) for j in range(p)]
            stack = np.column_stack(cols) if cols else np.zeros((n, 0))
            got = ball._q_cols(x, V)
            assert got.flags.c_contiguous, (name, p)
            assert same_bits(got, stack), (name, p)


def masked_weights(box, x):
    lo_fin, up_fin = np.isfinite(box.lower), np.isfinite(box.upper)
    both, lo, up = lo_fin & up_fin, lo_fin & ~up_fin, ~lo_fin & up_fin
    w = np.ones_like(x)
    w[both] = (x[both] - box.lower[both]) * (box.upper[both] - x[both])
    w[lo] = x[lo] - box.lower[lo]
    w[up] = box.upper[up] - x[up]
    dw = np.zeros_like(x)
    dw[both] = box.lower[both] + box.upper[both] - 2.0 * x[both]
    dw[lo] = 1.0
    dw[up] = -1.0
    return w, dw


def test_box_weights_match_masked_formulas():
    inf = np.inf
    boxes = [NonnegOrthant(5),
             Box([-1.0, 2.0, 0.0, -3.0, 0.5], [inf] * 5),
             Box([-inf] * 5, [inf] * 5),
             Box([-1.0, 0.0, -inf, -inf, 0.0], [1.5, inf, 2.0, inf, 0.0])]
    rng = np.random.default_rng(31)
    for box in boxes:
        points = [np.array([-0.0, 0.0, -0.0, 1.0, -0.0])]
        points += [box.project(rng.standard_normal(5)) for _ in range(5)]
        for x in points:
            w, dw = masked_weights(box, x)
            assert same_bits(box._weights(x), w)
            assert same_bits(box._weights_deriv(x), dw)


def test_box_constant_weights_are_read_only_and_never_returned():
    # an orthant's derivative weights and a free box's weights and derivative
    # weights do not depend on x: built once, read-only, and every kernel
    # returns a new array
    rng = np.random.default_rng(37)
    for box in (NonnegOrthant(5), Box([-np.inf] * 5, [np.inf] * 5)):
        consts = [box._ones, box._zeros]
        assert not any(a.flags.writeable for a in consts)
        x = box.project(rng.standard_normal(5))
        d, v, w = rng.standard_normal((3, 5))
        V = rng.standard_normal((5, 3))
        outs = [box._q(x, v), box._q_cols(x, V), box._dq_form(x, v, w),
                box.q_apply(x, v), box.q_matrix(x), box.dq_apply(x, d, v),
                box.dq_form_grad(x, v, w)]
        for out in outs:
            assert out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in consts)


def _null_space(Q, tol=1e-8):
    vals, vecs = np.linalg.eigh(0.5 * (Q + Q.T))
    scale = max(1.0, np.abs(vals).max())
    return vecs[:, np.abs(vals) <= tol * scale]


def _span_projector(basis):
    if basis.size == 0:
        return np.zeros((basis.shape[0], basis.shape[0]))
    U, _ = np.linalg.qr(basis)
    return U @ U.T


def test_null_space_matches_normal_cone_span():
    # boundary points with known facial structure
    cases = []
    box = Box([-1.0, 0.0, -np.inf], [1.5, 2.0, np.inf])
    cases.append((box, np.array([-1.0, 2.0, 0.3]),
                  np.eye(3)[:, [0, 1]]))
    orth = NonnegOrthant(4)
    cases.append((orth, np.array([0.0, 1.2, 0.0, 0.5]),
                  np.eye(4)[:, [0, 2]]))
    ball = NormBall(3, radius=1.5)
    xb = 1.5 * np.array([3.0, -1.0, 1.0]) / np.linalg.norm([3.0, -1.0, 1.0])
    cases.append((ball, xb, xb[:, None]))
    # an active upper-only bound and a pinned coordinate
    pinned = Box([-np.inf, 0.0, 0.5, -1.0], [1.0, np.inf, 0.5, 2.0])
    cases.append((pinned, np.array([1.0, 0.7, 0.5, 0.0]), np.eye(4)[:, [0, 2]]))
    lq = NormBall(3, radius=1.0, exponent=4.0)
    xq = np.array([0.7, -0.5, 0.4])
    xq /= np.sum(np.abs(xq) ** 4.0) ** 0.25
    wq = np.sign(xq) * np.abs(xq) ** 3.0  # norm gradient spans the normal ray
    cases.append((lq, xq, wq[:, None]))
    for domain, x, normal_basis in cases:
        Pn = _span_projector(normal_basis)
        Pq = _span_projector(_null_space(domain.q_matrix(x)))
        assert np.abs(Pn - Pq).max() < 1e-7, domain.kind


def test_box_pinned_coordinate():
    # a coordinate with lower == upper is pinned: projection fixes it, the
    # mapping weight vanishes, and the hull projector drops the direction
    box = Box([0.0, 1.0], [2.0, 1.0])
    assert np.allclose(box.project([5.0, 5.0]), [2.0, 1.0])
    assert np.allclose(box.q_matrix([0.5, 1.0]), np.diag([0.75, 0.0]))
    assert np.allclose(box.affine_hull_projector(), np.diag([1.0, 0.0]))
    p = box.normal_cone_project(np.array([0.5, 1.0]), np.array([0.3, -0.7]))
    assert np.allclose(p, [0.0, -0.7])  # pinned directions are fully normal


def test_normal_cone_projection_optimality():
    # projection onto a closed convex cone: idempotent and orthogonal residual
    rng = np.random.default_rng(19)
    for domain in make_catalog():
        for _ in range(20):
            x = domain.project(1.2 * rng.standard_normal(domain.n))
            z = 2.0 * rng.standard_normal(domain.n)
            p = domain.normal_cone_project(x, z)
            scale = max(1.0, np.linalg.norm(z))
            p2 = domain.normal_cone_project(x, p)
            assert np.linalg.norm(p2 - p) <= 1e-8 * scale, domain.kind
            assert abs((z - p) @ p) <= 1e-8 * scale ** 2, domain.kind


def test_normal_cone_projection_interior_is_zero():
    ball = NormBall(3, radius=2.0)
    assert np.array_equal(ball.normal_cone_project(np.zeros(3), np.ones(3)),
                          np.zeros(3))
    orth = NonnegOrthant(2)
    assert np.array_equal(orth.normal_cone_project(np.array([1.0, 2.0]),
                                                   np.array([-3.0, 4.0])),
                          np.zeros(2))
    half_identity = 0.5 * np.eye(2).reshape(-1, order="F")
    assert np.array_equal(SpectralBall(2, 2).normal_cone_project(half_identity, np.ones(4)),
                          np.zeros(4))


# ---------------------------------------------------------------- derivatives


def test_dq_apply_examples():
    ball = NormBall(2)
    assert np.allclose(ball.dq_apply([1.0, 0.0], [0.0, 1.0], [1.0, 0.0]), [0.0, -1.0])
    # DQ(X)[D] Y = -D sym(X^T Y) - X sym(D^T Y), which is -2 I at X = D = Y = I
    I4 = np.eye(2).reshape(-1, order="F")
    assert np.allclose(SpectralBall(2, 2).dq_apply(I4, I4, I4).reshape(2, 2, order="F"),
                       -2.0 * np.eye(2))
    for domain in (ball, Box([0.0, 0.5], [1.0, 0.5]), SpectralBall(2, 3)):
        rng = np.random.default_rng(0)
        x = sample_point(domain, rng)
        v = rng.standard_normal(domain.n)
        assert np.allclose(domain.dq_apply(x, np.zeros(domain.n), v), 0.0)


def test_dq_matches_finite_differences(catalog):
    # dq_apply, and the kernel every generic-map vjp runs on its own: the
    # unit w comes from a second generator, so x, d and v stay as they were
    rng = np.random.default_rng(7)
    rng_w = np.random.default_rng(8)
    eps = np.cbrt(np.finfo(float).eps)
    for domain in catalog:
        for _ in range(50):
            x = sample_smooth_point(domain, rng)
            d = rng.standard_normal(domain.n)
            d /= np.linalg.norm(d)
            v = rng.standard_normal(domain.n)
            w = rng_w.standard_normal(domain.n)
            w /= np.linalg.norm(w)
            step = eps * (1.0 + np.linalg.norm(x))
            fd = (domain.q_apply(x + step * d, v, validate=False)
                  - domain.q_apply(x - step * d, v, validate=False)) / (2 * step)
            tol = 1e-6 * max(1.0, np.linalg.norm(fd))
            an = domain.dq_apply(x, d, v, validate=False)
            assert np.linalg.norm(an - fd) <= tol, domain.kind
            form = domain.dq_form_grad(x, v, w, validate=False) @ d
            assert abs(form - w @ fd) <= tol, domain.kind


def test_dq_form_grad_is_adjoint_of_dq_apply(catalog):
    rng = np.random.default_rng(13)
    for domain in catalog:
        for _ in range(10):
            x = sample_point(domain, rng)
            v = rng.standard_normal(domain.n)
            w = rng.standard_normal(domain.n)
            g = domain.dq_form_grad(x, v, w)
            probe = np.array([w @ domain.dq_apply(x, e, v, validate=False)
                              for e in np.eye(domain.n)])
            assert np.abs(g - probe).max() <= 1e-10 * max(1.0, np.abs(probe).max())


def test_lq_ball_derivative_domain_error_below_two():
    ball = NormBall(2, radius=1.0, exponent=1.5)
    with pytest.raises(DomainViolation):
        ball.dq_apply([0.5, 0.0], [1.0, 1.0], [1.0, 1.0])
    out = ball.dq_apply([0.4, 0.3], [1.0, 1.0], [1.0, 1.0])
    assert np.all(np.isfinite(out))


def test_repr_shows_scalar_constructor_arguments(catalog):
    assert [repr(d) for d in catalog] == [
        "Box()", "NonnegOrthant(n=4)", "Box()", "Box()",
        "NormBall(n=3, radius=1.5, exponent=2.0)", "NormBall(n=3, radius=1.0, exponent=4.0)",
        "NormBall(n=3, radius=1.0, exponent=1.5)", "SpectralBall(m=4, s=3)",
        "SpectralBall(m=2, s=4)", "Product()", "Product()"]


def test_invalid_construction():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        NormBall(2, radius=-1.0)
    with pytest.raises(ValueError):
        NormBall(2, radius=1.0, exponent=1.0)
    with pytest.raises(DimensionMismatch):
        Box([0.0, 0.0], [1.0])
