"""Numerical verification of the structural identities the method relies on.

Reports fold multi-threshold checks into one normalized ratio: each sub-check
contributes violation / sub_threshold, the report threshold is 1.0, and
`passed` is equivalent to worst_violation <= threshold.

Checks that evaluate many points evaluate each distinct point once, in
stacks of at most STACK_ROWS rows: grad_check's gradient points, each
followed by its 4n finite-difference points, are stacked `h_value` calls,
and `h_grad` at a gradient point reads that point's row of its stack; the
error-bound probe's samples at all its radii, drawn at once, are stacked c
and G c calls.  Each row is bit-identical to the per-point call (see
`dissolve.mappings`), and wrappers of `h_value` or of the constraint
callbacks see one call per stack.  Checks that take many products at one
point take them as one block: `assumption_a_check`'s kernel samples (one
stacked G lam) and the identity for its Jacobian are the columns of one
vjp, each column bit-identical to the one-vector vjp, and it projects the
worst sample's v and -v onto the normal cone as the two columns of one
block kernel call (see `dissolve.sets`).
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .mappings import h_grad, h_value, point_row
from .sets import _dots, _norm

__all__ = [
    "CheckReport",
    "grad_check",
    "assumption_a_check",
    "pi_sigma",
    "local_error_bound_probe",
]

IDEMPOTENCY_DIM_GUARD = 200  # materializing the Jacobian is O(n) map products
GRAD_CHECK_THRESHOLD = 1e-6  # relative gradient error grad_check allows
ASSUMPTION_A_THRESHOLDS = (1e-10, 1e-8, 1e-6)  # fixed point, kernel, idempotency
STACK_ROWS = 256  # rows per stacked call of grad_check's stencil and the probe
KERNEL_SAMPLES = 10  # random multipliers per point of assumption_a_check's kernel test
PROBE_RADII = tuple(0.5 ** j for j in range(7, 0, -1))  # 1/128 up to 1/2, ascending
PI_SIGMA_FLOOR = 1e-10  # a pi_sigma at or below it flags degenerate constraint gradients


@dataclass
class CheckReport:
    check_name: str
    samples: int
    worst_violation: float
    threshold: float
    passed: bool
    details: list = field(default_factory=list)

    @staticmethod
    def build(check_name, samples, worst_violation, threshold, details):
        return CheckReport(
            check_name=check_name,
            samples=samples,
            worst_violation=float(worst_violation),
            threshold=float(threshold),
            passed=bool(worst_violation <= threshold),
            details=details,
        )

    def to_json(self):
        return asdict(self)


def grad_check(prob, points):
    """Compare the analytic penalty gradient with central differences.

    Richardson-extrapolated central differences with per-coordinate steps;
    rank-degenerate constraint systems make h stiff near the feasible set
    and a plain second-order stencil cannot certify 1e-6 there.  Each point
    x is one row, then its 4n stencil points x + delta e_j, x + half e_j,
    x - delta e_j, x - half e_j, each x + S or x - S with one-hot rows of S.
    The rows of all points go to `h_value` in stacks of at most STACK_ROWS
    rows, so memory stays bounded in n and in the point count, and `h_grad`
    at x reads x's row of its stack (`point_row`).
    """
    X = np.array([np.asarray(x, dtype=float) for x in points])
    if not len(X):
        raise ValueError("grad_check needs at least one point")
    k, n = X.shape
    per = 4 * n + 1  # a point's rows: itself, then its stencil
    delta = np.cbrt(np.finfo(float).eps) * (1.0 + np.abs(X))
    half = 0.5 * delta
    steps = np.concatenate([delta, half], axis=1)
    h = np.empty(k * per)
    grads = [None] * k
    for start in range(0, k * per, STACK_ROWS):
        rows = np.arange(start, min(start + STACK_ROWS, k * per))
        at, s = np.divmod(rows, per)
        j = s - 1  # the stencil index; -1 on a point's own row, which x - 0 keeps
        S = np.zeros((rows.size, n))
        S[np.arange(rows.size), j % n] = np.where(j >= 0, steps[at, j % (2 * n)], 0.0)
        Y = X[at]
        plus = ((j >= 0) & (j < 2 * n))[:, None]
        block = {}
        h[rows] = h_value(prob, np.where(plus, Y + S, Y - S), block)
        for r in range(-start % per, rows.size, per):  # the points' own rows
            i = (start + r) // per
            grads[i] = h_grad(prob, X[i], point_row(block, r))
    H = h.reshape(k, per)[:, 1:]
    d1 = (H[:, :n] - H[:, 2 * n:3 * n]) / (2.0 * delta)
    d2 = (H[:, n:2 * n] - H[:, 3 * n:]) / (2.0 * half)
    gfd = (4.0 * d2 - d1) / 3.0
    details = []
    worst = 0.0
    for g, fd in zip(grads, gfd):
        rel = _norm(g - fd) / max(1.0, _norm(fd))
        worst = max(worst, rel)
        details.append({"rel_error": rel, "grad_norm": _norm(fd)})
    return CheckReport.build("grad_check", len(details), worst, GRAD_CHECK_THRESHOLD, details)


def assumption_a_check(amap, cmap, domain, feasible_points,
                       thresholds=ASSUMPTION_A_THRESHOLDS):
    """Structural identities of a dissolving map on the feasible set.

    Per point: the fixed-point residual ||A(x) - x||_inf, the Jacobian kernel
    residual ||gradA(x) G(x) lam|| / max(1, ||lam||) over KERNEL_SAMPLES
    random lam (one generator seeded 0 for all points), and the idempotency
    residual ||J J - J||_2 of the materialized Jacobian J.
    Each point takes two map products, A(x) and one vjp over the block of
    the samples' G(x) lam and the identity, and one normal-cone projection
    of the block [v, -v] at the largest kernel residual v.  Points must
    satisfy ||c(x)|| <= 1e-10 and lie in the domain.
    """
    thr_fix, thr_ker, thr_idem = thresholds
    rng = np.random.default_rng(0)
    n = domain.n
    k = KERNEL_SAMPLES if cmap.p else 0
    details = []
    worst = 0.0
    for x in feasible_points:
        x = np.asarray(x, dtype=float)
        if _norm(cmap.value(x)) > 1e-10 or not domain.contains(x):
            raise ValueError("assumption_a_check needs exactly feasible points")
        rec = {}
        point = {}  # A(x) and the vjp at x share one build of the map

        fix = float(np.max(np.abs(amap.value(x, point) - x))) if n else 0.0
        rec["fixed_point"] = fix

        # the samples' G(x) lam, then the identity, as the columns of one block
        Lam = rng.standard_normal((k, cmap.p))
        W = [cmap.jac_t_apply(np.broadcast_to(x, (k, n)), Lam).T] if k else []
        if n <= IDEMPOTENCY_DIM_GUARD:
            W.append(np.eye(n))
        V = amap.vjp(x, np.hstack(W), point) if W else np.zeros((n, 0))

        # each sample's ||gradA G lam|| / max(1, ||lam||), a NaN norm scaling
        # by 1; the report takes the first largest, a NaN residual skipped
        Vk = V[:, :k].T.copy()
        scale = np.fmax(np.sqrt(_dots(Lam, Lam)), 1.0)
        resid = np.sqrt(_dots(Vk, Vk)) / scale
        resid = np.where(resid > 0.0, resid, 0.0)
        ker = ker_span_dist = 0.0
        if resid.any():
            i = int(np.argmax(resid))
            v, ker = Vk[i], float(resid[i])
            # violations inside span(N(x)) flag a constraint gradient that is
            # normal to the domain, not a broken map; v and -v are projected
            # as the two columns of one block
            N = domain._normal_cone_project(x, np.column_stack([v, -v]))
            d_pos = _norm(v - N[:, 0])
            d_neg = _norm(v + N[:, 1])
            ker_span_dist = float(min(d_pos, d_neg) / scale[i])
        rec["kernel"] = ker
        rec["kernel_outside_normal_span"] = ker_span_dist

        if n <= IDEMPOTENCY_DIM_GUARD:
            J = V[:, k:].copy()
            idem = float(np.linalg.norm(J @ J - J, 2))
            rec["idempotency"] = idem
        else:
            idem = 0.0
            rec["idempotency"] = None
            rec["note"] = f"idempotency skipped: n > {IDEMPOTENCY_DIM_GUARD}"

        rec["ratio"] = max(fix / thr_fix, ker / thr_ker, idem / thr_idem)
        worst = max(worst, rec["ratio"])
        details.append(rec)
    if not details:
        raise ValueError("assumption_a_check needs at least one point")
    return CheckReport.build("assumption_a_check", len(details), worst, 1.0, details)


def pi_sigma(cmap, domain, x):
    """Least singular value of G(x) above 1e-10 times the largest (its r-th
    largest, r the numerical rank), else 0.0; small values flag a near-degenerate
    constraint qualification.  `domain` does not enter: its affine hull is R^n."""
    x = np.asarray(x, dtype=float)
    G = cmap.jac_columns(x)
    svals = np.linalg.svd(G, compute_uv=False) if min(G.shape) else np.zeros(0)
    r = int(np.sum(svals > 1e-10 * svals[0])) if svals.size else 0
    return float(svals[r - 1]) if r else 0.0


def local_error_bound_probe(cmap, domain, x_feasible, n_samples=200, seed=0):
    """Check ||G(y) c(y)|| >= (pi/2) ||c(y)|| on balls of the PROBE_RADII
    around a feasible point, with pi = pi_sigma at that point and n_samples
    samples per radius.  The samples of all radii are one draw of directions,
    then one of radius fractions, row i at radius i // n_samples.  The last
    entry of the report's details holds pi and the largest radius up to which
    every sample satisfied the bound ("held_radius")."""
    # 2.5 or True would pass `< 1`; a bad point would fail later in the SVD
    if (isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral)
            or n_samples < 1):
        raise ValueError(f"local_error_bound_probe needs an integer n_samples >= 1; "
                         f"got {n_samples!r}")
    x = np.asarray(x_feasible, dtype=float)
    if x.shape != (domain.n,) or not np.isfinite(x).all():
        raise ValueError(f"local_error_bound_probe needs a finite point of shape "
                         f"({domain.n},); got shape {x.shape}")
    rng = np.random.default_rng(seed)
    pi_val = pi_sigma(cmap, domain, x)
    if pi_val <= PI_SIGMA_FLOOR:
        details = [{"pi": pi_val, "held_radius": 0.0,
                    "note": "constraint gradients degenerate at base point"}]
        return CheckReport.build("local_error_bound_probe", 0, np.inf, 0.0, details)

    m = len(PROBE_RADII) * n_samples
    U = rng.standard_normal((m, x.size))
    frac = rng.random(m)
    nu = np.sqrt(_dots(U, U))
    keep = nu != 0.0  # a zero direction is skipped
    radii = np.repeat(PROBE_RADII, n_samples)[keep]
    Y = x + (radii * frac[keep])[:, None] * U[keep] / nu[keep, None]
    C = np.empty((len(Y), cmap.p))
    lhs = np.empty(len(Y))
    for start in range(0, len(Y), STACK_ROWS):
        rows = slice(start, start + STACK_ROWS)
        C[rows] = cmap.value(Y[rows])
        GC = cmap.jac_t_apply(Y[rows], C[rows])
        lhs[rows] = np.sqrt(_dots(GC, GC))
    gap = np.zeros(m)
    gap[keep] = 0.5 * pi_val * np.sqrt(_dots(C, C)) - lhs
    # the running max from 0.0 that Python's max takes: a NaN is skipped
    gap[~(gap > 0.0)] = 0.0
    worst = gap.reshape(len(PROBE_RADII), n_samples).max(axis=1)

    slack = 1e-12 * (1.0 + pi_val)
    details = []
    held_radius = 0.0
    for radius, v in zip(PROBE_RADII, worst.tolist()):
        details.append({"radius": radius, "worst_violation": v, "held": v <= slack})
        if all(d["held"] for d in details):
            held_radius = radius
    details.append({"pi": pi_val, "held_radius": held_radius})
    return CheckReport.build("local_error_bound_probe", n_samples * len(PROBE_RADII),
                             details[0]["worst_violation"], slack, details)
