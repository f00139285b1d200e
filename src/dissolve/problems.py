"""Seeded generators for the three benchmark families.

npca -- maximize variance of a nonnegative unit vector with an l1 sparsity
        charge: f(x) = -||B^T x||^2 / 2 + rho * sum(x), c(x) = ||x||^2 - 1,
        domain the nonnegative orthant, closed-form dissolving map.
qpb  -- indefinite quadratic over the unit ball with a shifted-sphere
        equality: f(x) = x^T Qmat x / 2 + q^T x, c(x) = ||x - d||^2 - 1.
fpca -- min-max reformulation of group-fair PCA in variables (P, y, z):
        f = z, per-group equalities plus a Frobenius-norm equality, domain
        spectral ball x box, the box y >= 0 with z free.

All generators are bit-reproducible functions of (dims, seed); tensors draw
from fixed sub-seeds.  Every family's constraint map takes stacks (see
`ConstraintMap`): row i of a call over an (N, n) stack of points, or of
multipliers and directions for the Hessian product, is bit-identical to a
call with row i alone.  npca and qpb share the closed form `_sphere_cmap`.
fpca's four callbacks take one product over the k stacked group matrices
and all points, with the per-group arithmetic of a loop over the groups, so
they are bit-identical to that loop; each point's P and each direction's is
a view with the strides of a single one's.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mappings import ConstraintMap, PenaltyProblem, build_aq, sphere_nonneg_map
from .sets import Box, NonnegOrthant, NormBall, Product, SpectralBall

logger = logging.getLogger("dissolve")

__all__ = [
    "ProblemInstance",
    "Family",
    "FAMILIES",
    "FPCA_BETA_GRID",
    "gen_instance",
    "gen_npca",
    "gen_qpb",
    "gen_fpca",
    "build_problem",
    "build_npca_problem",
    "build_qpb_problem",
    "build_fpca_problem",
    "feasible_points",
    "reference_small_oracle",
    "fpca_objective",
]

FPCA_BETA_GRID = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class ProblemInstance:
    family: str
    seed: int
    x0: np.ndarray
    data: dict

    def to_json(self):
        def conv(v):
            if isinstance(v, np.ndarray):
                return v.tolist()  # row-major nested lists
            if isinstance(v, (list, tuple)):
                return [conv(u) for u in v]
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            return v

        return {
            "family": self.family,
            "seed": int(self.seed),
            "x0": self.x0.tolist(),
            "data": {k: conv(v) for k, v in self.data.items()},
        }

    @staticmethod
    def from_json(obj):
        """Rebuild an instance; a seed that is not a nonnegative integer, a
        stored dim that is not a real number or that the family's generator
        would reject, a NaN or infinite entry in x0 or in a data array, or a
        stored dim that disagrees with the arrays raises ValueError."""
        fam = get_family(obj["family"])
        if type(obj["seed"]) is not int or obj["seed"] < 0:  # int() takes 2.7, true, "3"
            raise ValueError(f"instance seed {obj['seed']!r} is not a nonnegative integer")
        data = dict(obj["data"])
        dims = {key: data[key] for key in fam.cli_dims}
        for key, value in dims.items():
            # a bool is a numbers.Real; a string would print as it is in the CSV row
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"instance dim {key} {value!r} is not a real number")
        fam.check(**dims)
        x0 = np.array(obj["x0"], dtype=float)
        for key in fam.arrays:
            data[key] = np.array(data[key], dtype=float)
        for key in fam.array_lists:
            data[key] = [np.array(v, dtype=float) for v in data[key]]
        named = [("x0", x0), *((key, data[key]) for key in fam.arrays),
                 *((f"{key}[{i}]", v) for key in fam.array_lists
                   for i, v in enumerate(data[key]))]
        for name, v in named:
            if not np.isfinite(v).all():
                raise ValueError(f"instance {name} has a NaN or infinite entry")
        for what, shape, want in fam.shapes(data):
            if shape != want:
                raise ValueError(f"instance {what} {shape} disagrees with stored dims: {want}")
        return ProblemInstance(
            family=obj["family"],
            seed=obj["seed"],
            x0=x0,
            data=data,
        )

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return ProblemInstance.from_json(json.load(fh))


def _rng(family, seed, tensor):
    return np.random.default_rng([int(seed), FAMILIES[family].subseed, int(tensor)])


# ---------------------------------------------------------------- npca


def _sphere_cmap(d):
    """c(x) = ||x - d||^2 - 1, the unit sphere about d: npca's with d = 0,
    qpb's about its centre.  Each dot product is a stacked (1, n) @ (n, 1)
    matmul, whose slices keep the bits of the one-point (x - d) @ (x - d);
    p = 1, so a multiplier v is its own v[..., :1]."""

    def value(x):
        r = x - d
        return (r[..., None, :] @ r[..., :, None])[..., 0] - 1.0

    return ConstraintMap(p=1, value=value,
                         jac_t_apply=lambda x, v: 2.0 * v * (x - d),
                         hess_apply=lambda x, lam, dd: 2.0 * lam * dd,
                         jac_columns=lambda x: np.stack([2.0 * (x - d)], axis=-1))


def build_npca_problem(B, rho, beta=None):
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    rho = float(rho)

    # B^T x for the last x, finite or not, keyed by its exact bytes: f and
    # its gradient at one point share one product, and equal bytes give
    # equal products, NaN entries included
    memo = [(None, None)]

    def bt(x):
        key = x.tobytes()
        if memo[0][0] != key:
            memo[0] = (key, B.T @ x)
        return memo[0][1]

    def f_value(x):
        bx = bt(x)
        return -0.5 * float(bx @ bx) + rho * float(x.sum())

    def f_grad(x):
        return -(B @ bt(x)) + rho

    cmap = _sphere_cmap(0.0)
    domain = NonnegOrthant(n)
    amap = sphere_nonneg_map()
    return PenaltyProblem(f_value=f_value, f_grad=f_grad, cmap=cmap, amap=amap,
                          domain=domain, beta=FAMILIES["npca"].beta if beta is None else beta)


def _check_npca(n, m_cols, rho=0.0):
    if n < 1 or m_cols < 1 or not math.isfinite(rho):
        raise ValueError(f"npca needs n, m_cols >= 1, finite rho; got {n}, {m_cols}, {rho}")


def gen_npca(n, m_cols, rho=0.0, seed=0, beta=None):
    """Data matrix rescaled so its spectral norm equals its column count;
    start from the normalized absolute value of a Gaussian vector."""
    _check_npca(n, m_cols, rho)
    B = _rng("npca", seed, 0).standard_normal((n, m_cols))
    B *= m_cols / np.linalg.norm(B, 2)
    g = _rng("npca", seed, 1).standard_normal(n)
    x0 = np.abs(g) / np.linalg.norm(g)
    inst = ProblemInstance(family="npca", seed=seed, x0=x0,
                           data={"B": B, "rho": float(rho),
                                 "n": int(n), "m_cols": int(m_cols)})
    return inst, build_npca_problem(B, rho, beta=beta)


# ---------------------------------------------------------------- qpb


def build_qpb_problem(Qmat, qvec, d, beta=None):
    Qmat = np.asarray(Qmat, dtype=float)
    qvec = np.asarray(qvec, dtype=float)
    d = np.asarray(d, dtype=float)
    n = qvec.size
    if d.shape != (n,):  # a one-entry d would broadcast to another sphere
        raise ValueError(f"qpb needs a centre d of shape ({n},); got {d.shape}")

    def f_value(x):
        return 0.5 * float(x @ (Qmat @ x)) + float(qvec @ x)

    def f_grad(x):
        return Qmat @ x + qvec

    cmap = _sphere_cmap(d)
    domain = NormBall(n, radius=1.0, exponent=2.0)
    amap = build_aq(domain, cmap)
    return PenaltyProblem(f_value=f_value, f_grad=f_grad, cmap=cmap, amap=amap,
                          domain=domain, beta=FAMILIES["qpb"].beta if beta is None else beta)


def _check_qpb(n, edge_density=0.5):
    if n < 2 or not 0.0 < edge_density <= 1.0:
        raise ValueError(f"qpb needs n >= 2, edge_density in (0, 1]; got {n}, {edge_density}")


def gen_qpb(n, edge_density=0.5, seed=0, beta=None):
    """Laplacian of a random graph, negated and Frobenius-normalized; the
    linear term is a normalized uniform vector."""
    _check_qpb(n, edge_density)
    iu = np.triu_indices(n, 1)
    for attempt in range(100):  # sub-seeds stay below the linear term's 1000
        edges = _rng("qpb", seed, attempt).random(iu[0].size) < edge_density
        if edges.any():
            break
        logger.warning("qpb seed %s produced an empty graph; regenerating "
                       "with sub-seed %s", seed, attempt + 1)
    else:
        raise ValueError(f"qpb seed {seed} drew no edge in 100 graphs")
    adj = np.zeros((n, n))
    adj[iu[0][edges], iu[1][edges]] = 1.0
    adj = adj + adj.T
    lap = np.diag(adj.sum(axis=1)) - adj
    Qmat = -lap / np.linalg.norm(lap, "fro")
    qprime = _rng("qpb", seed, 1000).random(n)
    qvec = qprime / np.linalg.norm(qprime)
    g = _rng("qpb", seed, 1001).standard_normal(n)
    x0 = g / np.linalg.norm(g)
    while np.linalg.norm(x0) > 1.0:  # land inside the ball exactly
        x0 = x0 / np.linalg.norm(x0)
    d = 0.5 * np.eye(1, n)[0]
    inst = ProblemInstance(family="qpb", seed=seed, x0=x0,
                           data={"Qmat": Qmat, "qvec": qvec, "d": d,
                                 "n": int(n), "edge_density": float(edge_density)})
    return inst, build_qpb_problem(Qmat, qvec, d, beta=beta)


# ---------------------------------------------------------------- fpca


def fpca_objective(P, data):
    """max over groups of the normalized reconstruction gap."""
    vals = [(data["hat_sq"][i] - np.linalg.norm(data["A"][i] @ P, "fro") ** 2)
            / data["m"][i] for i in range(len(data["A"]))]
    return float(np.max(vals))


def build_fpca_problem(A_list, d, hat_sq, m_sizes, beta=None):
    """fpca over groups A_list; hat_sq[i] is the sum of A_i's d largest
    squared singular values and m_sizes[i] the group's normalizer, as
    `gen_fpca` computes them."""
    A_list = [np.asarray(A, dtype=float) for A in A_list]
    k = len(A_list)
    n = A_list[0].shape[1]
    d = int(d)
    pe, ye = n * d, n * d + k  # end of the P block, end of the y block
    dim = ye + 1
    hat = np.array(hat_sq, dtype=float)
    msz = np.array(m_sizes, dtype=float)
    # the k groups stacked, so that c_value, jac_t, jac_columns and hess take
    # one product over all groups
    AtA_stack = np.stack([A.T @ A for A in A_list])
    g2_arr = -2.0 / msz
    g2_col = g2_arr[:, None, None]
    eye_k = np.eye(k)

    def mat_p(x):
        # P of one point (n, d) or of each point of a stack (N, n, d): the
        # column-major view of x's first n*d entries
        return x[..., :pe].reshape(x.shape[:-1] + (d, n)).swapaxes(-1, -2)

    def sum_last2(M):  # the sum over each (m, d) slice, in row-major order
        return (M * M).reshape(M.shape[:-2] + (-1,)).sum(axis=-1)

    if len({A.shape for A in A_list}) == 1:
        A_stack = np.stack(A_list)

        def group_sq(P):  # ||A_i P||_F^2 of every group, groups last
            return sum_last2(A_stack @ P[..., None, :, :])
    else:  # groups of unequal size do not stack

        def group_sq(P):
            return np.stack([sum_last2(A @ P) for A in A_list], axis=-1)

    def f_value(x):
        return float(x[ye])

    def f_grad(x):
        g = np.zeros(dim)
        g[ye] = 1.0
        return g

    # c_value, jac_t and jac_columns take one point or a stack of points;
    # hess takes one point with one multiplier and direction or a stack of each
    def c_value(x):
        P = mat_p(x)
        xp = x[..., :pe]
        out = np.empty(x.shape[:-1] + (k + 1,))
        out[..., :k] = (hat - group_sq(P)) / msz + x[..., pe:ye] - x[..., ye, None]
        out[..., k] = (xp * xp).sum(axis=-1) - d
        return out

    def jac_t(x, v):
        # every constraint is quadratic in P, so the P block of G(x) v is the
        # Hessian product along P itself
        out = hess(x, v, x)
        out[..., pe:ye] = v[..., :k]
        out[..., ye] = -v[..., :k].sum(axis=-1)
        return out

    def jac_columns(x):
        # column i is jac_t(x, e_i), with the same operations in the same
        # order: the zero start, the group term, then the Frobenius term
        P = mat_p(x)[..., None, :, :]
        lead = x.shape[:-1]
        G = np.zeros(lead + (dim, k + 1))
        GP = (0.0 + g2_col * (AtA_stack @ P)) + 0.0 * P
        G[..., :pe, :k] = GP.swapaxes(-1, -3).reshape(lead + (pe, k))
        G[..., :pe, k] = 0.0 + 2.0 * x[..., :pe]
        G[..., pe:ye, :k] = eye_k
        G[..., ye, :k] = -1.0
        G[..., ye, k] = -0.0
        return G

    def hess(x, lam, dd):
        # one (lam, dd) or, at the one point x, an (m, p) and (m, n) stack
        DP = mat_p(dd)
        coef = lam[..., :k] * g2_arr
        terms = coef[..., None, None] * (AtA_stack @ DP[..., None, :, :])
        if not (coef != 0.0).all():
            # a zero multiplier adds nothing, even against a non-finite term
            terms = np.where(coef[..., None, None] != 0.0, terms, 0.0)
        HP = np.zeros(DP.shape)
        for i in range(k):
            HP += terms[..., i, :, :]
        HP += (lam[..., k] * 2.0)[..., None, None] * DP
        out = np.zeros(dd.shape)
        out[..., :pe] = HP.swapaxes(-1, -2).reshape(dd.shape[:-1] + (pe,))
        return out

    cmap = ConstraintMap(p=k + 1, value=c_value, jac_t_apply=jac_t,
                         hess_apply=hess, jac_columns=jac_columns)
    # y >= 0 and z free as one box, so each Q kernel makes one Box call
    domain = Product([SpectralBall(n, d),
                      Box(np.r_[np.zeros(k), -np.inf], np.full(k + 1, np.inf))])
    amap = build_aq(domain, cmap)
    return PenaltyProblem(f_value=f_value, f_grad=f_grad, cmap=cmap, amap=amap,
                          domain=domain, beta=FAMILIES["fpca"].beta if beta is None else beta)


def _check_fpca(n, k, d):
    if min(n, k, d) < 1 or d > n:
        raise ValueError(f"fpca needs n, k, d >= 1, d <= n; got n={n}, k={k}, d={d}")


def gen_fpca(n, k, d, seed=0, beta=None):
    """Square standard-normal group matrices; the start point scales a random
    matrix to Frobenius norm sqrt(d) and is pulled into the spectral ball
    (logged) when its top singular value exceeds one."""
    _check_fpca(n, k, d)
    A_list = [_rng("fpca", seed, i).standard_normal((n, n)) for i in range(k)]
    hat_sq = np.array([np.sum(np.linalg.svd(A, compute_uv=False)[:d] ** 2)
                       for A in A_list])
    m_sizes = np.full(k, float(n))
    data = {"A": A_list, "hat_sq": hat_sq, "m": m_sizes,
            "n": int(n), "k": int(k), "d": int(d)}

    R = _rng("fpca", seed, 1000).standard_normal((n, d))
    P0 = np.sqrt(d) * R / np.linalg.norm(R, "fro")
    s1 = np.linalg.norm(P0, 2)
    if s1 > 1.0:
        logger.info("fpca seed %s: start scaled by 1/%.6f to enter the "
                    "spectral ball", seed, s1)
        while np.linalg.norm(P0, 2) > 1.0:
            P0 = P0 / np.linalg.norm(P0, 2)
    z0 = fpca_objective(P0, data) + 1.0
    g0 = np.array([(hat_sq[i] - np.sum((A_list[i] @ P0) ** 2)) / m_sizes[i]
                   for i in range(k)])
    y0 = z0 - g0  # slacks solve the group equalities; all >= 1 by choice of z0
    x0 = np.concatenate([P0.reshape(-1, order="F"), y0, [z0]])
    inst = ProblemInstance(family="fpca", seed=seed, x0=x0, data=data)
    return inst, build_fpca_problem(A_list, d, hat_sq=hat_sq, m_sizes=m_sizes,
                                    beta=beta)


# ---------------------------------------------------------------- shared


def _npca_feasible(data, rng):
    g = np.abs(rng.standard_normal(data["n"]))
    return g / np.linalg.norm(g)


def _qpb_centre(data):  # the sampler's and the oracle's closed forms know only 0.5 e_1
    if not np.array_equal(data["d"], 0.5 * np.eye(1, data["n"])[0]):
        raise ValueError("qpb's feasible sampler and oracle need the centre d = 0.5 e_1")
    return data["d"]


def _qpb_feasible(data, rng):
    d = _qpb_centre(data)
    for _ in range(200):  # rejection keeps the ball constraint
        u = rng.standard_normal(d.size)
        u /= np.linalg.norm(u)
        if np.linalg.norm(d + u) <= 1.0:
            return d + u
    # the feasible cap needs u_1 <= -1/4, which a uniform sphere direction
    # almost never hits at large n; build it directly
    s = 0.25 + 0.75 * rng.random()
    w = rng.standard_normal(d.size - 1)
    w *= np.sqrt(max(0.0, 1.0 - s * s)) / np.linalg.norm(w)
    u = np.concatenate([[-s], w])
    u /= np.linalg.norm(u)
    x = d + u
    return x if np.linalg.norm(x) <= 1.0 else None


def _fpca_feasible(data, rng):
    n, k, d = data["n"], data["k"], data["d"]
    P, _ = np.linalg.qr(rng.standard_normal((n, d)))
    g = np.array([(data["hat_sq"][i] - np.sum((data["A"][i] @ P) ** 2))
                  / data["m"][i] for i in range(k)])
    z = float(np.max(g) + 0.5 + rng.random())
    y = z - g
    return np.concatenate([P.reshape(-1, order="F"), y, [z]])


def _npca_oracle(data):
    B, rho, n = data["B"], data["rho"], data["n"]
    if n > 3:
        raise ValueError("oracle supports npca only up to n = 3")
    if n == 1:
        xs = np.ones((1, 1))
    elif n == 2:
        theta = np.linspace(0.0, np.pi / 2, 2001)
        xs = np.vstack([np.cos(theta), np.sin(theta)])
    else:
        t1 = np.linspace(0.0, np.pi / 2, 1000)
        t2 = np.linspace(0.0, np.pi / 2, 1000)
        T1, T2 = np.meshgrid(t1, t2, indexing="ij")
        xs = np.vstack([(np.cos(T1)).ravel(),
                        (np.sin(T1) * np.cos(T2)).ravel(),
                        (np.sin(T1) * np.sin(T2)).ravel()])
    vals = -0.5 * np.sum((B.T @ xs) ** 2, axis=0) + rho * np.sum(xs, axis=0)
    return float(vals.min())


def _qpb_oracle(data):
    if data["n"] != 2:
        raise ValueError("oracle supports qpb only at n = 2")
    _qpb_centre(data)
    Qm, qv = data["Qmat"], data["qvec"]
    # arc of the shifted unit circle inside the unit ball: cos(theta) <= -1/4
    t0 = np.arccos(-0.25)
    theta = np.linspace(t0, 2.0 * np.pi - t0, 100_001)
    xs = np.vstack([0.5 + np.cos(theta), np.sin(theta)])
    mask = np.sum(xs * xs, axis=0) <= 1.0 + 1e-12
    xs = xs[:, mask]
    vals = 0.5 * np.sum(xs * (Qm @ xs), axis=0) + qv @ xs
    return float(vals.min())


@dataclass(frozen=True)
class Family:
    """What the library and the CLI know about one benchmark family: every
    per-family choice is a field here, so no caller branches on the name."""

    generate: Callable      # (**dims, seed=, beta=) -> (instance, problem)
    check: Callable         # (**dims) -> None; raises ValueError as generate does
    build: Callable         # (instance data, beta) -> problem
    arrays: tuple           # data fields that JSON holds as arrays
    feasible: Callable      # (data, rng) -> a feasible point, or None to redraw
    subseed: int            # RNG sub-seed of the generator and the samplers
    cli_dims: dict          # generator keyword -> CLI option
    extra_dims: str         # CSV extra_dims column, formatted with the dims
    tol: float              # CLI tolerance on stationarity and feasibility
    beta: float             # default penalty weight
    beta_grid: tuple        # betas `dissolve bench` tries
    oracle: Callable | None  # (data) -> brute-force optimum of a tiny instance
    shapes: Callable        # (data) -> [(what, the arrays' shape, the stored dims' shape)]
    array_lists: tuple = ()  # data fields that JSON holds as lists of arrays


FAMILIES = {
    "npca": Family(
        generate=gen_npca, check=_check_npca,
        build=lambda data, beta: build_npca_problem(data["B"], data["rho"], beta=beta),
        arrays=("B",), feasible=_npca_feasible, oracle=_npca_oracle, subseed=11,
        shapes=lambda d: [("B shape", d["B"].shape, (d["n"], d["m_cols"]))],
        cli_dims={"n": "n", "m_cols": "cols", "rho": "rho"},
        extra_dims="cols={m_cols}", tol=1e-6, beta=100.0, beta_grid=(100.0,)),
    "qpb": Family(
        generate=gen_qpb, check=_check_qpb,
        build=lambda data, beta: build_qpb_problem(data["Qmat"], data["qvec"], data["d"], beta),
        arrays=("Qmat", "qvec", "d"), feasible=_qpb_feasible, oracle=_qpb_oracle,
        shapes=lambda d: [(key + " shape", d[key].shape, want) for key, want in (
            ("Qmat", (d["n"], d["n"])), ("qvec", (d["n"],)), ("d", (d["n"],)))],
        subseed=22, cli_dims={"n": "n", "edge_density": "edge_density"},
        extra_dims="", tol=1e-6, beta=10.0, beta_grid=(10.0,)),
    "fpca": Family(
        generate=gen_fpca, check=_check_fpca,
        build=lambda data, beta: build_fpca_problem(
            data["A"], data["d"], hat_sq=data["hat_sq"], m_sizes=data["m"], beta=beta),
        arrays=("hat_sq", "m"), array_lists=("A",), feasible=_fpca_feasible,
        shapes=lambda d: [
            ("hat_sq shape", d["hat_sq"].shape, (d["k"],)), ("m shape", d["m"].shape, (d["k"],)),
            ("A group count", (len(d["A"]),), (d["k"],)),
            *((f"A[{i}] column count", A.shape[1:], (d["n"],)) for i, A in enumerate(d["A"]))],
        oracle=None, subseed=33, cli_dims={"n": "n", "k": "k", "d": "d"},
        extra_dims="k={k};d={d}", tol=1e-4, beta=1.0, beta_grid=FPCA_BETA_GRID),
}


def get_family(name):
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


def gen_instance(family, seed=0, beta=None, **dims):
    return get_family(family).generate(seed=seed, beta=beta, **dims)


def build_problem(instance, beta=None):
    """Rebuild the penalty problem from a (possibly deserialized) instance."""
    return get_family(instance.family).build(instance.data, beta)


def feasible_points(instance, count, seed=0):
    """Exactly feasible samples for the structural checks, one list per call."""
    fam = get_family(instance.family)
    rng = np.random.default_rng([int(seed), 77, fam.subseed])
    out = []
    while len(out) < count:
        x = fam.feasible(instance.data, rng)
        if x is not None:
            out.append(x)
    return out


def near_feasible_points(instance, count, seed=0, scale=0.05):
    """Points in the domain near (not on) the feasible set.

    A floor on the constraint violation keeps the samples away from the
    feasible manifold itself, where rank-degenerate constraint systems make
    the penalty objective arbitrarily stiff; the perturbation grows
    deterministically until the floor holds.
    """
    rng = np.random.default_rng([int(seed), 78, get_family(instance.family).subseed])
    prob = build_problem(instance)
    out = []
    for x in feasible_points(instance, count, seed=seed):
        direction = rng.standard_normal(x.size)
        width = scale
        for _ in range(40):
            y = prob.domain.project(x + width * direction)
            if np.linalg.norm(prob.cmap.value(y)) >= 0.25 * scale:
                break
            width *= 1.5
        out.append(y)
    return out


def reference_small_oracle(instance):
    """Brute-force optimum for tiny instances (npca with n <= 3, qpb with n = 2)."""
    oracle = get_family(instance.family).oracle
    if oracle is None:
        raise ValueError(f"oracle does not cover family {instance.family!r}")
    return oracle(instance.data)
