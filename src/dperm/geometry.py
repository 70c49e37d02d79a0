"""Convex constraint sets: membership, linear minimization, norms, projections.

Every body is closed, convex and bounded.  The operations here are pure
functions of their inputs and safe to call concurrently; the Monte-Carlo
width estimator takes its seed explicitly, so an estimate is reproducible.

A quantity of the public body alone (its Gaussian width, a polytope's
symmetry) is computed once per process by ``memo_by_body``, keyed by
``body_key``, the sorted JSON of ``body.to_dict()``.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linprog

# Absolute tolerance on membership / optimality checks.
FEAS_TOL = 1e-9

# Polytopes above this vertex count would make the coefficient LPs too slow.
MAX_POLYTOPE_VERTICES = 10_000

# Rows of |G| formed at a time by ``row_abs_max``.
ROW_BLOCK = 8192

# Gaussian vectors drawn at a time by ``gaussian_width_mc``.
WIDTH_BATCH = 4096


def _as_vector(x, dim: int, name: str = "x") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise ValueError(f"{name} must be a vector of dimension {dim}, got shape {v.shape}")
    return v


def _check_finite(v: np.ndarray, name: str = "direction") -> None:
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")


def row_abs_max(G: np.ndarray) -> np.ndarray:
    """max_j |G_ij| for every row i.  |G| is formed one block of rows at a
    time, which needs less memory and, in cache, less time than whole."""
    out = np.empty(G.shape[0])
    for i in range(0, G.shape[0], ROW_BLOCK):
        np.abs(G[i:i + ROW_BLOCK]).max(axis=1, out=out[i:i + ROW_BLOCK])
    return out


class ConvexBody:
    """Base class for constraint sets.

    Subclasses implement membership, the linear minimization oracle (LMO),
    the Minkowski gauge and its dual (row-batched, as ``dual_norms``),
    diameters, and (where supported) Euclidean projection.
    """

    dimension: int
    is_symmetric: bool = False

    # -- interface -------------------------------------------------------

    def contains(self, x) -> bool:
        raise NotImplementedError

    def lmo(self, direction) -> np.ndarray:
        """Return a point of the body minimizing <direction, .>.

        A zero direction is legal: every point ties, and the canonical
        tie-break (lowest vertex/coordinate index; center for balls)
        applies.  NaN directions are rejected.
        """
        raise NotImplementedError

    def minkowski_norm(self, v) -> float:
        """Gauge of the body: min {r >= 0 : v in r*C}.

        Only defined for centrally symmetric bodies.
        """
        raise NotImplementedError

    def dual_norm(self, v) -> float:
        """max over w in C of |<w, v>|."""
        v = _as_vector(v, self.dimension, "v")
        return float(self.dual_norms(v[None, :])[0])

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        """The dual norm of each row of G (k, p): max over w in C of |<w, g>|."""
        raise NotImplementedError

    def l2_diameter(self) -> float:
        raise NotImplementedError

    def l1_radius(self) -> float:
        """max over C of ||theta||_1."""
        raise NotImplementedError

    def euclidean_project(self, x) -> np.ndarray:
        raise NotImplementedError(
            f"euclidean projection is not supported for {type(self).__name__}"
        )

    def canonical_point(self) -> np.ndarray:
        """Deterministic starting point: center for balls/boxes, barycenter otherwise."""
        raise NotImplementedError

    def vertices(self) -> np.ndarray:
        """Explicit vertex list (k, p) for vertex-enumerable bodies."""
        raise ValueError(f"{type(self).__name__} has no finite vertex list")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class L2Ball(ConvexBody):
    """Euclidean ball of a given radius centered at the origin."""

    radius: float
    dimension: int
    is_symmetric = True

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return float(np.linalg.norm(v)) <= self.radius + FEAS_TOL

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        nrm = np.linalg.norm(d)
        if nrm == 0.0:
            return self.canonical_point()
        return -(self.radius / nrm) * d

    def minkowski_norm(self, v) -> float:
        v = _as_vector(v, self.dimension, "v")
        _check_finite(v, "v")
        return float(np.linalg.norm(v)) / self.radius

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return self.radius * np.linalg.norm(G, axis=1)

    def l2_diameter(self) -> float:
        return 2.0 * self.radius

    def l1_radius(self) -> float:
        return self.radius * math.sqrt(self.dimension)

    def euclidean_project(self, x) -> np.ndarray:
        v = _as_vector(x, self.dimension)
        nrm = np.linalg.norm(v)
        if nrm <= self.radius:
            return v.copy()
        return (self.radius / nrm) * v

    def canonical_point(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def to_dict(self) -> dict:
        return {"kind": "l2_ball", "dimension": self.dimension, "radius": self.radius}


@dataclass(frozen=True, eq=False)
class L1Ball(ConvexBody):
    """l1 ball of a given radius; vertex-enumerable (2p signed unit vectors).

    Vertex order is [+r*e_1, ..., +r*e_p, -r*e_1, ..., -r*e_p]; LMO ties
    are broken by lowest index in this list.
    """

    radius: float
    dimension: int
    is_symmetric = True

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return float(np.abs(v).sum()) <= self.radius + FEAS_TOL

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        scores = np.concatenate([self.radius * d, -self.radius * d])
        idx = int(np.argmin(scores))
        out = np.zeros(self.dimension)
        if idx < self.dimension:
            out[idx] = self.radius
        else:
            out[idx - self.dimension] = -self.radius
        return out

    def minkowski_norm(self, v) -> float:
        v = _as_vector(v, self.dimension, "v")
        _check_finite(v, "v")
        return float(np.abs(v).sum()) / self.radius

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return self.radius * row_abs_max(G)

    def l2_diameter(self) -> float:
        return 2.0 * self.radius

    def l1_radius(self) -> float:
        return self.radius

    def euclidean_project(self, x) -> np.ndarray:
        v = _as_vector(x, self.dimension)
        if np.abs(v).sum() <= self.radius:
            return v.copy()
        mags = _project_simplex(np.abs(v), self.radius)
        return np.sign(v) * mags

    def canonical_point(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def vertices(self) -> np.ndarray:
        eye = self.radius * np.eye(self.dimension)
        return np.vstack([eye, -eye])

    def to_dict(self) -> dict:
        return {"kind": "l1_ball", "dimension": self.dimension, "radius": self.radius}


@dataclass(frozen=True, eq=False)
class Simplex(ConvexBody):
    """Probability simplex {theta >= 0, sum(theta) = 1}; vertices are e_1..e_p."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return bool(np.all(v >= -FEAS_TOL) and abs(v.sum() - 1.0) <= FEAS_TOL)

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        out = np.zeros(self.dimension)
        out[int(np.argmin(d))] = 1.0
        return out

    def minkowski_norm(self, v) -> float:
        raise ValueError("the simplex is not centrally symmetric; its gauge is undefined")

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return row_abs_max(G)

    def l2_diameter(self) -> float:
        return math.sqrt(2.0) if self.dimension > 1 else 0.0

    def l1_radius(self) -> float:
        return 1.0

    def euclidean_project(self, x) -> np.ndarray:
        v = _as_vector(x, self.dimension)
        return _project_simplex(v, 1.0)

    def canonical_point(self) -> np.ndarray:
        return np.full(self.dimension, 1.0 / self.dimension)

    def vertices(self) -> np.ndarray:
        return np.eye(self.dimension)

    def to_dict(self) -> dict:
        return {"kind": "simplex", "dimension": self.dimension}


@dataclass(frozen=True, eq=False)
class Polytope(ConvexBody):
    """Convex hull of an explicit vertex list (V-representation only)."""

    vertex_array: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.vertex_array, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValueError("vertex list must be a (k, p) array with k >= 1")
        if V.shape[0] > MAX_POLYTOPE_VERTICES:
            raise ValueError(
                f"polytope has {V.shape[0]} vertices; more than "
                f"{MAX_POLYTOPE_VERTICES} is rejected to keep the coefficient LPs small"
            )
        object.__setattr__(self, "vertex_array", V)

    @property
    def dimension(self) -> int:
        return self.vertex_array.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertex_array.shape[0]

    @cached_property
    def is_symmetric(self) -> bool:
        # Symmetric iff every vertex's negation is also in the hull.  A list
        # whose negated rows are a permutation of its rows passes with no LP;
        # any other takes one LP per vertex, so computed once per vertex list.
        V = self.vertex_array
        return memo_by_body(self, "is_symmetric", lambda: (
            np.array_equal(V[np.lexsort(V.T)], -V[np.lexsort(-V.T)])
            or all(self._in_hull(-v) for v in V)))

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return self._in_hull(v)

    def _in_hull(self, x: np.ndarray) -> bool:
        # min t  s.t.  |V^T a - x| <= t,  sum a = 1,  a >= 0
        V = self.vertex_array
        k, p = V.shape
        c = np.zeros(k + 1)
        c[-1] = 1.0
        A_ub = np.zeros((2 * p, k + 1))
        A_ub[:p, :k] = V.T
        A_ub[:p, -1] = -1.0
        A_ub[p:, :k] = -V.T
        A_ub[p:, -1] = -1.0
        b_ub = np.concatenate([x, -x])
        A_eq = np.zeros((1, k + 1))
        A_eq[0, :k] = 1.0
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                      bounds=[(0, None)] * k + [(0, None)], method="highs")
        if not res.success:
            return False
        return res.fun <= FEAS_TOL

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        scores = self.vertex_array @ d
        return self.vertex_array[int(np.argmin(scores))].copy()

    def minkowski_norm(self, v) -> float:
        """Gauge via the coefficient LP: min sum|a_i| s.t. sum a_i v_i = v.

        Signed coefficients make this the gauge of the symmetric hull of
        the vertex list, which equals the body's own gauge when the body
        is centrally symmetric.
        """
        if not self.is_symmetric:
            raise ValueError("Minkowski norm requires a centrally symmetric polytope")
        v = _as_vector(v, self.dimension, "v")
        _check_finite(v, "v")
        return _coefficient_l1_lp(self.vertex_array, v)

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return np.abs(G @ self.vertex_array.T).max(axis=1)

    def l2_diameter(self) -> float:
        V = self.vertex_array
        sq = np.sum(V * V, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (V @ V.T)
        return math.sqrt(max(float(d2.max()), 0.0))

    def l1_radius(self) -> float:
        return float(np.abs(self.vertex_array).sum(axis=1).max())

    def canonical_point(self) -> np.ndarray:
        return self.vertex_array.mean(axis=0)

    def vertices(self) -> np.ndarray:
        return self.vertex_array

    def to_dict(self) -> dict:
        return {"kind": "polytope", "vertices": self.vertex_array.tolist()}


def block_slices(dimension: int, group_size: int) -> list[slice]:
    """The contiguous blocks of ``group_size`` coordinates; the last may be shorter."""
    return [slice(i, min(i + group_size, dimension)) for i in range(0, dimension, group_size)]


@dataclass(frozen=True, eq=False)
class GroupedL1Ball(ConvexBody):
    """Ball of the grouped l1 norm: sum over blocks of the block l2 norm.

    Coordinates are split into contiguous blocks of `group_size` (the last
    block may be shorter).
    """

    radius: float
    group_size: int
    dimension: int
    is_symmetric = True

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not (1 <= self.group_size <= self.dimension):
            raise ValueError("group size must be in [1, dimension]")

    def _block_norms(self, v: np.ndarray) -> np.ndarray:
        return np.array([np.linalg.norm(v[s]) for s in block_slices(self.dimension,
                                                                    self.group_size)])

    def grouped_norm(self, v) -> float:
        v = _as_vector(v, self.dimension, "v")
        return float(self._block_norms(v).sum())

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return self.grouped_norm(v) <= self.radius + FEAS_TOL

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        norms = self._block_norms(d)
        j = int(np.argmax(norms))
        out = np.zeros(self.dimension)
        if norms[j] == 0.0:
            return out
        s = block_slices(self.dimension, self.group_size)[j]
        out[s] = -(self.radius / norms[j]) * d[s]
        return out

    def minkowski_norm(self, v) -> float:
        v = _as_vector(v, self.dimension, "v")
        _check_finite(v, "v")
        return self.grouped_norm(v) / self.radius

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        block_norms = np.stack(
            [np.linalg.norm(G[:, s], axis=1)
             for s in block_slices(self.dimension, self.group_size)], axis=1
        )
        return self.radius * block_norms.max(axis=1)

    def l2_diameter(self) -> float:
        return 2.0 * self.radius

    def l1_radius(self) -> float:
        return self.radius * math.sqrt(self.group_size)

    def euclidean_project(self, x) -> np.ndarray:
        v = _as_vector(x, self.dimension)
        norms = self._block_norms(v)
        if norms.sum() <= self.radius:
            return v.copy()
        shrunk = _project_simplex(norms, self.radius)
        out = v.copy()
        for s, n, m in zip(block_slices(self.dimension, self.group_size), norms, shrunk):
            out[s] = 0.0 if n == 0.0 else v[s] * (m / n)
        return out

    def canonical_point(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def to_dict(self) -> dict:
        return {
            "kind": "grouped_l1_ball",
            "dimension": self.dimension,
            "radius": self.radius,
            "group_size": self.group_size,
        }


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    """Axis-aligned box [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be vectors of the same dimension")
        if np.any(lo > hi):
            raise ValueError("need lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return bool(np.allclose(self.lo, -self.hi, atol=FEAS_TOL))

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return bool(np.all(v >= self.lo - FEAS_TOL) and np.all(v <= self.hi + FEAS_TOL))

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        # d_i = 0 ties resolve to the lower corner.
        return np.where(d > 0, self.lo, np.where(d < 0, self.hi, self.lo))

    def minkowski_norm(self, v) -> float:
        if not self.is_symmetric:
            raise ValueError("Minkowski norm requires a symmetric box (lo = -hi)")
        v = _as_vector(v, self.dimension, "v")
        _check_finite(v, "v")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(self.hi > 0, np.abs(v) / self.hi,
                              np.where(np.abs(v) > 0, np.inf, 0.0))
        return float(ratios.max())

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        # The largest and the smallest <w, g> over the box, per row.
        hi_val = np.where(G > 0, self.hi * G, self.lo * G).sum(axis=1)
        lo_val = np.where(G > 0, self.lo * G, self.hi * G).sum(axis=1)
        return np.maximum(np.abs(hi_val), np.abs(lo_val))

    def l2_diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def l1_radius(self) -> float:
        return float(np.maximum(np.abs(self.lo), np.abs(self.hi)).sum())

    def euclidean_project(self, x) -> np.ndarray:
        v = _as_vector(x, self.dimension)
        return np.clip(v, self.lo, self.hi)

    def canonical_point(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def to_dict(self) -> dict:
        return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


# ---------------------------------------------------------------------------
# Per-body memo


def body_key(body: ConvexBody) -> Optional[str]:
    """The sorted JSON of ``body.to_dict()``, or None for a body without one."""
    try:
        return json.dumps(body.to_dict(), sort_keys=True)
    except NotImplementedError:
        return None


class Memo:
    """Values computed once per key.  Entries are only ever added, so a hit
    reads without the lock; a miss computes under it (reentrant: a value
    may be computed from another one)."""

    def __init__(self):
        self._values: dict = {}
        self._lock = threading.RLock()

    def get(self, key, compute: Callable[[], object]):
        """The value of ``key``; ``compute()`` runs on first use only."""
        value = self._values.get(key)
        if value is None:
            with self._lock:
                value = self._values.get(key)
                if value is None:
                    value = self._values[key] = compute()
        return value


_body_memo = Memo()


def memo_by_body(body: ConvexBody, name: str, compute: Callable[[], object]):
    """The quantity ``name`` of ``body``, computed once per body key (every
    time for a body without a key)."""
    key = body_key(body)
    return compute() if key is None else _body_memo.get((name, key), compute)


# ---------------------------------------------------------------------------
# Exact projections


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Project v onto {w >= 0, sum w = total}.

    Sort-based threshold rule (Duchi et al.).  The simplex projection
    passes vectors of any sign with total = 1; the l1-ball and grouped-ball
    projections pass |x| (or block norms), nonnegative with sum above
    ``total``.
    """
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(u) + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _coefficient_l1_lp(V: np.ndarray, target: np.ndarray) -> float:
    """min sum |a_i| over signed coefficients with V^T a = target."""
    k, p = V.shape
    # Split a = a+ - a-: minimize 1' (a+ + a-).
    c = np.ones(2 * k)
    A_eq = np.hstack([V.T, -V.T])
    res = linprog(c, A_eq=A_eq, b_eq=target, bounds=[(0, None)] * (2 * k),
                  method="highs")
    if not res.success:
        raise ValueError("vector is outside the span of the polytope's vertices")
    return float(res.fun)


# ---------------------------------------------------------------------------
# Gaussian width


@dataclass(frozen=True)
class WidthEstimate:
    """Monte-Carlo Gaussian width: mean of sup_{w in C} |<g, w>| over Gaussian g."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.mean < 0 or self.std_error < 0:
            raise ValueError("mean and std_error must be nonnegative")


def gaussian_width_mc(body: ConvexBody, samples: int, seed: int) -> WidthEstimate:
    """Estimate the Gaussian width of a body by Monte Carlo.

    Averages the dual norm (the absolute-value form sup |<g, w>|) of i.i.d.
    standard Gaussian vectors.  Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        m = min(WIDTH_BATCH, remaining)
        G = rng.standard_normal((m, body.dimension))
        vals = body.dual_norms(G)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        remaining -= m
    mean = total / samples
    if samples > 1:
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        std_error = math.sqrt(var / samples)
    else:
        std_error = 0.0
    return WidthEstimate(mean=mean, std_error=std_error, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# Feasible-point sampling (test oracles and empirical curvature draws)


def sample_feasible(body: ConvexBody, rng: np.random.Generator) -> np.ndarray:
    """Draw a random point of the body (full support, not necessarily uniform)."""
    p = body.dimension
    if isinstance(body, L2Ball):
        g = rng.standard_normal(p)
        nrm = np.linalg.norm(g)
        if nrm == 0.0:
            return np.zeros(p)
        return body.radius * rng.random() ** (1.0 / p) * g / nrm
    if isinstance(body, L1Ball):
        w = rng.dirichlet(np.ones(p))
        signs = rng.choice([-1.0, 1.0], size=p)
        return body.radius * rng.random() ** (1.0 / p) * signs * w
    if isinstance(body, Simplex):
        return rng.dirichlet(np.ones(p))
    if isinstance(body, Polytope):
        w = rng.dirichlet(np.ones(body.n_vertices))
        return body.vertex_array.T @ w
    if isinstance(body, GroupedL1Ball):
        slices = block_slices(body.dimension, body.group_size)
        alloc = rng.dirichlet(np.ones(len(slices))) * body.radius * rng.random()
        out = np.zeros(p)
        for s, a in zip(slices, alloc):
            g = rng.standard_normal(s.stop - s.start)
            nrm = np.linalg.norm(g)
            if nrm > 0:
                out[s] = a * g / nrm
        return out
    if isinstance(body, Box):
        return body.lo + (body.hi - body.lo) * rng.random(p)
    raise ValueError(f"no sampler for {type(body).__name__}")


# ---------------------------------------------------------------------------
# Symmetric hull and serialization


def symmetric_hull(body: ConvexBody) -> ConvexBody:
    """Smallest symmetric body of the same family containing conv(C, -C).

    For symmetric bodies this is the body itself; for the simplex it is the
    unit l1 ball; for polytopes, the hull of V and -V.  For boxes the
    enclosing symmetric box is returned (a superset of the exact hull,
    which is not itself a box).
    """
    if isinstance(body, Simplex):
        return L1Ball(radius=1.0, dimension=body.dimension)
    if isinstance(body, Polytope):
        if body.is_symmetric:
            return body
        return Polytope(np.vstack([body.vertex_array, -body.vertex_array]))
    if isinstance(body, Box):
        if body.is_symmetric:
            return body
        m = np.maximum(np.abs(body.lo), np.abs(body.hi))
        return Box(lo=-m, hi=m)
    return body


# Each kind's document keys besides "kind", and its builder, which takes
# them as keyword arguments.
_KIND_TAGS = {
    "l2_ball": (("radius", "dimension"), lambda radius, dimension: L2Ball(
        radius=float(radius), dimension=int(dimension))),
    "l1_ball": (("radius", "dimension"), lambda radius, dimension: L1Ball(
        radius=float(radius), dimension=int(dimension))),
    "simplex": (("dimension",), lambda dimension: Simplex(dimension=int(dimension))),
    "polytope": (("vertices",), lambda vertices: Polytope(np.asarray(vertices, dtype=float))),
    "grouped_l1_ball": (("radius", "group_size", "dimension"),
                        lambda radius, group_size, dimension: GroupedL1Ball(
                            radius=float(radius), group_size=int(group_size),
                            dimension=int(dimension))),
    "box": (("lo", "hi"), lambda lo, hi: Box(lo=np.asarray(lo, dtype=float),
                                             hi=np.asarray(hi, dtype=float))),
}


def doc_field(doc: dict, key: str, kind: str):
    """``doc[key]``; a missing key raises ``ValueError`` naming ``kind`` and the key."""
    if key not in doc:
        raise ValueError(f"{kind} document has no {key!r} key")
    return doc[key]


def check_keys(doc: dict, allowed, kind: str) -> None:
    """Raise ``ValueError`` naming ``kind`` and every key of ``doc`` outside ``allowed``."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {kind} key(s) {unknown}; expected some of {sorted(allowed)}")


def body_from_dict(doc: dict) -> ConvexBody:
    kind = doc.get("kind")
    if kind not in _KIND_TAGS:
        raise ValueError(f"unknown body kind {kind!r}; expected one of {sorted(_KIND_TAGS)}")
    keys, build = _KIND_TAGS[kind]
    label = f"{kind} body"
    check_keys(doc, {"kind", *keys}, label)
    return build(**{key: doc_field(doc, key, label) for key in keys})
