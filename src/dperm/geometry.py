"""Convex constraint sets: membership, linear minimization, dual norms, projections.

Every body is closed, convex and bounded.  The operations here are pure
functions of their inputs and safe to call concurrently; the Monte-Carlo
width estimator takes its seed explicitly, so an estimate is reproducible.

A quantity of the public body alone (its Gaussian width) is computed once
per process by ``memo_by_body``, keyed by ``body_key``, the sorted JSON of
``body.to_dict()``.  The same rule keys the per-dataset statistics of
``losses`` and ``oracle`` that also depend on a body.

A grouped-l1 ball's blocks are one (..., m, g) array, the short last one
zero-padded; ``GroupedL1Ball.blocks`` and ``unblock`` own that layout.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

# Absolute tolerance on membership / optimality checks.
FEAS_TOL = 1e-9

# Longer vertex lists are rejected: ``Polytope.l2_diameter`` forms a k x k matrix.
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
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")


def _check_radius(radius: float) -> None:
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")


def _identity(x):
    return x


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
    the dual norm max over w in C of |<w, g>| (row-batched, as
    ``dual_norms``), the l2 diameter, and (where supported) Euclidean
    projection.  ``max_norm(q)`` is the one source of the body's norm
    maxima ||C||_q: the largest vertex norm here, a closed form in the
    bodies without a vertex list.
    """

    dimension: int

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

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        """The dual norm of each row of G (k, p): max over w in C of |<w, g>|."""
        raise NotImplementedError

    def l2_diameter(self) -> float:
        raise NotImplementedError

    def max_norm(self, q) -> float:
        """max over C of ||theta||_q, for q in {1, 2, inf}."""
        return float(np.linalg.norm(self.vertices(), q, axis=1).max())

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

    def vertex_scores(self, g: np.ndarray) -> np.ndarray:
        """<v, g> for every vertex v, in ``vertices()`` order, for a finite
        float vector g: ``vertices() @ g``, or its value without the product."""
        return self.vertices() @ g

    def iterate_space(self) -> tuple[ConvexBody, Callable, Callable]:
        """(iterate body, point_of, pullback): the projectable body a
        first-order run steps over, the map of its iterates to points of
        this body and the map of gradients at those points back to it.
        The body itself with identity maps; ``Polytope`` overrides it."""
        return self, _identity, _identity

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class L2Ball(ConvexBody):
    """Euclidean ball of a given radius centered at the origin."""

    radius: float
    dimension: int

    def __post_init__(self):
        _check_radius(self.radius)
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

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return self.radius * np.linalg.norm(G, axis=1)

    def l2_diameter(self) -> float:
        return 2.0 * self.radius

    def max_norm(self, q) -> float:
        return self.radius * math.sqrt(self.dimension) if q == 1 else self.radius

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

    def __post_init__(self):
        _check_radius(self.radius)
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return float(np.abs(v).sum()) <= self.radius + FEAS_TOL

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        idx = int(self.vertex_scores(d).argmin())
        out = np.zeros(self.dimension)
        if idx < self.dimension:
            out[idx] = self.radius
        else:
            out[idx - self.dimension] = -self.radius
        return out

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return self.radius * row_abs_max(G)

    def l2_diameter(self) -> float:
        return 2.0 * self.radius

    def max_norm(self, q) -> float:
        return self.radius

    def euclidean_project(self, x) -> np.ndarray:
        v = _as_vector(x, self.dimension)
        mags = np.abs(v)
        if mags.sum() <= self.radius:
            return v.copy()
        out = _project_simplex(mags, self.radius)
        out *= np.sign(v)
        return out

    def canonical_point(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def vertices(self) -> np.ndarray:
        eye = self.radius * np.eye(self.dimension)
        return np.vstack([eye, -eye])

    def vertex_scores(self, g: np.ndarray) -> np.ndarray:
        # Rows i and p + i of the vertex list are +r e_i and -r e_i, so the
        # scores are [r g, -r g]: the rows of (+r, -r)' g, one product per
        # entry.  (-r) g_i is -(r g_i) exactly.
        return (self._signed_radius * g).ravel()

    @cached_property
    def _signed_radius(self) -> np.ndarray:
        return np.array([[self.radius], [-self.radius]])

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

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return row_abs_max(G)

    def l2_diameter(self) -> float:
        return math.sqrt(2.0) if self.dimension > 1 else 0.0

    def max_norm(self, q) -> float:
        return 1.0

    def euclidean_project(self, x) -> np.ndarray:
        v = _as_vector(x, self.dimension)
        return _project_simplex(v, 1.0)

    def canonical_point(self) -> np.ndarray:
        return np.full(self.dimension, 1.0 / self.dimension)

    def vertices(self) -> np.ndarray:
        return np.eye(self.dimension)

    def vertex_scores(self, g: np.ndarray) -> np.ndarray:
        # The vertices are e_1..e_p, so the scores are g itself.
        return np.array(g, dtype=float)

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
        _check_finite(V, "vertex list")
        if V.shape[0] > MAX_POLYTOPE_VERTICES:
            raise ValueError(f"polytope has {V.shape[0]} vertices; "
                             f"more than {MAX_POLYTOPE_VERTICES} is rejected")
        object.__setattr__(self, "vertex_array", V)

    @property
    def dimension(self) -> int:
        return self.vertex_array.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertex_array.shape[0]

    def contains(self, x) -> bool:
        from scipy.optimize import linprog

        x = _as_vector(x, self.dimension)
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
        return bool(res.success) and res.fun <= FEAS_TOL

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        scores = self.vertex_array @ d
        return self.vertex_array[int(np.argmin(scores))].copy()

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return np.abs(G @ self.vertex_array.T).max(axis=1)

    def l2_diameter(self) -> float:
        V = self.vertex_array
        sq = np.sum(V * V, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (V @ V.T)
        return math.sqrt(max(float(d2.max()), 0.0))

    def canonical_point(self) -> np.ndarray:
        return self.vertex_array.mean(axis=0)

    def vertices(self) -> np.ndarray:
        return self.vertex_array

    def iterate_space(self) -> tuple[ConvexBody, Callable, Callable]:
        """The simplex of vertex coefficients a, with a -> V^T a and g -> V g."""
        V = self.vertex_array

        def point_of(a):
            return V.T @ a

        def pullback(g):
            return V @ g

        return Simplex(dimension=self.n_vertices), point_of, pullback

    def to_dict(self) -> dict:
        return {"kind": "polytope", "vertices": self.vertex_array.tolist()}


@dataclass(frozen=True, eq=False)
class GroupedL1Ball(ConvexBody):
    """Ball of the grouped l1 norm: sum over blocks of the block l2 norm.

    The p coordinates form m = ceil(p / g) contiguous blocks of g = `group_size`;
    ``blocks`` lays them out as (..., m, g), the short last one zero-padded.
    """

    radius: float
    group_size: int
    dimension: int

    def __post_init__(self):
        _check_radius(self.radius)
        if not (1 <= self.group_size <= self.dimension):
            raise ValueError("group size must be in [1, dimension]")

    def blocks(self, v) -> np.ndarray:
        """The (..., m, g) blocks of v (..., p), the short last one zero-padded."""
        v = np.asarray(v, dtype=float)
        m = -(-self.dimension // self.group_size)  # ceil(p / g)
        out = np.zeros(v.shape[:-1] + (m, self.group_size))
        self.unblock(out)[...] = v
        return out

    def unblock(self, B: np.ndarray) -> np.ndarray:
        """The (..., p) array of the blocks B (..., m, g), padding dropped."""
        return B.reshape(B.shape[:-2] + (-1,))[..., :self.dimension]

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return float(np.linalg.norm(self.blocks(v), axis=-1).sum()) <= self.radius + FEAS_TOL

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        B = self.blocks(d)
        norms = np.linalg.norm(B, axis=-1)
        j = int(np.argmax(norms))
        out = np.zeros_like(B)
        if norms[j] > 0.0:
            out[j] = -(self.radius / norms[j]) * B[j]
        return self.unblock(out)

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return self.radius * np.linalg.norm(self.blocks(G), axis=-1).max(axis=-1)

    def l2_diameter(self) -> float:
        return 2.0 * self.radius

    def max_norm(self, q) -> float:
        return self.radius * math.sqrt(self.group_size) if q == 1 else self.radius

    def euclidean_project(self, x) -> np.ndarray:
        v = _as_vector(x, self.dimension)
        B = self.blocks(v)
        norms = np.linalg.norm(B, axis=-1)
        if norms.sum() <= self.radius:
            return v.copy()
        shrunk = _project_simplex(norms, self.radius)
        scale = np.divide(shrunk, norms, out=np.zeros_like(norms), where=norms > 0.0)
        return self.unblock(B * scale[:, None])

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
        _check_finite(lo, "lo")
        _check_finite(hi, "hi")
        if np.any(lo > hi):
            raise ValueError("need lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    @cached_property
    def corner(self) -> np.ndarray:
        """The farthest corner m = max(|lo|, |hi|), read-only: |theta| <= m
        on the box, and [-m, m] is its symmetric hull."""
        m = np.maximum(np.abs(self.lo), np.abs(self.hi))
        m.flags.writeable = False
        return m

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return bool(np.all(v >= self.lo - FEAS_TOL) and np.all(v <= self.hi + FEAS_TOL))

    def lmo(self, direction) -> np.ndarray:
        d = _as_vector(direction, self.dimension, "direction")
        _check_finite(d)
        # d_i = 0 ties resolve to the lower corner.
        return np.where(d > 0, self.lo, np.where(d < 0, self.hi, self.lo))

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        # The largest and the smallest <w, g> over the box, per row.
        hi_val = np.where(G > 0, self.hi * G, self.lo * G).sum(axis=1)
        lo_val = np.where(G > 0, self.lo * G, self.hi * G).sum(axis=1)
        return np.maximum(np.abs(hi_val), np.abs(lo_val))

    def l2_diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def max_norm(self, q) -> float:
        return float(np.linalg.norm(self.corner, q))

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


def memo_by_body(body: ConvexBody, name: tuple, compute: Callable[[], object],
                 memo: Optional[Callable] = None):
    """``compute()``, the quantity ``name`` of ``body``, kept under the flat
    key ``(*name, body_key(body))``: in ``memo(key, compute)`` when given
    (a dataset's ``_memo``), else in the process memo.  A body without a
    key computes it every time."""
    key = body_key(body)
    if key is None:
        return compute()
    return (memo or _body_memo.get)((*name, key), compute)


# ---------------------------------------------------------------------------
# Exact projections


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Project v onto {w >= 0, sum w = total}.

    Sort-based threshold rule (Duchi et al.).  The simplex projection
    passes vectors of any sign with total = 1; the l1-ball and grouped-ball
    projections pass |x| (or block norms), nonnegative with sum above
    ``total``.  Returns a new array.
    """
    u = v.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum()
    css -= total
    cond = u > css / _ranks(u.shape[0])
    rho = int(cond.nonzero()[0][-1])
    tau = css[rho] / (rho + 1.0)
    out = v - tau
    np.maximum(out, 0.0, out=out)
    return out


# The read-only vectors 1..m of ``_ranks``, by m.
_RANKS: dict[int, np.ndarray] = {}


def _ranks(m: int) -> np.ndarray:
    """The read-only vector 1..m, shared by every projection of length m."""
    ks = _RANKS.get(m)
    if ks is None:
        ks = np.arange(1, m + 1, dtype=float)
        ks.flags.writeable = False
        _RANKS[m] = ks
    return ks


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
# Symmetric hull and serialization


def symmetric_hull(body: ConvexBody) -> ConvexBody:
    """Smallest symmetric body of the same family containing conv(C, -C).

    For symmetric bodies this is the body itself; for the simplex it is the
    unit l1 ball; for a polytope, the hull of V followed by the rows of -V
    that V lacks, compared by value, or the polytope itself when -V adds
    none; a hull above ``MAX_POLYTOPE_VERTICES`` raises ``ValueError``
    before it is built.  For a box it is always the new box [-m, m] at the
    farthest corner m = ``Box.corner``, which equals the box when lo == -hi
    exactly and else is a superset of the exact hull (not itself a box).
    """
    if isinstance(body, Simplex):
        return L1Ball(radius=1.0, dimension=body.dimension)
    if isinstance(body, Polytope):
        V = body.vertex_array
        rows = set(map(tuple, V.tolist()))  # -0.0 == 0.0 with one hash
        new = [i for i, row in enumerate((-V).tolist()) if tuple(row) not in rows]
        k = len(V) + len(new)
        if k > MAX_POLYTOPE_VERTICES:
            raise ValueError(f"the symmetric hull of a polytope with {len(V)} vertices has "
                             f"{k}; more than {MAX_POLYTOPE_VERTICES} is rejected")
        return Polytope(np.vstack([V, -V[new]])) if new else body
    if isinstance(body, Box):
        return Box(lo=-body.corner, hi=body.corner)
    return body


# Each kind's document keys besides "kind", and its builder, which takes
# them as keyword arguments, each read by its ``_KEY_READERS`` entry.
_KIND_TAGS = {
    "l2_ball": (("radius", "dimension"), L2Ball),
    "l1_ball": (("radius", "dimension"), L1Ball),
    "simplex": (("dimension",), Simplex),
    "polytope": (("vertices",), lambda vertices: Polytope(vertices)),
    "grouped_l1_ball": (("radius", "group_size", "dimension"), GroupedL1Ball),
    "box": (("lo", "hi"), Box),
}


def doc_field(doc: dict, key: str, kind: str):
    """``doc[key]``; a missing key raises ``ValueError`` naming ``kind`` and the key."""
    if key not in doc:
        raise ValueError(f"{kind} document has no {key!r} key")
    return doc[key]


def doc_int(value, kind: str, key: str) -> int:
    """``value`` of the ``key`` field of a ``kind`` document, as an integer;
    any other value, a float or a bool among them, raises ``ValueError``
    instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{kind} {key!r} must be an integer, got {value!r}")
    return int(value)


def doc_float(value, kind: str, key: str) -> float:
    """``value`` of the ``key`` field of a ``kind`` document, as a float;
    anything but a finite real number, a bool or a string among them,
    raises ``ValueError`` instead of being converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{kind} {key!r} must be a finite number, got {value!r}")
    return float(value)


def doc_floats(value, kind: str, key: str) -> np.ndarray:
    """``value`` of the ``key`` field of a ``kind`` document, a (nested) list
    of numbers, as a float array; an entry that ``doc_float`` refuses, a
    string, a bool or a non-finite number among them, raises its
    ``ValueError``, and so do rows of different lengths."""
    entries = np.asarray(value, dtype=object)
    for v in entries.flat:
        if isinstance(v, (list, tuple)):  # numpy keeps the rows of a ragged list whole
            raise ValueError(f"{kind} {key!r} rows differ in length, got {value!r}")
        if type(v) is not float:  # floats are checked at once below
            doc_float(v, kind, key)
    out = entries.astype(float)
    for v in out[~np.isfinite(out)]:
        doc_float(float(v), kind, key)
    return out


def doc_bool(value, kind: str, key: str) -> bool:
    """``value`` of the ``key`` field of a ``kind`` document, as a boolean;
    any other value, a string or an integer among them, raises
    ``ValueError`` instead of being read by its truthiness."""
    if not isinstance(value, bool):
        raise ValueError(f"{kind} {key!r} must be a boolean, got {value!r}")
    return value


def check_keys(doc: dict, allowed, kind: str) -> None:
    """Raise ``ValueError`` naming ``kind`` and every key of ``doc`` outside ``allowed``."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {kind} key(s) {unknown}; expected some of {sorted(allowed)}")


# How each body document key is read.
_KEY_READERS = {"radius": doc_float, "dimension": doc_int, "group_size": doc_int,
                "lo": doc_floats, "hi": doc_floats, "vertices": doc_floats}


def body_from_dict(doc: dict) -> ConvexBody:
    kind = doc.get("kind")
    if kind not in _KIND_TAGS:
        raise ValueError(f"unknown body kind {kind!r}; expected one of {sorted(_KIND_TAGS)}")
    keys, build = _KIND_TAGS[kind]
    label = f"{kind} body"
    check_keys(doc, {"kind", *keys}, label)
    return build(**{key: _KEY_READERS[key](doc_field(doc, key, label), label, key)
                    for key in keys})
