"""Convex constraint sets: membership, linear minimization, dual norms, projections.

Every body is closed, convex and bounded.  The operations here are pure
functions of their inputs and safe to call concurrently.

The Gaussian width has a closed form on the l1 ball, the simplex and the
l2 ball (``ConvexBody.closed_form_width``); on every other body it is
estimated by ``gaussian_width_mc``, which takes its seed explicitly, so an
estimate is reproducible.  ``solvers.gaussian_width`` picks between them.
``row_blocks`` cuts a pass over many rows, ``row_abs_max`` or the draws of
``noise_blocks``, into blocks of at most ``NOISE_BLOCK_BYTES``.

A quantity of the public body alone (its Gaussian width) is computed once
per process by ``memo_by_body``, keyed by ``body_key``, the sorted JSON of
``body.to_dict()``, built once per body: a built-in body cannot change, as
the arrays of a ``Box`` and a ``Polytope`` are read-only copies of the
arrays given.  Only the six built-in body types, exactly, have a key:
any other body, a subclass of a built-in one among them, is computed every
time.  The same rule keys the per-dataset statistics of ``losses`` and
``oracle`` that also depend on a body.

A grouped-l1 ball's blocks are one (..., m, g) array, the short last one
zero-padded; ``GroupedL1Ball.blocks`` and ``unblock`` own that layout.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import statistics
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

# Absolute tolerance on membership / optimality checks.
FEAS_TOL = 1e-9

# Longer vertex lists are rejected: ``Polytope.l2_diameter`` forms a k x k matrix.
MAX_POLYTOPE_VERTICES = 10_000

# The most bytes in one block of rows, of ``noise_blocks`` and of
# ``row_abs_max``, so memory stays flat whatever the number of rows.
NOISE_BLOCK_BYTES = 1 << 20


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


def vertex_argmin(body: ConvexBody, direction) -> int:
    """The index i of the vertex of least <v_i, direction>, the lowest on
    ties, for a finite direction; a non-finite one raises ``ValueError``."""
    d = _as_vector(direction, body.dimension, "direction")
    _check_finite(d)
    return int(body.vertex_scores(d).argmin())


def _vertex_lmo(body: ConvexBody, direction) -> np.ndarray:
    """The LMO of a body with vertices: the vertex ``vertex_argmin`` picks.
    Each such class binds it as its own ``lmo``, which
    ``perfbench/spans.py`` wraps only where a class defines it."""
    return body.vertex(vertex_argmin(body, direction))


def row_blocks(rows: int, width: int):
    """Consecutive slices of ``rows`` rows of ``width`` floats, each of at
    most ``NOISE_BLOCK_BYTES`` (one row at least)."""
    size = max(1, NOISE_BLOCK_BYTES // (8 * width))
    return (slice(i, min(i + size, rows)) for i in range(0, rows, size))


def row_abs_max(G: np.ndarray) -> np.ndarray:
    """max_j |G_ij| for every row i.  |G| is formed one block of rows at a
    time, which needs less memory and, in cache, less time than whole."""
    out = np.empty(G.shape[0])
    for block in row_blocks(*G.shape):
        np.abs(G[block]).max(axis=1, out=out[block])
    return out


class ConvexBody:
    """Base class for constraint sets.

    Subclasses implement membership, the linear minimization oracle (LMO),
    the dual norm max over w in C of |<w, g>| (row-batched, as
    ``dual_norms``), the l2 diameter, and (where supported) Euclidean
    projection.  ``max_norm(q)`` is the one source of the body's norm
    maxima ||C||_q.  The hull of k vertices v_0 .. v_{k-1} has ``n_vertices``
    = k (0 on other bodies), builds v_i with ``vertex(i)`` and scores all of
    them with ``vertex_scores(g)``, so no caller needs a dense (k, p) list.
    Where every vertex has one nonzero coordinate (the l1 ball's +-r e_j,
    the simplex's e_j, so also a polytope's coefficient simplex),
    ``vertex_entry(i)`` gives it as the pair (j, value) and ``vertex(i)`` is
    built from that pair.  A Frank-Wolfe step toward such a vertex is then
    x <- (1 - mu) x followed by x_j += mu value: one scaling and one
    coordinate, with the same bits as the dense (1 - mu) x + mu v_i.
    """

    dimension: int
    n_vertices: int = 0

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
        raise NotImplementedError

    def closed_form_width(self) -> Optional[float]:
        """The Gaussian width E sup_{w in C} |<g, w>| in closed form, or
        None on a body without one."""
        return None

    def euclidean_project(self, x) -> np.ndarray:
        raise NotImplementedError(
            f"euclidean projection is not supported for {type(self).__name__}"
        )

    def canonical_point(self) -> np.ndarray:
        """Deterministic starting point: center for balls/boxes, barycenter otherwise."""
        raise NotImplementedError

    def vertex(self, i: int) -> np.ndarray:
        """Vertex v_i as a new array, for 0 <= i < ``n_vertices``."""
        j, value = self.vertex_entry(i)
        out = np.zeros(self.dimension)
        out[j] = value
        return out

    def vertex_entry(self, i: int) -> tuple[int, float]:
        """(j, value) of a vertex v_i = value e_j with one nonzero coordinate."""
        raise ValueError(f"{type(self).__name__} has no finite vertex list "
                         "of one-coordinate vertices")

    def vertex_scores(self, g: np.ndarray) -> np.ndarray:
        """<v_i, g> for every i, in index order, for a finite float vector g."""
        raise ValueError(f"{type(self).__name__} has no finite vertex list")

    def iterate_space(self) -> tuple[ConvexBody, Callable, Callable]:
        """(iterate body, point_of, pullback): the projectable body a
        first-order run steps over, the map of its iterates to points of
        this body and the map of gradients at those points back to it.
        The body itself with identity maps; ``Polytope`` overrides it."""
        return self, _identity, _identity

    @cached_property
    def _doc_key(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

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

    def closed_form_width(self) -> float:
        # r E||g||_2, the chi mean sqrt(2) Gamma((p+1)/2) / Gamma(p/2).  Up to
        # p = 50 from lgamma; above, where that difference cancels (1e-12
        # relative at p = 5000), from the series of Gamma(a + 1/2) / Gamma(a)
        # in b = 1/a, a = p/2, within 5e-16 relative.
        p, b = self.dimension, 2.0 / self.dimension
        if p <= 50:
            return self.radius * math.sqrt(2.0) * math.exp(math.lgamma((p + 1) / 2)
                                                           - math.lgamma(p / 2))
        return self.radius * math.sqrt(p) * math.exp(
            b * (-1 / 8 + b * b * (1 / 192 + b * b * (-1 / 640 + b * b * 17 / 14336))))

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
    """l1 ball of a given radius, the hull of 2p vertices: vertex i < p is
    +r e_{i+1} and vertex p + i is -r e_{i+1}; LMO ties go to the lowest i.
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

    lmo = _vertex_lmo

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return self.radius * row_abs_max(G)

    def l2_diameter(self) -> float:
        return 2.0 * self.radius

    def max_norm(self, q) -> float:
        return self.radius

    def closed_form_width(self) -> float:
        return self.radius * _abs_max_gaussian_mean(self.dimension)

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

    n_vertices = property(lambda self: 2 * self.dimension)

    def vertex_entry(self, i: int) -> tuple[int, float]:
        p = self.dimension
        return (i, self.radius) if i < p else (i - p, -self.radius)

    def vertex_scores(self, g: np.ndarray) -> np.ndarray:
        # Vertices i and p + i are +r e_i and -r e_i, so the scores are
        # [r g, -r g]: the rows of (+r, -r)' g, one product per entry.
        # (-r) g_i is -(r g_i) exactly.
        return (self._signed_radius * g).ravel()

    @cached_property
    def _signed_radius(self) -> np.ndarray:
        return np.array([[self.radius], [-self.radius]])

    def to_dict(self) -> dict:
        return {"kind": "l1_ball", "dimension": self.dimension, "radius": self.radius}


@dataclass(frozen=True, eq=False)
class Simplex(ConvexBody):
    """Probability simplex {theta >= 0, sum(theta) = 1}; vertex i is e_{i+1}."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        return bool(np.all(v >= -FEAS_TOL) and abs(v.sum() - 1.0) <= FEAS_TOL)

    lmo = _vertex_lmo

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return row_abs_max(G)

    def l2_diameter(self) -> float:
        return math.sqrt(2.0) if self.dimension > 1 else 0.0

    def max_norm(self, q) -> float:
        return 1.0

    def closed_form_width(self) -> float:
        # sup over the simplex of |<g, w>| is max_i |g_i|, as on the unit l1 ball.
        return _abs_max_gaussian_mean(self.dimension)

    def euclidean_project(self, x) -> np.ndarray:
        v = _as_vector(x, self.dimension)
        return _project_simplex(v, 1.0)

    def canonical_point(self) -> np.ndarray:
        return np.full(self.dimension, 1.0 / self.dimension)

    n_vertices = property(lambda self: self.dimension)

    def vertex_entry(self, i: int) -> tuple[int, float]:
        return i, 1.0

    def vertex_scores(self, g: np.ndarray) -> np.ndarray:
        # The vertices are e_1..e_p, so the scores are g itself.
        return np.array(g, dtype=float)

    def to_dict(self) -> dict:
        return {"kind": "simplex", "dimension": self.dimension}


@dataclass(frozen=True, eq=False)
class Polytope(ConvexBody):
    """Convex hull of an explicit vertex list (V-representation only), kept
    as a read-only copy."""

    vertex_array: np.ndarray

    def __post_init__(self):
        V = np.array(self.vertex_array, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValueError("vertex list must be a (k, p) array with k >= 1")
        _check_finite(V, "vertex list")
        if V.shape[0] > MAX_POLYTOPE_VERTICES:
            raise ValueError(f"polytope has {V.shape[0]} vertices; "
                             f"more than {MAX_POLYTOPE_VERTICES} is rejected")
        V.flags.writeable = False
        object.__setattr__(self, "vertex_array", V)

    @property
    def dimension(self) -> int:
        return self.vertex_array.shape[1]

    n_vertices = property(lambda self: self.vertex_array.shape[0])

    def contains(self, x) -> bool:
        """Whether x is in the hull, by a linear program (scipy's HiGHS,
        imported here, the package's one use of scipy).  It serves only
        points from outside a run: every run on a polytope is checked on its
        vertex coefficients (``solvers.run_solver``)."""
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

    lmo = _vertex_lmo

    def vertex(self, i: int) -> np.ndarray:
        return self.vertex_array[i].copy()

    def vertex_scores(self, g: np.ndarray) -> np.ndarray:
        return self.vertex_array.dot(g)

    def dual_norms(self, G: np.ndarray) -> np.ndarray:
        return np.abs(G @ self.vertex_array.T).max(axis=1)

    def l2_diameter(self) -> float:
        V = self.vertex_array
        sq = np.sum(V * V, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (V @ V.T)
        return math.sqrt(max(float(d2.max()), 0.0))

    def max_norm(self, q) -> float:
        return float(np.linalg.norm(self.vertex_array, q, axis=1).max())

    def canonical_point(self) -> np.ndarray:
        return self.vertex_array.mean(axis=0)

    def iterate_space(self) -> tuple[ConvexBody, Callable, Callable]:
        """The simplex of vertex coefficients a, with a -> V^T a and g -> V g."""
        V = self.vertex_array

        def point_of(a):
            return V.T.dot(a)

        def pullback(g):
            return V.dot(g)

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
    """Axis-aligned box [lo, hi], both kept as read-only copies."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.lo, dtype=float))
        hi = np.atleast_1d(np.array(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be vectors of the same dimension")
        _check_finite(lo, "lo")
        _check_finite(hi, "hi")
        if np.any(lo > hi):
            raise ValueError("need lo <= hi componentwise")
        lo.flags.writeable = hi.flags.writeable = False
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
        return np.where(d < 0, self.hi, self.lo)

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
    """The sorted JSON of ``body.to_dict()`` for a body of one of the six
    built-in types exactly, else None, built on the body's first lookup.
    A subclass inherits its parent's document but can compute anything, so
    it gets no key."""
    if type(body) not in (L2Ball, L1Ball, Simplex, Polytope, GroupedL1Ball, Box):
        return None
    return body._doc_key


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
    cond = u > css / np.arange(1.0, u.shape[0] + 1.0)
    rho = int(cond.nonzero()[0][-1])
    tau = css[rho] / (rho + 1.0)
    out = v - tau
    np.maximum(out, 0.0, out=out)
    return out


# ---------------------------------------------------------------------------
# Gaussian width


@dataclass(frozen=True)
class WidthEstimate:
    """Gaussian width, the mean of sup_{w in C} |<g, w>| over Gaussian g:
    exact from a closed form (``samples`` = 0, no seed, no error) or the
    Monte-Carlo mean of ``samples`` draws from ``seed`` with its standard
    error."""

    mean: float
    std_error: float = 0.0
    samples: int = 0
    seed: Optional[int] = None

    def __post_init__(self):
        if self.samples < 0:
            raise ValueError("samples must be >= 0 (0: closed form)")
        if self.mean < 0 or self.std_error < 0:
            raise ValueError("mean and std_error must be nonnegative")

    @property
    def method(self) -> str:
        return "Monte Carlo" if self.samples else "closed form"


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The read-only 64 Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _abs_max_gaussian_mean(p: int) -> float:
    """E max_i |g_i| over g ~ N(0, I_p), the Gaussian width of the unit l1
    ball and of the simplex.

    It is the integral over t >= 0 of P(max_i |g_i| > t) = 1 - (1 - e)^p,
    e = erfc(t / sqrt 2) = P(|g| > t), so t = -Phi^-1(e / 2) by the normal
    quantile.  The integrand is 1 in double precision up to a, where
    p log(1 - e) = -40, and below 1e-18 past b, where p e = 1e-18:
    [0, a] is taken exactly and [a, b] by a 64-node Gauss-Legendre rule.
    """
    quantile = statistics.NormalDist().inv_cdf
    a = -quantile(-math.expm1(-40.0 / p) / 2)
    b = -quantile(1e-18 / p / 2)
    nodes, weights = _legendre_rule()
    half = 0.5 * (b - a)
    tails = np.array([math.erfc(t / math.sqrt(2.0)) for t in half * nodes + (a + half)])
    return a + half * float(weights @ -np.expm1(p * np.log1p(-tails)))


def noise_blocks(draw: Callable[[tuple], np.ndarray], rows: int, width: int):
    """``rows`` rows of ``width`` floats, drawn by ``draw(shape)`` in
    the consecutive blocks of ``row_blocks``, with the same values as
    per-row draws from a numpy generator."""
    for block in row_blocks(rows, width):
        yield draw((block.stop - block.start, width))


def gaussian_width_mc(body: ConvexBody, samples: int, seed: int) -> WidthEstimate:
    """Estimate the Gaussian width of a body by Monte Carlo.

    Averages the dual norm (the absolute-value form sup |<g, w>|) of i.i.d.
    standard Gaussian vectors, drawn by ``noise_blocks``.  Deterministic for
    a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for G in noise_blocks(rng.standard_normal, samples, body.dimension):
        vals = body.dual_norms(G)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
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


def doc_object(doc, kind: str) -> None:
    """Raise ``ValueError`` naming ``kind`` unless ``doc`` is an object (a dict)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document must be an object, got {doc!r}")


def read_doc(doc, kind: str, fields: dict) -> dict:
    """The values of a ``kind`` document by key.  ``fields`` maps each key to
    its ``reader(value, kind, key)`` (None keeps the value for its owner to
    read), or to ``(reader, default)`` when the key is optional.  A document
    that is not an object, an unknown or missing key and a value that its
    reader refuses raise ``ValueError``."""
    doc_object(doc, kind)
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ValueError(f"unknown {kind} key(s) {unknown}; expected some of {sorted(fields)}")
    out = {}
    for key, entry in fields.items():
        reader, *default = entry if isinstance(entry, tuple) else (entry,)
        if key in doc:
            out[key] = doc[key] if reader is None else reader(doc[key], kind, key)
        elif default:
            out[key] = default[0]
        else:
            raise ValueError(f"{kind} document has no {key!r} key")
    return out


def build_kind(doc, what: str, table: dict) -> tuple[object, dict]:
    """What a ``what`` document builds, and the values of its keys besides
    ``kind``, a string key of ``table``, which maps each kind to its constructor
    and the ``read_doc`` fields the constructor takes as keyword arguments."""
    doc_object(doc, what)
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}; expected one of {sorted(table)}")
    build, fields = table[kind]
    values = read_doc({k: v for k, v in doc.items() if k != "kind"}, f"{kind} {what}", fields)
    return build(**values), values


def doc_nested(build: Callable) -> Callable:
    """The reader of a nested document, ``build(value)``; its errors name it."""
    return lambda value, kind, key: build(value)


def doc_value(what: str, accepts: Callable, convert: Callable = _identity) -> Callable:
    """A reader of the values that ``accepts`` takes, as ``convert`` gives
    them; any other value raises ``ValueError``: it must be ``what``."""
    def read(value, kind, key):
        if not accepts(value):
            raise ValueError(f"{kind} {key!r} must be {what}, got {value!r}")
        return convert(value)
    return read


def is_finite_real(value) -> bool:
    """Whether ``value`` is a finite real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# The readers of one value.  Each refuses what it would convert: a float to
# a count, a bool or a string to a number, or a flag by its truthiness.
doc_int = doc_value("an integer", lambda v: isinstance(v, numbers.Integral)
                    and not isinstance(v, bool), int)
doc_float = doc_value("a finite number", is_finite_real, float)
doc_bool = doc_value("a boolean", lambda v: isinstance(v, bool))
doc_str = doc_value("a string", lambda v: isinstance(v, str))


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


# Each body kind's constructor and how each key of its document is read.
_KIND_TAGS = {
    "l2_ball": (L2Ball, {"radius": doc_float, "dimension": doc_int}),
    "l1_ball": (L1Ball, {"radius": doc_float, "dimension": doc_int}),
    "simplex": (Simplex, {"dimension": doc_int}),
    "polytope": (lambda vertices: Polytope(vertices), {"vertices": doc_floats}),
    "grouped_l1_ball": (GroupedL1Ball, {"radius": doc_float, "group_size": doc_int,
                                        "dimension": doc_int}),
    "box": (Box, {"lo": doc_floats, "hi": doc_floats}),
}


def body_from_dict(doc: dict) -> ConvexBody:
    return build_kind(doc, "body", _KIND_TAGS)[0]
