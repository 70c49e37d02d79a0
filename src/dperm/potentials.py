"""Mirror maps and the constrained mirror-descent step.

Each potential declares the symmetric body Q whose gauge it is strongly
convex against, plus a closed-form bound on its maximum over the feasible
set, and takes its prox step in closed form.  Potentials are immutable
after construction; all operations are pure.

The polytope q-norm potential is stepped in coefficient space: iterates
are simplex vectors a with theta = V^T a, the q-norm applied to a, and
gradients pulled back through the vertex matrix.  Its ``iterate_body`` is
therefore a simplex over the vertex count, not the polytope itself.

The q-norm and grouped prox steps find their scalar multiplier with
Brent's method (``scipy.optimize.brentq``) on a bracket that holds the
root, to ``ROOT_RTOL`` relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .geometry import (
    ConvexBody,
    GroupedL1Ball,
    L1Ball,
    L2Ball,
    Polytope,
    Simplex,
    block_slices,
    check_keys,
    doc_field,
    doc_int,
    symmetric_hull,
)

ENTROPY_FLOOR = 1e-12

# brentq's tolerances for the prox multipliers: its own floor on the relative
# tolerance, and an absolute one below any multiplier scale, so the root is
# found to relative precision wherever it lies.
ROOT_RTOL = 4.0 * np.finfo(float).eps
ROOT_XTOL = 1e-300


class Potential:
    """Base mirror map: its iterate space, its constants and its prox step."""

    # -- iterate-space mapping (identity except for coefficient potentials)

    def iterate_body(self, body: ConvexBody) -> ConvexBody:
        self._check_body(body)
        return body

    def to_point(self, x: np.ndarray) -> np.ndarray:
        return x

    def pull_back(self, g: np.ndarray) -> np.ndarray:
        return g

    def _check_body(self, body: ConvexBody) -> None:
        pass

    def _step_args(self, x_t, g, eta: float):
        """Check a mirror step's arguments; return x_t and g as float arrays."""
        if eta <= 0:
            raise ValueError("step size eta must be positive")
        x_t = np.asarray(x_t, dtype=float)
        g = np.asarray(g, dtype=float)
        if not np.isfinite(g).all():
            raise ValueError("gradient must be finite")
        return x_t, g

    # -- core interface ----------------------------------------------------

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        """argmin over the body of <eta*g, x> + B_Psi(x, x_t), in closed form.

        ``g`` is the (already noised) gradient in the potential's iterate
        space.
        """
        raise NotImplementedError

    # -- constants ----------------------------------------------------------

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        """Symmetric body whose gauge the potential is strongly convex against."""
        raise NotImplementedError

    def max_over_domain(self, body: ConvexBody) -> float:
        """Finite upper bound on Psi over the body (tight for the closed forms)."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class SquaredL2(Potential):
    """Psi(theta) = 0.5 ||theta||_2^2; 1-strongly convex w.r.t. l2.

    Its Bregman divergence is half the squared distance, so the prox step is
    a projected gradient step.
    """

    dimension: int

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        x_t, g = self._step_args(x_t, g, eta)
        return body.euclidean_project(x_t - eta * g)

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        return L2Ball(radius=1.0, dimension=self.dimension)

    def max_over_domain(self, body: ConvexBody) -> float:
        return 0.5 * body.l2_diameter() ** 2


@dataclass(frozen=True, eq=False)
class NegativeEntropy(Potential):
    """Shifted negative entropy on the simplex: sum theta ln theta + ln p.

    The +ln p shift makes the potential nonnegative on the simplex (0 at the
    uniform point, ln p at a vertex).  Coordinates are floored at 1e-12 so
    the boundary never produces log(0).  1-strongly convex w.r.t. l1 by
    Pinsker's inequality.
    """

    dimension: int

    def _check_body(self, body: ConvexBody) -> None:
        if not isinstance(body, Simplex):
            raise ValueError("the entropy potential is only defined on the simplex")

    def _floored(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if np.any(v < -1e-8):
            raise ValueError("entropy potential requires (near-)nonnegative input")
        return np.maximum(v, ENTROPY_FLOOR)

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        self._check_body(body)
        x_t, g = self._step_args(x_t, g, eta)
        x_t = self._floored(x_t)
        # Multiplicative-weights update, stabilized against overflow.
        z = np.log(x_t) - eta * g
        z -= z.max()
        w = np.exp(z)
        w = np.maximum(w / w.sum(), ENTROPY_FLOOR)
        return w / w.sum()

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        return L1Ball(radius=1.0, dimension=self.dimension)

    def max_over_domain(self, body: ConvexBody) -> float:
        self._check_body(body)
        return math.log(self.dimension)


def default_q_exponent(n_vertices: int) -> float:
    """q = log k / (log k - 1) for k >= 8, clamped to 2 below that."""
    if n_vertices < 8:
        return 2.0
    lk = math.log(n_vertices)
    return lk / (lk - 1.0)


@dataclass(frozen=True, eq=False)
class PolytopeQNorm(Potential):
    """Coefficient-space q-norm potential for polytopes, Psi = ||a||_q^2 / (4(q-1)).

    Iterates are nonnegative representation coefficients on the simplex over
    the vertex list; ``to_point``/``pull_back`` translate between coefficient
    and ambient space.  The exponent q is ``default_q_exponent`` of the
    vertex count.
    """

    polytope: Polytope

    @property
    def n_vertices(self) -> int:
        return self.polytope.n_vertices

    @property
    def q(self) -> float:
        return default_q_exponent(self.n_vertices)

    def iterate_body(self, body: ConvexBody) -> ConvexBody:
        self._check_body(body)
        return Simplex(dimension=self.n_vertices)

    def _check_body(self, body: ConvexBody) -> None:
        if not (isinstance(body, Polytope)
                and np.array_equal(body.vertex_array, self.polytope.vertex_array)):
            raise ValueError("body must be the polytope this potential was built for")

    def to_point(self, a: np.ndarray) -> np.ndarray:
        return self.polytope.vertex_array.T @ np.asarray(a, dtype=float)

    def pull_back(self, g: np.ndarray) -> np.ndarray:
        return self.polytope.vertex_array @ np.asarray(g, dtype=float)

    def grad(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        q = self.q
        nq = float(np.sum(np.abs(a) ** q)) ** (1.0 / q)
        if nq == 0.0:
            return np.zeros_like(a)
        scale = nq ** (2.0 - q) / (2.0 * (q - 1.0))
        return scale * np.sign(a) * np.abs(a) ** (q - 1.0)

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        """Exact prox over the coefficient simplex via the KKT root.

        Stationarity gives a_i = K (lam - c_i)_+^(1/(q-1)); the simplex
        multiplier lam solves the scalar equation
        2(q-1) ||b(lam)||_q^(q-2) sum b(lam) = 1, bracketed and solved by
        Brent's method to machine precision, after which a = b / sum b.
        """
        x_t, g = self._step_args(x_t, g, eta)
        c = eta * g - self.grad(x_t)
        q = self.q
        expo = 1.0 / (q - 1.0)

        def beta(lam: float) -> np.ndarray:
            return np.maximum(lam - c, 0.0) ** expo

        def gee(lam: float) -> float:
            b = beta(lam)
            total = b.sum()
            if total == 0.0:
                return 0.0
            nq = float(np.sum(b ** q)) ** (1.0 / q)
            return 2.0 * (q - 1.0) * nq ** (q - 2.0) * total

        # gee(min c) = 0; double the bracket until gee reaches 1.
        lo = float(c.min())
        span = max(float(c.max() - c.min()), 1.0)
        hi = lo + span
        while gee(hi) < 1.0:
            hi = lo + 2.0 * (hi - lo)
        b = beta(brentq(lambda lam: gee(lam) - 1.0, lo, hi,
                        xtol=ROOT_XTOL, rtol=ROOT_RTOL))
        return b / b.sum()

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        return symmetric_hull(self.polytope)

    def max_over_domain(self, body: ConvexBody) -> float:
        # On the simplex ||a||_q <= ||a||_1 = 1.
        return 1.0 / (4.0 * (self.q - 1.0))


@dataclass(frozen=True, eq=False)
class GroupedL1(Potential):
    """Block-norm potential Psi(theta) = (1/(M xi)) sum_j ||theta_(j)||_2^M.

    The exponent M and scale xi follow the block-count table: M = 2 with
    xi in {1, 1/2} for one or two blocks, else M = 1 + 1/ln(p/g) and
    xi = 1/(e ln(p/g)).  Ratios p/g below e fall back to the two-block
    branch so M stays in (1, 2]; two blocks mean p/g <= 2 < e, so the
    ratio alone picks the branch.
    """

    dimension: int
    group_size: int

    def __post_init__(self):
        if not (1 <= self.group_size <= self.dimension):
            raise ValueError("group size must be in [1, dimension]")

    @property
    def exponent(self) -> float:
        ratio = self.dimension / self.group_size
        if math.log(ratio) < 1.0:
            return 2.0
        return 1.0 + 1.0 / math.log(ratio)

    @property
    def scale_xi(self) -> float:
        ratio = self.dimension / self.group_size
        if self.group_size == self.dimension:
            return 1.0
        if math.log(ratio) < 1.0:
            return 0.5
        return 1.0 / (math.e * math.log(ratio))

    def grad(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        M, xi = self.exponent, self.scale_xi
        out = np.zeros_like(v)
        for s in block_slices(self.dimension, self.group_size):
            nrm = float(np.linalg.norm(v[s]))
            if nrm > 0.0:
                out[s] = (nrm ** (M - 2.0) / xi) * v[s]
        return out

    def _check_body(self, body: ConvexBody) -> None:
        if not isinstance(body, GroupedL1Ball) or body.group_size != self.group_size:
            raise ValueError("grouped potential requires a grouped-l1 ball with matching blocks")

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        """Exact prox step: the objective is block-separable given block norms.

        With c = eta*g - grad Psi(x_t), each block's optimal direction is
        -c_j/||c_j|| and the block norms solve a one-dimensional dual
        problem: t_j(lam) = (xi (||c_j|| - lam)_+)^(1/(M-1)), with lam
        found by Brent's method so the norms sum to the radius (lam = 0 if
        already inside).
        """
        self._check_body(body)
        x_t, g = self._step_args(x_t, g, eta)
        c = eta * g - self.grad(x_t)
        slices = block_slices(self.dimension, self.group_size)
        a = np.array([np.linalg.norm(c[s]) for s in slices])
        M, xi = self.exponent, self.scale_xi
        expo = 1.0 / (M - 1.0)

        def norms_at(lam: float) -> np.ndarray:
            return (xi * np.maximum(a - lam, 0.0)) ** expo

        r = body.radius
        t = norms_at(0.0)
        if t.sum() > r:
            # The norms vanish at lam = max_j ||c_j||, which brackets the root.
            t = norms_at(brentq(lambda lam: norms_at(lam).sum() - r, 0.0, float(a.max()),
                                xtol=ROOT_XTOL, rtol=ROOT_RTOL))
        out = np.zeros_like(x_t)
        for s, aj, tj in zip(slices, a, t):
            if aj > 0.0 and tj > 0.0:
                out[s] = -(tj / aj) * c[s]
        return out

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        return GroupedL1Ball(radius=1.0, group_size=self.group_size,
                             dimension=self.dimension)

    def max_over_domain(self, body: ConvexBody) -> float:
        self._check_body(body)
        M, xi = self.exponent, self.scale_xi
        # sum ||theta_j||^M <= (sum ||theta_j||)^M <= r^M on the radius-r ball.
        return body.radius ** M / (M * xi)


def potential_from_dict(doc: dict, body: ConvexBody) -> Potential:
    """Build a potential from its config document, bound to a body.

    Only ``grouped_l1`` takes a key besides ``kind`` (``group_size``); any
    other key raises ``ValueError``.
    """
    kind = doc.get("kind")
    label = f"{kind} potential"
    if kind == "grouped_l1":
        check_keys(doc, {"kind", "group_size"}, label)
        return GroupedL1(dimension=body.dimension,
                         group_size=doc_int(doc_field(doc, "group_size", label), label,
                                            "group_size"))
    if kind not in ("squared_l2", "negative_entropy", "polytope_q_norm"):
        raise ValueError(f"unknown potential kind {kind!r}")
    check_keys(doc, {"kind"}, label)
    if kind == "squared_l2":
        return SquaredL2(dimension=body.dimension)
    if kind == "negative_entropy":
        return NegativeEntropy(dimension=body.dimension)
    if not isinstance(body, Polytope):
        raise ValueError("polytope_q_norm requires a polytope body")
    return PolytopeQNorm(polytope=body)
