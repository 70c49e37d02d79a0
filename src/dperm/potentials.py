"""Mirror maps with Bregman divergence and the constrained mirror-descent step.

Each potential declares the symmetric body Q whose gauge it is strongly
convex against, plus a closed-form bound on its maximum over the feasible
set.  Potentials are immutable after construction; all operations are pure.

The polytope q-norm potential is evaluated and stepped in coefficient
space: iterates are simplex vectors a with theta = V^T a, the q-norm
applied to a, and gradients pulled back through the vertex matrix.  Its
``iterate_body`` is therefore a simplex over the vertex count, not the
polytope itself.

The q-norm and grouped prox steps find their multiplier with one
bisection, ``_bisect``, which stops at convergence (at most 200 halvings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .firstorder import NotCertifiedError, minimize
from .geometry import (
    ConvexBody,
    GroupedL1Ball,
    L1Ball,
    L2Ball,
    Polytope,
    Simplex,
    symmetric_hull,
)

ENTROPY_FLOOR = 1e-12

# The generic prox solve stops at this Frank-Wolfe gap.
PROX_GAP_TOL = 1e-8


class MirrorStepError(RuntimeError):
    """Raised when the generic prox solve cannot certify its gap target."""


class Potential:
    """Base mirror map: value, gradient, Bregman divergence, prox step."""

    coefficient_space = False

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
        if not np.all(np.isfinite(g)):
            raise ValueError("gradient must be finite")
        return x_t, g

    # -- core interface ----------------------------------------------------

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def bregman(self, a, b) -> float:
        """Psi(a) - Psi(b) - <grad Psi(b), a - b>, evaluated exactly."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return self.value(a) - self.value(b) - float(self.grad(b) @ (a - b))

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        """argmin over the body of <eta*g, x> + B_Psi(x, x_t).

        ``g`` is the (already noised) gradient in the potential's iterate
        space.  The concrete potentials override this with closed forms.
        Here the prox objective F(x) = <eta*g - grad Psi(x_t), x> + Psi(x)
        is minimized by ``firstorder.minimize``, warm-started at x_t, to an
        absolute Frank-Wolfe gap of ``PROX_GAP_TOL``; a solve that cannot
        certify raises ``MirrorStepError`` naming its gap and iteration
        count.
        """
        x_t, g = self._step_args(x_t, g, eta)
        c = eta * g - self.grad(x_t)
        try:
            return minimize(body, lambda x: c + self.grad(x), PROX_GAP_TOL, x0=x_t).x
        except NotCertifiedError as exc:
            raise MirrorStepError(f"mirror-step inner solve: {exc}") from exc

    # -- constants ----------------------------------------------------------

    @property
    def strong_convexity_modulus(self) -> float:
        raise NotImplementedError

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        """Symmetric body whose gauge the potential is strongly convex against."""
        raise NotImplementedError

    def max_over_domain(self, body: ConvexBody) -> float:
        """Finite upper bound on Psi over the body (tight for the closed forms)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class SquaredL2(Potential):
    """Psi(theta) = 0.5 ||theta - center||_2^2; 1-strongly convex w.r.t. l2."""

    dimension: int
    center: Optional[np.ndarray] = None

    def __post_init__(self):
        c = self.center
        if c is not None:
            c = np.asarray(c, dtype=float)
            if c.shape != (self.dimension,):
                raise ValueError("center dimension mismatch")
        object.__setattr__(self, "center", c)

    def _c(self) -> np.ndarray:
        return self.center if self.center is not None else np.zeros(self.dimension)

    def value(self, x) -> float:
        d = np.asarray(x, dtype=float) - self._c()
        return 0.5 * float(d @ d)

    def grad(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) - self._c()

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        x_t, g = self._step_args(x_t, g, eta)
        # The center cancels in the Bregman divergence: exactly projected GD.
        return body.euclidean_project(x_t - eta * g)

    @property
    def strong_convexity_modulus(self) -> float:
        return 1.0

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        return L2Ball(radius=1.0, dimension=self.dimension)

    def max_over_domain(self, body: ConvexBody) -> float:
        # Assumes the center lies in the body.
        return 0.5 * body.l2_diameter() ** 2

    def to_dict(self) -> dict:
        return {"kind": "squared_l2",
                "center": None if self.center is None else self.center.tolist()}


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

    def value(self, x) -> float:
        v = self._floored(x)
        return float(np.sum(v * np.log(v))) + math.log(self.dimension)

    def grad(self, x) -> np.ndarray:
        v = self._floored(x)
        return np.log(v) + 1.0

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

    @property
    def strong_convexity_modulus(self) -> float:
        return 1.0

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        return L1Ball(radius=1.0, dimension=self.dimension)

    def max_over_domain(self, body: ConvexBody) -> float:
        self._check_body(body)
        return math.log(self.dimension)

    def to_dict(self) -> dict:
        return {"kind": "negative_entropy"}


def _bisect(above, lo: float, hi: float) -> float:
    """The upper end of [lo, hi] after bisecting it, with ``above(lo)`` false
    and ``above(hi)`` true throughout.  It stops once the midpoint equals an
    end, where every further halving would leave the bracket unchanged."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    and ambient space.  ``value_at_point`` evaluates the underlying norm of an
    ambient vector by solving the nonnegative representation program.
    """

    polytope: Polytope
    q: Optional[float] = None

    def __post_init__(self):
        qv = self.q if self.q is not None else default_q_exponent(self.polytope.n_vertices)
        if not (1.0 < qv <= 2.0):
            raise ValueError(f"q must lie in (1, 2], got {qv}")
        object.__setattr__(self, "q", float(qv))

    coefficient_space = True

    @property
    def n_vertices(self) -> int:
        return self.polytope.n_vertices

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

    def value(self, a) -> float:
        a = np.asarray(a, dtype=float)
        nq = float(np.sum(np.abs(a) ** self.q)) ** (1.0 / self.q)
        return nq * nq / (4.0 * (self.q - 1.0))

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
        2(q-1) ||b(lam)||_q^(q-2) sum b(lam) = 1, bracketed and bisected to
        machine precision, after which a = b / sum b.
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
        b = beta(_bisect(lambda lam: not gee(lam) < 1.0, lo, hi))
        return b / b.sum()

    def value_at_point(self, theta) -> float:
        """Psi at an ambient point via the nonnegative representation program."""
        norm = self.representation_norm(theta)
        return norm * norm / (4.0 * (self.q - 1.0))

    def representation_norm(self, theta) -> float:
        """min ||a||_q over a >= 0 with sum a_i v_i = theta."""
        from scipy.optimize import minimize, nnls

        V = self.polytope.vertex_array
        theta = np.asarray(theta, dtype=float)
        a0, residual = nnls(V.T, theta)
        if residual > 1e-7 * (1.0 + np.linalg.norm(theta)):
            raise ValueError("theta has no nonnegative representation over the vertices")
        q = self.q

        def obj(a):
            return float(np.sum(np.maximum(a, 0.0) ** q))

        def jac(a):
            return q * np.maximum(a, 0.0) ** (q - 1.0)

        res = minimize(obj, a0, jac=jac, method="SLSQP",
                       bounds=[(0.0, None)] * V.shape[0],
                       constraints=[{"type": "eq", "fun": lambda a: V.T @ a - theta,
                                     "jac": lambda a: V.T}],
                       options={"maxiter": 500, "ftol": 1e-14})
        res_fun = res.fun
        if not res.success and res.fun > obj(a0):
            res_fun = obj(a0)
        return float(res_fun) ** (1.0 / q)

    @property
    def strong_convexity_modulus(self) -> float:
        # ||a||_q^2/(4(q-1)) is (1/2)-strongly convex w.r.t. ||a||_q (the
        # norm-power inequality; the source's stated constant of 1 fails
        # the interpolation definition numerically).  ||a||_1 <=
        # k^(1-1/q) ||a||_q then bridges to the hull gauge, so the modulus
        # absorbs that factor squared (1/(2 e^2) at the default exponent).
        k = self.n_vertices
        return 0.5 * float(k ** (-2.0 * (1.0 - 1.0 / self.q)))

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        return symmetric_hull(self.polytope)

    def max_over_domain(self, body: ConvexBody) -> float:
        # On the simplex ||a||_q <= ||a||_1 = 1.
        return 1.0 / (4.0 * (self.q - 1.0))

    def to_dict(self) -> dict:
        return {"kind": "polytope_q_norm", "q": self.q}


@dataclass(frozen=True, eq=False)
class GroupedL1(Potential):
    """Block-norm potential Psi(theta) = (1/(M xi)) sum_j ||theta_(j)||_2^M.

    The exponent M and scale xi follow the block-count table: M = 2 with
    xi in {1, 1/2} for one or two blocks, else M = 1 + 1/ln(p/g) and
    xi = 1/(e ln(p/g)).  Ratios p/g below e fall back to the two-block
    branch so M stays in (1, 2].
    """

    dimension: int
    group_size: int

    def __post_init__(self):
        if not (1 <= self.group_size <= self.dimension):
            raise ValueError("group size must be in [1, dimension]")

    @property
    def n_blocks(self) -> int:
        return -(-self.dimension // self.group_size)

    @property
    def exponent(self) -> float:
        ratio = self.dimension / self.group_size
        if self.n_blocks <= 2 or math.log(ratio) < 1.0:
            return 2.0
        return 1.0 + 1.0 / math.log(ratio)

    @property
    def scale_xi(self) -> float:
        ratio = self.dimension / self.group_size
        if self.n_blocks == 1:
            return 1.0
        if self.n_blocks == 2 or math.log(ratio) < 1.0:
            return 0.5
        return 1.0 / (math.e * math.log(ratio))

    def _block_slices(self):
        g = self.group_size
        return [slice(i * g, min((i + 1) * g, self.dimension)) for i in range(self.n_blocks)]

    def value(self, x) -> float:
        v = np.asarray(x, dtype=float)
        M, xi = self.exponent, self.scale_xi
        total = sum(float(np.linalg.norm(v[s])) ** M for s in self._block_slices())
        return total / (M * xi)

    def grad(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        M, xi = self.exponent, self.scale_xi
        out = np.zeros_like(v)
        for s in self._block_slices():
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
        bisected so the norms sum to the radius (lam = 0 if already inside).
        """
        self._check_body(body)
        x_t, g = self._step_args(x_t, g, eta)
        c = eta * g - self.grad(x_t)
        slices = self._block_slices()
        a = np.array([np.linalg.norm(c[s]) for s in slices])
        M, xi = self.exponent, self.scale_xi
        expo = 1.0 / (M - 1.0)

        def norms_at(lam: float) -> np.ndarray:
            return (xi * np.maximum(a - lam, 0.0)) ** expo

        r = body.radius
        t = norms_at(0.0)
        if t.sum() > r:
            # The norms vanish at lam = max_j ||c_j||, which brackets the root.
            t = norms_at(_bisect(lambda lam: not norms_at(lam).sum() > r, 0.0, float(a.max())))
        out = np.zeros_like(x_t)
        for s, aj, tj in zip(slices, a, t):
            if aj > 0.0 and tj > 0.0:
                out[s] = -(tj / aj) * c[s]
        return out

    @property
    def strong_convexity_modulus(self) -> float:
        return 1.0

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        return GroupedL1Ball(radius=1.0, group_size=self.group_size,
                             dimension=self.dimension)

    def max_over_domain(self, body: ConvexBody) -> float:
        self._check_body(body)
        M, xi = self.exponent, self.scale_xi
        # sum ||theta_j||^M <= (sum ||theta_j||)^M <= r^M on the radius-r ball.
        return body.radius ** M / (M * xi)

    def to_dict(self) -> dict:
        return {"kind": "grouped_l1", "group_size": self.group_size}


def potential_from_dict(doc: dict, body: ConvexBody) -> Potential:
    """Build a potential from its config document, bound to a body."""
    kind = doc.get("kind")
    if kind == "squared_l2":
        center = doc.get("center")
        return SquaredL2(dimension=body.dimension,
                         center=None if center is None else np.asarray(center, dtype=float))
    if kind == "negative_entropy":
        return NegativeEntropy(dimension=body.dimension)
    if kind == "polytope_q_norm":
        if not isinstance(body, Polytope):
            raise ValueError("polytope_q_norm requires a polytope body")
        return PolytopeQNorm(polytope=body, q=doc.get("q"))
    if kind == "grouped_l1":
        return GroupedL1(dimension=body.dimension, group_size=int(doc["group_size"]))
    raise ValueError(f"unknown potential kind {kind!r}")
