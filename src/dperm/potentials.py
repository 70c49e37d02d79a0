"""Mirror maps and the constrained mirror-descent step.

Each potential declares the symmetric body Q whose gauge it is strongly
convex against, plus a closed-form bound on its maximum over the feasible
set, and takes its prox step in closed form.  ``natural_q`` is also the
one check that the potential can run on a body: it raises ``ValueError``
on any other.  A potential holds no state: each method reads the
dimension, the blocks or the vertex count from the body it is given.
``natural_q`` and ``max_over_domain`` take the run's body; ``mirror_step``
and ``grad`` take the iterate body of ``ConvexBody.iterate_space`` (a
polytope's coefficient simplex, any other body itself).

The grouped steps act on the ball's zero-padded blocks (``GroupedL1Ball.blocks``).
The q-norm and grouped prox steps find their scalar multiplier with
Brent's method (``scipy.optimize.brentq``, imported on first call) on a
bracket that holds the root, to ``ROOT_RTOL`` relative precision.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    ConvexBody,
    GroupedL1Ball,
    L1Ball,
    L2Ball,
    Polytope,
    Simplex,
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
    """Base mirror map: the bodies it fits, its constants and its prox step."""

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
        """argmin over the iterate body of <eta*g, x> + B_Psi(x, x_t), in
        closed form.

        ``g`` is the (already noised) gradient in the iterate space.
        """
        raise NotImplementedError

    # -- constants ----------------------------------------------------------

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        """Symmetric body whose gauge the potential is strongly convex
        against; ``ValueError`` if the potential cannot run on ``body``."""
        raise NotImplementedError

    def max_over_domain(self, body: ConvexBody) -> float:
        """Finite upper bound on Psi over the body (tight for the closed forms)."""
        raise NotImplementedError


class SquaredL2(Potential):
    """Psi(theta) = 0.5 ||theta||_2^2; 1-strongly convex w.r.t. l2.

    Its Bregman divergence is half the squared distance, so the prox step is
    a projected gradient step.
    """

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        x_t, g = self._step_args(x_t, g, eta)
        return body.euclidean_project(x_t - eta * g)

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        if isinstance(body, Polytope):
            raise ValueError("euclidean projection is not supported for Polytope")
        return L2Ball(radius=1.0, dimension=body.dimension)

    def max_over_domain(self, body: ConvexBody) -> float:
        return 0.5 * body.l2_diameter() ** 2


class NegativeEntropy(Potential):
    """Shifted negative entropy on the simplex: sum theta ln theta + ln p.

    The +ln p shift makes the potential nonnegative on the simplex (0 at the
    uniform point, ln p at a vertex).  Coordinates are floored at 1e-12 so
    the boundary never produces log(0).  1-strongly convex w.r.t. l1 by
    Pinsker's inequality.
    """

    def _floored(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if np.any(v < -1e-8):
            raise ValueError("entropy potential requires (near-)nonnegative input")
        return np.maximum(v, ENTROPY_FLOOR)

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        x_t, g = self._step_args(x_t, g, eta)
        x_t = self._floored(x_t)
        # Multiplicative-weights update, stabilized against overflow.
        z = np.log(x_t) - eta * g
        z -= z.max()
        w = np.exp(z)
        w = np.maximum(w / w.sum(), ENTROPY_FLOOR)
        return w / w.sum()

    def natural_q(self, body: ConvexBody) -> ConvexBody:
        if not isinstance(body, Simplex):
            raise ValueError("the entropy potential is only defined on the simplex")
        return L1Ball(radius=1.0, dimension=body.dimension)

    def max_over_domain(self, body: ConvexBody) -> float:
        return math.log(body.dimension)


def default_q_exponent(n_vertices: int) -> float:
    """q = log k / (log k - 1) for k >= 8, clamped to 2 below that."""
    if n_vertices < 8:
        return 2.0
    lk = math.log(n_vertices)
    return lk / (lk - 1.0)


class PolytopeQNorm(Potential):
    """Coefficient-space q-norm potential for polytopes, Psi = ||a||_q^2 / (4(q-1)).

    Runs on a polytope; its iterates are nonnegative representation
    coefficients a on the polytope's coefficient simplex.  The exponent q
    is ``default_q_exponent`` of the vertex count k: the polytope's
    ``n_vertices`` in ``max_over_domain``, the simplex's dimension in
    ``grad`` and ``mirror_step``.
    """

    def grad(self, body: ConvexBody, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        q = default_q_exponent(body.dimension)
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
        from scipy.optimize import brentq

        x_t, g = self._step_args(x_t, g, eta)
        c = eta * g - self.grad(body, x_t)
        q = default_q_exponent(body.dimension)
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
        if not isinstance(body, Polytope):
            raise ValueError("polytope_q_norm requires a polytope body")
        return symmetric_hull(body)  # which checks its vertex count

    def max_over_domain(self, body: ConvexBody) -> float:
        # On the simplex ||a||_q <= ||a||_1 = 1.
        return 1.0 / (4.0 * (default_q_exponent(body.n_vertices) - 1.0))


def grouped_exponents(ball: GroupedL1Ball) -> tuple[float, float]:
    """The exponent M and scale xi of the grouped potential on ``ball``.

    They follow the block-count table: M = 2 with xi in {1, 1/2} for one or
    two blocks, else M = 1 + 1/ln(p/g) and xi = 1/(e ln(p/g)).  Ratios p/g
    below e fall back to the two-block branch so M stays in (1, 2]; two
    blocks mean p/g <= 2 < e, so the ratio alone picks the branch.
    """
    if ball.group_size == ball.dimension:
        return 2.0, 1.0
    log_ratio = math.log(ball.dimension / ball.group_size)
    if log_ratio < 1.0:
        return 2.0, 0.5
    return 1.0 + 1.0 / log_ratio, 1.0 / (math.e * log_ratio)


class GroupedL1(Potential):
    """Block-norm potential Psi(theta) = (1/(M xi)) sum_j ||theta_(j)||_2^M
    on a grouped-l1 ball, over the ball's blocks, with (M, xi) =
    ``grouped_exponents(ball)``."""

    def grad(self, body: GroupedL1Ball, x) -> np.ndarray:
        M, xi = grouped_exponents(body)
        B = body.blocks(x)
        nrm = np.linalg.norm(B, axis=-1)
        # ||x_j||^(M-2) on the nonzero blocks; a zero block's gradient is 0.
        scale = np.power(nrm, M - 2.0, out=np.zeros_like(nrm), where=nrm > 0.0)
        return body.unblock((scale / xi)[:, None] * B)

    def mirror_step(self, body: GroupedL1Ball, x_t, g, eta: float) -> np.ndarray:
        """Exact prox step: the objective is block-separable given block norms.

        With c = eta*g - grad Psi(x_t), each block's optimal direction is
        -c_j/||c_j|| and the block norms solve a one-dimensional dual
        problem: t_j(lam) = (xi (||c_j|| - lam)_+)^(1/(M-1)), with lam
        found by Brent's method so the norms sum to the radius (lam = 0 if
        already inside).
        """
        from scipy.optimize import brentq

        x_t, g = self._step_args(x_t, g, eta)
        C = body.blocks(eta * g - self.grad(body, x_t))
        a = np.linalg.norm(C, axis=-1)
        M, xi = grouped_exponents(body)
        expo = 1.0 / (M - 1.0)

        def norms_at(lam: float) -> np.ndarray:
            return (xi * np.maximum(a - lam, 0.0)) ** expo

        r = body.radius
        t = norms_at(0.0)
        if t.sum() > r:
            # The norms vanish at lam = max_j ||c_j||, which brackets the root.
            t = norms_at(brentq(lambda lam: norms_at(lam).sum() - r, 0.0, float(a.max()),
                                xtol=ROOT_XTOL, rtol=ROOT_RTOL))
        # t_j > 0 implies ||c_j|| > 0; the other blocks step to 0.
        scale = np.divide(t, a, out=np.zeros_like(a), where=t > 0.0)
        return body.unblock(-scale[:, None] * C)

    def natural_q(self, body: GroupedL1Ball) -> ConvexBody:
        if not isinstance(body, GroupedL1Ball):
            raise ValueError("grouped potential requires a grouped-l1 ball with matching blocks")
        return GroupedL1Ball(radius=1.0, group_size=body.group_size,
                             dimension=body.dimension)

    def max_over_domain(self, body: GroupedL1Ball) -> float:
        M, xi = grouped_exponents(body)
        # sum ||theta_j||^M <= (sum ||theta_j||)^M <= r^M on the radius-r ball.
        return body.radius ** M / (M * xi)


_KINDS = {
    "squared_l2": SquaredL2,
    "negative_entropy": NegativeEntropy,
    "polytope_q_norm": PolytopeQNorm,
    "grouped_l1": GroupedL1,
}


def potential_from_dict(doc: dict, body: ConvexBody) -> Potential:
    """Build a potential from its config document, for a run on ``body``.

    Only ``grouped_l1`` takes a key besides ``kind``: ``group_size``, which
    must equal the grouped-l1 ball's own.  Any other key raises
    ``ValueError``.  Whether the potential can run on the body at all is
    ``SolverConfig``'s check (``Potential.natural_q``).
    """
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown potential kind {kind!r}")
    label = f"{kind} potential"
    if kind == "grouped_l1":
        check_keys(doc, {"kind", "group_size"}, label)
        group_size = doc_int(doc_field(doc, "group_size", label), label, "group_size")
        if isinstance(body, GroupedL1Ball) and group_size != body.group_size:
            raise ValueError(f"{label} 'group_size' must equal the grouped-l1 ball's "
                             f"group_size {body.group_size}, got {group_size}")
    else:
        check_keys(doc, {"kind"}, label)
    return _KINDS[kind]()
