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
Brent's method on a bracket that holds the root, to ``ROOT_RTOL`` relative
precision.  ``_brent`` is that method, step for step as
``scipy.optimize.brentq`` takes it, in Python: no module here imports
scipy.  Each evaluation of a multiplier equation reads only its active
terms: for the q-norm step the prefix of its sorted coefficients below the
multiplier, for the grouped step the blocks whose norm exceeds it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .geometry import (
    ConvexBody,
    GroupedL1Ball,
    L1Ball,
    L2Ball,
    Polytope,
    Simplex,
    build_kind,
    doc_int,
    symmetric_hull,
)

ENTROPY_FLOOR = 1e-12

# Brent's tolerances for the prox multipliers: brentq's own floor on the
# relative tolerance, and an absolute one below any multiplier scale, so the
# root is found to relative precision wherever it lies.  Python floats, so
# that ``_brent`` does its arithmetic on Python floats.
ROOT_RTOL = 4.0 * sys.float_info.epsilon
ROOT_XTOL = 1e-300
# brentq's default iteration limit.
ROOT_MAXITER = 100


def _brent(f: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """A root of f in [a, b] by Brent's method, given fa = f(a) and fb = f(b)
    of opposite signs; ``ValueError`` if they are not.

    The steps and the stopping rule |step| < (ROOT_XTOL + ROOT_RTOL |x|)/2
    are those of ``scipy.optimize.brentq`` (its ``brentq.c``), so on the
    same f and bracket it returns the same float.  ``RuntimeError`` after
    ``ROOT_MAXITER`` evaluations.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ValueError(f"f(a) = {fa!r} and f(b) = {fb!r} do not bracket a root")
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {ROOT_MAXITER} evaluations; "
                       f"last x = {xcur!r}")


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
        """The finite bound that sets the ``noisy_md`` step: max Psi over the
        body for the negative entropy, the q-norm and the grouped potentials;
        ``SquaredL2`` returns a bound on its divergence instead."""
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
        """0.5 ||C||_2^2 (l2 diameter), a bound on the divergence, not max Psi:
        4 times max Psi (2 r^2) on a radius-r ball about the origin and twice
        it (1) on the simplex of dimension > 1."""
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
        if v.min() < -1e-8:
            raise ValueError("entropy potential requires (near-)nonnegative input")
        return np.maximum(v, ENTROPY_FLOOR)

    def mirror_step(self, body: ConvexBody, x_t, g, eta: float) -> np.ndarray:
        x_t, g = self._step_args(x_t, g, eta)
        # Multiplicative-weights update, stabilized against overflow, in place.
        z = self._floored(x_t)
        np.log(z, out=z)
        z -= eta * g
        z -= z.max()
        np.exp(z, out=z)
        z /= z.sum()
        np.maximum(z, ENTROPY_FLOOR, out=z)
        z /= z.sum()
        return z

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
        2(q-1) ||b(lam)||_q^(q-2) sum b(lam) = 1, bracketed by doubling and
        solved by ``_brent`` to machine precision, after which a = b / sum b.
        c is sorted once, so an evaluation forms b only on the active
        prefix c_i < lam, and takes ||b||_q^q as b . (lam - c), since
        b^(q-1) = lam - c there.
        """
        x_t, g = self._step_args(x_t, g, eta)
        c = eta * g - self.grad(body, x_t)
        q = default_q_exponent(body.dimension)
        expo, power, factor = 1.0 / (q - 1.0), (q - 2.0) / q, 2.0 * (q - 1.0)
        cs = np.sort(c)

        def excess(lam: float) -> float:
            # 2(q-1) (sum b^q)^((q-2)/q) sum b - 1 over the active prefix.
            d = lam - cs[:cs.searchsorted(lam)]
            b = d ** expo
            total = float(b.sum())
            if total == 0.0:
                return -1.0
            return factor * float(b.dot(d)) ** power * total - 1.0

        # The equation reads -1 at lam = min c; double the bracket until it
        # reaches 0.
        lo = float(cs[0])
        hi = lo + max(float(cs[-1] - cs[0]), 1.0)
        while (f_hi := excess(hi)) < 0.0:
            hi = lo + 2.0 * (hi - lo)
        b = np.maximum(_brent(excess, lo, hi, -1.0, f_hi) - c, 0.0) ** expo
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
        return body.unblock(self._grad_blocks(body, body.blocks(x)))

    def _grad_blocks(self, body: GroupedL1Ball, B: np.ndarray) -> np.ndarray:
        """grad Psi in blocks, from the blocks B of x."""
        M, xi = grouped_exponents(body)
        nrm = np.sqrt((B * B).sum(-1))
        # ||x_j||^(M-2) on the nonzero blocks; a zero block's gradient is 0.
        scale = np.power(nrm, M - 2.0, out=np.zeros_like(nrm), where=nrm > 0.0)
        return (scale / xi)[:, None] * B

    def mirror_step(self, body: GroupedL1Ball, x_t, g, eta: float) -> np.ndarray:
        """Exact prox step: the objective is block-separable given block norms.

        With c = eta*g - grad Psi(x_t), each block's optimal direction is
        -c_j/||c_j|| and the block norms solve a one-dimensional dual
        problem: t_j(lam) = (xi (||c_j|| - lam)_+)^(1/(M-1)), with lam
        found by ``_brent`` so the norms sum to the radius (lam = 0 if
        already inside).  c is formed in blocks.  Only the active blocks
        enter the root's equation, as Python floats: a grouped ball has a
        handful of blocks.
        """
        x_t, g = self._step_args(x_t, g, eta)
        C = body.blocks(eta * g) - self._grad_blocks(body, body.blocks(x_t))
        a = np.sqrt((C * C).sum(-1))
        M, xi = grouped_exponents(body)
        expo = 1.0 / (M - 1.0)
        r = body.radius
        t = (xi * a) ** expo
        total = float(t.sum())
        if total > r:
            norms = a.tolist()

            def excess(lam: float) -> float:
                # sum_j t_j(lam) - r over the active blocks, ||c_j|| > lam.
                return sum([(xi * (aj - lam)) ** expo for aj in norms if aj > lam]) - r

            # The norms vanish at lam = max_j ||c_j||, which brackets the root.
            lam = _brent(excess, 0.0, max(norms), total - r, -r)
            t = (xi * np.maximum(a - lam, 0.0)) ** expo
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


# Each potential kind's constructor and how each key of its document is read; a
# grouped-l1 potential takes its ``group_size`` from the body it runs on.
_KINDS = {"squared_l2": (SquaredL2, {}), "negative_entropy": (NegativeEntropy, {}),
          "polytope_q_norm": (PolytopeQNorm, {}),
          "grouped_l1": (lambda group_size: GroupedL1(), {"group_size": doc_int})}


def potential_from_dict(doc: dict, body: ConvexBody) -> Potential:
    """Build a potential from its config document, for a run on ``body``.

    Only ``grouped_l1`` takes a key besides ``kind``: ``group_size``, which
    must equal the grouped-l1 ball's own.  Whether the potential can run on
    the body at all is ``SolverConfig``'s check (``Potential.natural_q``).
    """
    potential, values = build_kind(doc, "potential", _KINDS)
    group_size = values.get("group_size")
    if isinstance(body, GroupedL1Ball) and group_size not in (None, body.group_size):
        raise ValueError(f"{doc['kind']} potential 'group_size' must equal the grouped-l1 "
                         f"ball's group_size {body.group_size}, got {group_size}")
    return potential
