"""Certified accelerated projected gradient: the one first-order loop.

``minimize`` minimizes a smooth convex f over a body and returns only a
certified iterate.  The non-private oracle and the inner solve of
objective perturbation both run it.

Certificate: every ``CHECK_EVERY`` iterations the Frank-Wolfe gap
grad f(x) . (x - lmo(grad f(x))), an upper bound on f(x) - min f over the
body, is compared with the target: tol * (1 + |f(x)|) when f's value is
given, tol otherwise.  The iterate is returned once the gap meets it.

Step and restart decisions use gradients only, because near an optimum
with f* > 0 the objective stops changing in floating point long before the
certificate is met:

- step test: a projected step x+ from z is accepted when
  (grad f(x+) - grad f(z)) . (x+ - z) <= ||x+ - z||^2 / (2 step); for a
  convex f this implies the descent-lemma bound
  f(x+) <= f(z) + grad f(z) . (x+ - z) + ||x+ - z||^2 / (2 step).
  The step halves until the test holds and grows by 10% per iteration;
- restart: momentum is dropped when (z - x+) . (x+ - x) > 0, the
  gradient restart of O'Donoghue & Candes (arXiv:1204.3982).  The next z
  is then x+, whose gradient the step test has just taken, so that
  gradient is reused: a restart costs one gradient fewer.

Stall rule (there is no iteration cap): a run whose best gap has not
improved for ``STALL_CHECKS`` checks, or whose step falls below
``MIN_STEP``, raises ``NotCertifiedError`` carrying the best-gap iterate.

The loop steps over the body's iterate space (``ConvexBody.iterate_space``):
the body itself, or for a ``Polytope`` its projectable simplex of vertex
coefficients.  f, its gradient and the gap are taken in ambient space.  The
result carries both the point and the iterate it came from, so a caller can
check the iterate on the simplex instead of the point on the polytope.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .geometry import ConvexBody

CHECK_EVERY = 10
STALL_CHECKS = 50
MIN_STEP = 1e-18


class Certified(NamedTuple):
    """A certified minimizer: ``gap`` is its Frank-Wolfe gap; ``value`` is
    f(x) when f's value was given, else None; ``iterate`` is the iterate
    that x is the point of (x itself, or on a polytope its vertex
    coefficients)."""

    x: np.ndarray
    gap: float
    value: Optional[float]
    iterations: int
    iterate: np.ndarray


class NotCertifiedError(RuntimeError):
    """A run that could not certify, with its best-gap point x and the
    iterate it is the point of, as in ``Certified``."""

    def __init__(self, reason: str, x: np.ndarray, gap: float, target: float,
                 iterations: int, value: Optional[float], iterate: np.ndarray):
        self.x, self.gap, self.target = x, gap, target
        self.iterations, self.value, self.iterate = iterations, value, iterate
        best = "" if value is None else f" (best value {value:.17g})"
        super().__init__(
            f"first-order solve did not certify optimality ({reason}): best gap {gap:.3e} "
            f"above target {target:.3e} after {iterations} iterations{best}"
        )


def minimize(body: ConvexBody, fgrad: Callable[[np.ndarray], np.ndarray], tol: float,
             fval: Optional[Callable[[np.ndarray], float]] = None) -> Certified:
    """Minimize f over the body to a Frank-Wolfe gap certificate.

    The target is relative, tol * (1 + |f(x)|), when ``fval`` is given and
    absolute otherwise.  The run starts at the canonical point of the body
    it runs over: a polytope at its uniform vertex coefficients.
    """
    run_body, point_of, pullback = body.iterate_space()
    if run_body is body:
        run_grad = fgrad
    else:
        def run_grad(a):
            return pullback(fgrad(point_of(a)))

    x = run_body.canonical_point()

    def gap_at(u) -> float:
        # u is feasible, so the true gap is nonnegative; a negative value
        # is rounding at an optimum on the boundary.
        pt = point_of(u)
        g = fgrad(pt)
        return max(float(g.dot(pt - body.lmo(g))), 0.0)

    def not_certified(reason: str) -> NotCertifiedError:
        return NotCertifiedError(reason, point_of(best_x), best_gap, best_target, it,
                                 best_value, best_x)

    z = x.copy()
    gz = None  # grad f(z) once known
    t_mom = 1.0
    step = 1.0
    best_x, best_gap, best_target, best_value = x, math.inf, math.nan, None
    stale_checks = 0
    it = 0
    while True:
        if it % CHECK_EVERY == 0:
            gap = gap_at(x)
            fx = None if fval is None else fval(point_of(x))
            target = tol if fx is None else tol * (1.0 + abs(fx))
            if gap <= target:
                return Certified(point_of(x), gap, fx, it, x)
            if gap < best_gap:
                best_x, best_gap, best_target, best_value = x, gap, target, fx
                stale_checks = 0
            else:
                stale_checks += 1
                if stale_checks >= STALL_CHECKS:
                    raise not_certified(f"gap stalled for {STALL_CHECKS} checks")
        it += 1
        if gz is None:
            gz = run_grad(z)
        while True:
            x_new = run_body.euclidean_project(z - step * gz)
            diff = x_new - z
            g_new = run_grad(x_new)
            if float((g_new - gz).dot(diff)) <= float(diff.dot(diff)) / (2 * step):
                break
            step *= 0.5
            if step < MIN_STEP:
                raise not_certified("step search underflow")
        dx = x_new - x
        # (z - x+) . dx > 0, as (x+ - z) . dx < 0: the factor's sign flips
        # the exact dot product, so the test keeps its bits.
        if float(diff.dot(dx)) < 0:  # gradient restart
            z, gz = x_new, g_new
            t_mom = 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            # Projected so that gradients are only taken at feasible points.
            z = run_body.euclidean_project(x_new + ((t_mom - 1.0) / t_new) * dx)
            gz = None
            t_mom = t_new
        x = x_new
        step *= 1.1
