"""Non-private baselines and excess empirical risk measurement.

``solve_exact`` produces the constrained optimum the private solvers are
judged against, with a Frank-Wolfe duality-gap certificate.  For the
sparse-regression instance a dedicated coordinate-descent path solve is
available as an independent cross-check.
"""

from __future__ import annotations

import json
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexBody, Polytope, Simplex
from .losses import Dataset, LossSpec, loss_key, require_matching_dimension

DEFAULT_REL_TOL = 1e-9
CHECK_EVERY = 10
STALL_CHECKS = 50
MIN_STEP = 1e-18


@dataclass(frozen=True, eq=False)
class OracleSolution:
    """Constrained minimizer with an optimality certificate.

    ``gap_certificate`` is the Frank-Wolfe duality gap at ``theta_star``,
    an upper bound on the suboptimality of ``optimum_value``.
    """

    theta_star: np.ndarray
    optimum_value: float
    gap_certificate: float
    method: str
    body: ConvexBody

    def __post_init__(self):
        if self.gap_certificate < 0:
            raise ValueError("gap certificate must be nonnegative")


def solve_exact(body: ConvexBody, loss: LossSpec, data: Dataset,
                tol: float | None = None) -> OracleSolution:
    """Minimize the empirical loss over the body to a duality-gap certificate.

    Projectable bodies run accelerated projected gradient; polytopes are
    reformulated over their simplex of vertex coefficients (which is
    projectable) so the same routine applies.  The relative tolerance
    defaults to 1e-9 * (1 + |optimum|).

    The accelerated loop takes its step and restart decisions from
    gradients only: a step is accepted when
    (grad f(x+) - grad f(z)) . (x+ - z) <= ||x+ - z||^2 / (2 step), and
    momentum restarts when (z - x+) . (x+ - x) > 0.  It therefore keeps
    making progress after the objective value stops changing in floating
    point, which is where an interior optimum with f* > 0 must be certified.

    The optimum is returned only once its Frank-Wolfe gap meets the
    tolerance.  A run that cannot certify (its best gap stops improving, or
    the step search underflows) raises ``RuntimeError`` naming the best gap,
    the target, the iteration count and the best value.

    A body whose dimension is not the data's p raises ``ValueError`` first.
    """
    require_matching_dimension(body, data)
    rel_tol = DEFAULT_REL_TOL if tol is None else tol
    if rel_tol <= 0:
        raise ValueError("tol must be positive")

    if isinstance(body, Polytope):
        V = body.vertex_array
        coeff_body = Simplex(dimension=body.n_vertices)

        def fval(a):
            return loss.loss(V.T @ a, data)

        def fgrad(a):
            return V @ loss.grad(V.T @ a, data)

        a_star, value, gap = _fista(coeff_body, fval, fgrad, rel_tol,
                                    gap_body=body, to_point=lambda a: V.T @ a,
                                    point_grad=lambda a: loss.grad(V.T @ a, data))
        theta = V.T @ a_star
        method = "fista-coefficient"
    else:
        def fval(x):
            return loss.loss(x, data)

        def fgrad(x):
            return loss.grad(x, data)

        theta, value, gap = _fista(body, fval, fgrad, rel_tol)
        method = "fista"
    return OracleSolution(theta_star=theta, optimum_value=value,
                          gap_certificate=gap, method=method, body=body)


def _fista(body: ConvexBody, fval, fgrad, rel_tol: float,
           gap_body: ConvexBody | None = None, to_point=None, point_grad=None):
    """Accelerated projected gradient with a FW-gap stop rule.

    Every step decision uses gradients only, because near an optimum with
    f* > 0 the objective stops changing in floating point long before the
    gap certificate is met:

    - step test: a projected step x+ from z is accepted when
      (grad f(x+) - grad f(z)) . (x+ - z) <= ||x+ - z||^2 / (2 step); for a
      convex f this implies the descent-lemma bound
      f(x+) <= f(z) + grad f(z) . (x+ - z) + ||x+ - z||^2 / (2 step).
      The step halves until the test holds and grows by 10% per iteration;
    - restart: momentum is dropped when (z - x+) . (x+ - x) > 0, the
      gradient restart of O'Donoghue & Candes (arXiv:1204.3982).

    Every ``CHECK_EVERY`` iterations the FW gap at x is compared with the
    target ``rel_tol * (1 + |f(x)|)``; the iterate is returned only once the
    target is met.  A run whose best gap has not improved for
    ``STALL_CHECKS`` checks, or whose step falls below ``MIN_STEP``, raises
    ``RuntimeError`` naming the best gap, the target, the iteration count
    and the best value.

    The gap is measured in the ambient space when a coefficient
    reformulation is in play (``gap_body``/``to_point``/``point_grad``).
    """
    x = body.canonical_point()
    z = x.copy()
    t_mom = 1.0
    step = 1.0

    def ambient_gap(u) -> float:
        # u is feasible, so the true gap is nonnegative; a negative value
        # is rounding at an optimum on the boundary.
        if gap_body is None:
            g = fgrad(u)
            return max(float(g @ (u - body.lmo(g))), 0.0)
        g = point_grad(u)
        pt = to_point(u)
        return max(float(g @ (pt - gap_body.lmo(g))), 0.0)

    def not_certified(reason: str) -> RuntimeError:
        return RuntimeError(
            f"oracle did not certify optimality ({reason}): best gap {best_gap:.3e} "
            f"above target {best_target:.3e} after {it} iterations "
            f"(best value {best_value:.17g})"
        )

    best_gap, best_target, best_value = math.inf, math.nan, math.nan
    stale_checks = 0
    it = 0
    while True:
        if it % CHECK_EVERY == 0:
            gap = ambient_gap(x)
            fx = fval(x)
            target = rel_tol * (1.0 + abs(fx))
            if gap <= target:
                return x, fx, gap
            if gap < best_gap:
                best_gap, best_target, best_value = gap, target, fx
                stale_checks = 0
            else:
                stale_checks += 1
                if stale_checks >= STALL_CHECKS:
                    raise not_certified(f"gap stalled for {STALL_CHECKS} checks")
        it += 1
        gz = fgrad(z)
        while True:
            x_new = body.euclidean_project(z - step * gz)
            diff = x_new - z
            if float((fgrad(x_new) - gz) @ diff) <= float(diff @ diff) / (2 * step):
                break
            step *= 0.5
            if step < MIN_STEP:
                raise not_certified("step search underflow")
        if float((z - x_new) @ (x_new - x)) > 0:  # gradient restart
            z = x_new
            t_mom = 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            # Projected so that gradients are only taken at feasible points.
            z = body.euclidean_project(x_new + ((t_mom - 1.0) / t_new) * (x_new - x))
            t_mom = t_new
        x = x_new
        step *= 1.1


def excess_risk(theta, oracle: OracleSolution, loss: LossSpec, data: Dataset) -> float:
    """L(theta; D) minus the oracle optimum.

    May be slightly negative when theta beats the certified optimum within
    its gap certificate; such values are clamped (with a warning) at
    -gap_certificate, never silently zeroed.
    """
    theta = np.asarray(theta, dtype=float)
    if not oracle.body.contains(theta):
        raise ValueError("theta is not feasible for the oracle's body")
    value = loss.loss(theta, data) - oracle.optimum_value
    if value < -oracle.gap_certificate:
        warnings.warn(
            f"excess risk {value:.3e} below -gap_certificate "
            f"({-oracle.gap_certificate:.3e}); clamping",
            stacklevel=2,
        )
        return -oracle.gap_certificate
    return float(value)


# ---------------------------------------------------------------------------
# Coordinate-descent cross-check for the sparse-regression instance


def lasso_cd_penalized(X: np.ndarray, y: np.ndarray, lam: float,
                       theta0: np.ndarray | None = None,
                       tol: float = 1e-13, max_passes: int = 50_000) -> np.ndarray:
    """Coordinate descent for (1/2n)||X theta - y||^2 + lam ||theta||_1.

    Runs on the Gram matrix, so a full pass costs O(p^2) after the one-time
    O(n p^2) setup.
    """
    n, p = X.shape
    G = (X.T @ X) / n
    b = (X.T @ y) / n
    theta = np.zeros(p) if theta0 is None else theta0.copy()
    diag = np.diag(G).copy()
    grad_lin = G @ theta  # G theta, updated incrementally
    for _ in range(max_passes):
        max_change = 0.0
        for j in range(p):
            cj = diag[j]
            if cj == 0.0:
                continue
            rho = b[j] - grad_lin[j] + cj * theta[j]
            new = math.copysign(max(abs(rho) - lam, 0.0), rho) / cj
            change = new - theta[j]
            if change != 0.0:
                grad_lin += G[:, j] * change
                theta[j] = new
                max_change = max(max_change, abs(change))
        if max_change <= tol:
            break
    return theta


def lasso_oracle_cd(data: Dataset, radius: float,
                    bisect_iters: int = 200) -> tuple[np.ndarray, float]:
    """Constrained-LASSO optimum via a penalized coordinate-descent path.

    Bisects the penalty until the penalized solution's l1 norm matches the
    constraint radius; returns (theta, objective value) under the 1/(2n)
    normalization.  Independent of the projected-gradient oracle path.
    """
    X, y = data.X, data.y
    n = X.shape[0]

    def value(theta):
        r = X @ theta - y
        return 0.5 * float(r @ r) / n

    theta_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    if np.abs(theta_ls).sum() <= radius:
        return theta_ls, value(theta_ls)

    lam_hi = float(np.abs(X.T @ y).max()) / n  # theta = 0 beyond this
    lam_lo = 0.0
    theta = np.zeros(X.shape[1])
    theta_hi = theta.copy()
    for _ in range(bisect_iters):
        lam = 0.5 * (lam_lo + lam_hi)
        theta = lasso_cd_penalized(X, y, lam, theta0=theta)
        if np.abs(theta).sum() > radius:
            lam_lo = lam
        else:
            lam_hi = lam
            theta_hi = theta.copy()
        if lam_hi - lam_lo <= 1e-16 * max(lam_hi, 1.0):
            break
    # Feasible iterate from the high side of the bisection.
    if np.abs(theta_hi).sum() > radius:
        theta_hi *= radius / np.abs(theta_hi).sum()
    return theta_hi, value(theta_hi)


# ---------------------------------------------------------------------------
# Cache (per dataset/body/loss key)

# Each entry keeps its loss alive, so the id in a key cannot be reused.
_cache: dict[str, tuple[LossSpec, OracleSolution]] = {}
_cache_lock = threading.Lock()


def _loss_key(loss: LossSpec) -> str:
    # Built-in losses by their parameters, any other loss by identity.
    return loss_key(loss) or f"{type(loss).__name__}@{id(loss):x}"


def cached_solve(body: ConvexBody, loss: LossSpec, data: Dataset,
                 tol: float | None = None) -> OracleSolution:
    """``solve_exact`` with a per-(dataset, body, loss, tol) cache.

    The dataset is keyed by its fingerprint, which it computes once.
    """
    require_matching_dimension(body, data)
    key = (f"{data.fingerprint()}|{json.dumps(body.to_dict(), sort_keys=True)}"
           f"|{_loss_key(loss)}|{tol}")
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit[1]
    sol = solve_exact(body, loss, data, tol=tol)
    with _cache_lock:
        _cache[key] = (loss, sol)
    return sol
