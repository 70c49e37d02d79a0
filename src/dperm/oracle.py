"""Non-private baselines and excess empirical risk measurement.

``solve_exact`` produces the constrained optimum the private solvers are
judged against, with a Frank-Wolfe duality-gap certificate.  It runs the
shared certified accelerated-gradient loop of ``firstorder`` with a
relative target; that module states the certificate and the stall rule.
For the sparse-regression instance a dedicated coordinate-descent path
solve is available as an independent cross-check.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .firstorder import minimize
from .geometry import ConvexBody, Polytope, body_key
from .losses import Dataset, LossSpec, loss_key, require_matching_dimension

DEFAULT_REL_TOL = 1e-9


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

    Runs ``firstorder.minimize`` with a relative target, by default
    1e-9 * (1 + |optimum|); polytopes run over their simplex of vertex
    coefficients there.  The optimum is returned only once its Frank-Wolfe
    gap meets the target.  A run that cannot certify raises
    ``firstorder.NotCertifiedError`` (a ``RuntimeError``) naming the best
    gap, the target, the iteration count and the best value.

    A body whose dimension is not the data's p raises ``ValueError`` first.
    """
    require_matching_dimension(body, data)
    rel_tol = DEFAULT_REL_TOL if tol is None else tol
    if rel_tol <= 0:
        raise ValueError("tol must be positive")
    sol = minimize(body, lambda x: loss.grad(x, data), rel_tol,
                   fval=lambda x: loss.loss(x, data))
    method = "fista-coefficient" if isinstance(body, Polytope) else "fista"
    return OracleSolution(theta_star=sol.x, optimum_value=sol.value,
                          gap_certificate=sol.gap, method=method, body=body)


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


def lasso_cd_penalized(G: np.ndarray, b: np.ndarray, lam: float,
                       theta0: np.ndarray | None = None,
                       tol: float = 1e-13, max_passes: int = 50_000) -> np.ndarray:
    """Coordinate descent for (1/2n)||X theta - y||^2 + lam ||theta||_1.

    Takes the Gram statistics G = X'X/n and b = X'y/n, so a full pass
    costs O(p^2) whatever n is.
    """
    p = b.shape[0]
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

    # Built here, not read from ``data.gram()``, to keep the check independent.
    G, b = (X.T @ X) / n, (X.T @ y) / n
    lam_hi = float(np.abs(b).max())  # theta = 0 beyond this
    lam_lo = 0.0
    theta = np.zeros(X.shape[1])
    theta_hi = theta.copy()
    for _ in range(bisect_iters):
        lam = 0.5 * (lam_lo + lam_hi)
        theta = lasso_cd_penalized(G, b, lam, theta0=theta)
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

    The dataset is keyed by its fingerprint, which it computes once, and
    the body by ``body_key``; a body without a key is solved uncached.
    """
    require_matching_dimension(body, data)
    bkey = body_key(body)
    if bkey is None:
        return solve_exact(body, loss, data, tol=tol)
    key = f"{data.fingerprint()}|{bkey}|{_loss_key(loss)}|{tol}"
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit[1]
    sol = solve_exact(body, loss, data, tol=tol)
    with _cache_lock:
        _cache[key] = (loss, sol)
    return sol
