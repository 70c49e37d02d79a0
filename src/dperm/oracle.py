"""Non-private baselines and excess empirical risk measurement.

``solve_exact`` produces the constrained optimum the private solvers are
judged against, with a Frank-Wolfe duality-gap certificate.  It runs the
shared certified accelerated-gradient loop of ``firstorder`` to the
relative target ``DEFAULT_REL_TOL``; that module states the certificate
and the stall rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .firstorder import minimize
from .geometry import ConvexBody, memo_by_body
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


def solve_exact(body: ConvexBody, loss: LossSpec, data: Dataset) -> OracleSolution:
    """Minimize the empirical loss over the body to a duality-gap certificate.

    Runs ``firstorder.minimize`` with the relative target
    ``DEFAULT_REL_TOL`` * (1 + |optimum|) over the body's iterate space;
    the method is ``fista-coefficient`` when that is not the body itself
    (a polytope's simplex of vertex coefficients), else ``fista``.  The
    optimum is returned only once its Frank-Wolfe gap meets the target.
    A run that cannot certify raises
    ``firstorder.NotCertifiedError`` (a ``RuntimeError``) naming the best
    gap, the target, the iteration count and the best value.

    A body whose dimension is not the data's p raises ``ValueError`` first.
    """
    require_matching_dimension(body, data)
    sol = minimize(body, loss.bound_grad(data), DEFAULT_REL_TOL,
                   fval=lambda x: loss.loss(x, data))
    method = "fista" if body.iterate_space()[0] is body else "fista-coefficient"
    return OracleSolution(theta_star=sol.x, optimum_value=sol.value,
                          gap_certificate=sol.gap, method=method, body=body)


def excess_risk(theta, oracle: OracleSolution, loss: LossSpec, data: Dataset, *,
                feasible: bool | None = None) -> float:
    """L(theta; D) minus the oracle optimum.

    An infeasible theta raises ``ValueError`` before it is scored.
    ``feasible`` is ``oracle.body.contains(theta)`` when the caller has it
    already (a run's ``SolverReport.feasible``); with None it is checked
    here.

    May be slightly negative when theta beats the certified optimum within
    its gap certificate; such values are clamped (with a warning) at
    -gap_certificate, never silently zeroed.
    """
    theta = np.asarray(theta, dtype=float)
    if feasible is None:
        feasible = oracle.body.contains(theta)
    if not feasible:
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
# Cache (in the dataset's memo, per body and loss key)


def cached_solve(body: ConvexBody, loss: LossSpec, data: Dataset) -> OracleSolution:
    """``solve_exact``, memoised in the dataset per (body, loss).

    The entry lives in ``data``'s memo next to its other statistics, so it
    is freed with the dataset, and an equal-bytes copy of the data solves
    again.  The loss is keyed by ``loss_key`` and the body by
    ``memo_by_body``; a loss or a body without a key is solved uncached.
    """
    require_matching_dimension(body, data)
    key = loss_key(loss)
    if key is None:
        return solve_exact(body, loss, data)
    return memo_by_body(body, ("oracle", key), lambda: solve_exact(body, loss, data),
                        data._memo)
