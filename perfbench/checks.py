"""Correctness checks run after the timed phase of every round.

Everything a check compares against is computed here with plain numpy
and scipy: losses, gradients, linear minimization, membership, dual
norms, Lipschitz constants and the calibration formulas of the paper.
Only the inputs (the generated datasets, the oracle's minimizer and the
solvers' outputs) come from the program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize, nnls

GAP_REL_TOL = 1e-9        # the oracle's certificate: gap <= 1e-9 (1 + |f|)
VALUE_REL_TOL = 1e-10     # f(theta*) against the record's optimum
SCALE_REL_TOL = 1e-9      # noise scales against the calibration formulas
FEAS_TOL = 1e-9           # membership slack, as the program's own
SCIPY_REL_TOL = 1e-7      # independent Gram-form solve against f*


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Losses


def loss_value(loss: dict, theta, X, y) -> float:
    r = X @ theta - y
    if loss["kind"] == "squared_error":
        return 0.5 * float(r @ r) / X.shape[0]
    d = float(loss["delta"])
    a = np.abs(r)
    return float(np.where(a <= d, 0.5 * r * r, d * a - 0.5 * d * d).sum()) / X.shape[0]


def loss_grad(loss: dict, theta, X, y) -> np.ndarray:
    r = X @ theta - y
    if loss["kind"] == "huber":
        r = np.clip(r, -float(loss["delta"]), float(loss["delta"]))
    return X.T @ r / X.shape[0]


# ---------------------------------------------------------------------------
# Bodies, described by their JSON documents


def _blocks(body: dict) -> list[slice]:
    g, p = int(body["group_size"]), int(body["dimension"])
    return [slice(i, min(i + g, p)) for i in range(0, p, g)]


def lmo(body: dict, g: np.ndarray) -> np.ndarray:
    kind = body["kind"]
    if kind == "l1_ball":
        j = int(np.argmax(np.abs(g)))
        out = np.zeros_like(g)
        out[j] = -math.copysign(body["radius"], g[j])
        return out
    if kind == "l2_ball":
        nrm = float(np.linalg.norm(g))
        return np.zeros_like(g) if nrm == 0.0 else -body["radius"] * g / nrm
    if kind == "simplex":
        out = np.zeros_like(g)
        out[int(np.argmin(g))] = 1.0
        return out
    if kind == "polytope":
        V = np.asarray(body["vertices"])
        return V[int(np.argmin(V @ g))]
    if kind == "grouped_l1_ball":
        blocks = _blocks(body)
        norms = np.array([np.linalg.norm(g[s]) for s in blocks])
        j = int(np.argmax(norms))
        out = np.zeros_like(g)
        if norms[j] > 0.0:
            out[blocks[j]] = -body["radius"] * g[blocks[j]] / norms[j]
        return out
    if kind == "box":
        return np.where(g > 0, np.asarray(body["lo"]), np.asarray(body["hi"]))
    raise CheckError(f"no check implemented for body kind {kind!r}")


def dual_norms(body: dict, X: np.ndarray) -> np.ndarray:
    """max over w in C of |<w, x_i>| for every row x_i."""
    kind = body["kind"]
    if kind == "l1_ball":
        return body["radius"] * np.abs(X).max(axis=1)
    if kind == "l2_ball":
        return body["radius"] * np.linalg.norm(X, axis=1)
    if kind == "simplex":
        return np.abs(X).max(axis=1)
    if kind == "polytope":
        return np.abs(X @ np.asarray(body["vertices"]).T).max(axis=1)
    if kind == "grouped_l1_ball":
        return body["radius"] * np.stack(
            [np.linalg.norm(X[:, s], axis=1) for s in _blocks(body)], axis=1).max(axis=1)
    if kind == "box":
        lo, hi = np.asarray(body["lo"]), np.asarray(body["hi"])
        top = np.where(X > 0, X * hi, X * lo).sum(axis=1)
        bottom = np.where(X > 0, X * lo, X * hi).sum(axis=1)
        return np.maximum(np.abs(top), np.abs(bottom))
    raise CheckError(f"no check implemented for body kind {kind!r}")


def l1_radius(body: dict) -> float:
    kind = body["kind"]
    if kind == "l1_ball":
        return float(body["radius"])
    if kind == "simplex":
        return 1.0
    if kind == "polytope":
        return float(np.abs(np.asarray(body["vertices"])).sum(axis=1).max())
    raise CheckError(f"no vertex list for body kind {kind!r}")


def contains(body: dict, x: np.ndarray) -> bool:
    kind = body["kind"]
    if kind == "l1_ball":
        return float(np.abs(x).sum()) <= body["radius"] + FEAS_TOL
    if kind == "l2_ball":
        return float(np.linalg.norm(x)) <= body["radius"] + FEAS_TOL
    if kind == "simplex":
        return bool(x.min() >= -FEAS_TOL and abs(x.sum() - 1.0) <= FEAS_TOL)
    if kind == "grouped_l1_ball":
        total = sum(float(np.linalg.norm(x[s])) for s in _blocks(body))
        return total <= body["radius"] + FEAS_TOL
    if kind == "box":
        return bool(np.all(x >= np.asarray(body["lo"]) - FEAS_TOL)
                    and np.all(x <= np.asarray(body["hi"]) + FEAS_TOL))
    if kind == "polytope":
        # Nonnegative weights a with V^T a = x and sum a = 1, by NNLS on the
        # stacked system; the sum row is weighted so it cannot be traded away.
        V = np.asarray(body["vertices"])
        w = 1e3
        A = np.vstack([V.T, w * np.ones(V.shape[0])])
        _, resid = nnls(A, np.concatenate([x, [w]]), maxiter=50 * V.shape[0])
        return resid <= 1e-7
    raise CheckError(f"no check implemented for body kind {kind!r}")


# ---------------------------------------------------------------------------
# Calibration (the paper's formulas, natural logarithms)


def lipschitz(loss: dict, body: dict, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Per-record worst-case (l_inf, l_2) gradient norms over the body."""
    res = dual_norms(body, X) + np.abs(y)
    if loss["kind"] == "huber":
        res = np.minimum(res, float(loss["delta"]))
    return (float(np.max(res * np.abs(X).max(axis=1))),
            float(np.max(res * np.linalg.norm(X, axis=1))))


def expected_scales(algorithm: str, T: int, n: int, eps: float, delta: float,
                    L1: float, L2: float, body: dict) -> tuple[float, float]:
    """(sigma, laplace_scale) for one record."""
    if algorithm == "noisy_md":
        return math.sqrt(32.0 * L2 * L2 * T) * math.log(T / delta) / (eps * n), 0.0
    if algorithm == "fw_general":
        return math.sqrt(32.0 * L2 * T) * math.log(n / delta) / (n * eps), 0.0
    if algorithm == "fw_polytope":
        return 0.0, L1 * l1_radius(body) * math.sqrt(8.0 * T * math.log(1.0 / delta)) / (n * eps)
    if algorithm == "obj_pert":
        return L2 * math.sqrt(2.0 * math.log(1.0 / delta)) / (n * eps), 0.0
    raise CheckError(f"no calibration check for {algorithm!r}")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Oracle


def scipy_l1_gram_optimum(X: np.ndarray, y: np.ndarray, radius: float) -> float:
    """min 1/2 t'Gt - b't + c over ||t||_1 <= radius with scipy's SLSQP.

    Gram form G = X'X/n, b = X'y/n, c = y'y/(2n), with t = u - v and
    u, v >= 0, sum(u + v) <= radius.
    """
    n, p = X.shape
    G = X.T @ X / n
    b = X.T @ y / n
    c = 0.5 * float(y @ y) / n

    def split(z):
        return z[:p] - z[p:]

    def f(z):
        t = split(z)
        return 0.5 * float(t @ G @ t) - float(b @ t) + c

    def jac(z):
        g = G @ split(z) - b
        return np.concatenate([g, -g])

    res = minimize(f, np.zeros(2 * p), jac=jac, method="SLSQP",
                   bounds=[(0.0, None)] * (2 * p),
                   constraints=[{"type": "ineq", "fun": lambda z: radius - z.sum(),
                                 "jac": lambda z: -np.ones(2 * p)}],
                   options={"maxiter": 1000, "ftol": 1e-16})
    return float(f(np.maximum(res.x, 0.0)))


def check_oracle(body: dict, loss: dict, X, y, theta_star, optimum: float,
                 gap_certificate: float) -> None:
    """Certificate, value and (for the l1-ball LASSO) an independent solve."""
    theta_star = np.asarray(theta_star, dtype=float)
    label = f"{body['kind']}/{loss['kind']} at n={X.shape[0]}"
    _require(contains(body, theta_star), f"oracle minimizer infeasible on {label}")
    f = loss_value(loss, theta_star, X, y)
    g = loss_grad(loss, theta_star, X, y)
    gap = float(g @ (theta_star - lmo(body, g)))
    _require(gap <= GAP_REL_TOL * (1.0 + abs(f)),
             f"oracle FW gap {gap:.3e} above {GAP_REL_TOL} (1 + |f|) on {label}")
    _require(_close(f, optimum, VALUE_REL_TOL),
             f"f(theta*) = {f!r} but the record's optimum is {optimum!r} on {label}")
    _require(gap_certificate >= 0.0, f"negative gap certificate on {label}")
    if body["kind"] == "l1_ball" and loss["kind"] == "squared_error":
        f_scipy = scipy_l1_gram_optimum(X, y, float(body["radius"]))
        _require(f_scipy >= f - max(gap, 0.0) - 1e-12,
                 f"scipy found {f_scipy!r} below the certified optimum {f!r} on {label}")
        _require(abs(f_scipy - f) <= SCIPY_REL_TOL * (1.0 + abs(f)),
                 f"scipy optimum {f_scipy!r} differs from {f!r} on {label}")


def check_record(doc: dict, record, theta_priv, X, y, gap_certificate: float) -> None:
    """Excess risk, configured T, calibration and feasibility of one cell."""
    body, loss, alg = doc["body"], doc["loss"], doc["algorithm"]
    label = f"{doc['id']} n={record.n} seed={record.seed}"
    _require(math.isfinite(record.excess_risk), f"non-finite excess risk on {label}")
    _require(record.excess_risk >= -gap_certificate,
             f"excess risk {record.excess_risk:.3e} below -gap on {label}")
    if "T" in doc:
        _require(record.T == int(doc["T"]), f"T = {record.T}, configured {doc['T']} on {label}")
    if "t_cap" in doc:
        # The default formula resolves far above the cap at the sizes used.
        _require(record.T == int(doc["t_cap"]),
                 f"T = {record.T}, capped at {doc['t_cap']} on {label}")
    L1, L2 = lipschitz(loss, body, X, y)
    budget = doc["budget"]
    sigma, scale = expected_scales(alg, record.T, record.n, float(budget["epsilon"]),
                                   float(budget["delta"]), L1, L2, body)
    _require(_close(record.sigma, sigma, SCALE_REL_TOL),
             f"sigma {record.sigma!r}, formula gives {sigma!r} on {label}")
    _require(_close(record.laplace_scale, scale, SCALE_REL_TOL),
             f"laplace scale {record.laplace_scale!r}, formula gives {scale!r} on {label}")
    theta = np.asarray(theta_priv, dtype=float)
    _require(np.all(np.isfinite(theta)) and contains(body, theta),
             f"private output infeasible on {label}")
