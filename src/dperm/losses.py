"""Dataset-parameterized convex losses and the constants the solvers consume.

All losses carry the 1/n normalization: L(theta; D) = (1/n) sum_i l(theta; d_i).
Lipschitz constants, curvature and Hessian eigenvalue bounds are derived for
the built-in kinds; custom losses must declare their constants explicitly
because noise calibration depends on them.  A norm maximum of the body
(the ridge term's Lipschitz part) is read from ``ConvexBody.max_norm``.

A ``Dataset`` is read-only.  Its ``X`` and ``y`` are read-only views of the
arrays it was built from (not copies), so writing into them raises; the
caller must not write into the arrays it passed in either.  Statistics
that depend only on the data are computed once per dataset, on first use,
under a lock, and shared by every cell and every thread that reads it:

- ``gram()``: G = X'X/n, b = X'y/n and c = y'y/(2n);
- ``row_sq_norms()``: ||x_i||^2 for every record;
- ``row_abs_max()``: ||x_i||_inf for every record;
- the Lipschitz constants of the built-in losses (without a ridge term),
  per (loss parameters, ``geometry.body_key(body)``);
- the curvature bound of ``SquaredError`` and ``Huber``, per (ridge, body
  key);
- the certified optimum of ``oracle.cached_solve``, per (loss key, body
  key).  A copy of the data, even with equal bytes, solves again.

The body-keyed entries go through ``geometry.memo_by_body``, so a body
without a key gets its constants computed on every call.

Backend choice.  ``LossSpec.loss`` and ``LossSpec.bound_grad`` are the
entry points; they call the ``_loss_on`` / ``_bind_grad`` hooks.
``bound_grad(data)`` checks the data and picks the backend once, and
returns theta -> grad L(theta; D): the step loops and the certified
first-order loop bind it once per run and call it every step.
``LossSpec.grad(theta, data)`` is a call through it.  For
``SquaredError`` on data with p < n (a p x p Gram matrix is smaller than
X) the hooks use the sufficient statistics: grad = G theta - b and
loss = max(theta'G theta/2 - b'theta + c, 0), O(p^2) per call whatever n
is.  The clamp only removes cancellation error, since the loss is >= 0.
``SquaredError(ridge=lam)`` adds lam/2 ||theta||^2 on either backend, so
ridge regression runs on G too.
Its curvature bound reads G as well: v'Gv over the vertices, lambda_max(G)
on an l2 ball and, on a grouped l1 ball, the largest lambda_max(G_ss) over
its zero-padded diagonal blocks, in one batched call.  ``Huber``,
``CustomLoss`` (whose hooks take the whole batch X, y), ``SquaredError``
with p >= n and the box curvature bound (|X| m) keep the O(n p) row pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .geometry import (Box, ConvexBody, GroupedL1Ball, L1Ball, L2Ball, Memo, Simplex,
                       check_keys, doc_field, doc_float, memo_by_body, row_abs_max)

LASSO_DOMAIN_TOL = 1e-12


class GramStats(NamedTuple):
    """Sufficient statistics of squared error: G = X'X/n, b = X'y/n, c = y'y/(2n)."""

    G: np.ndarray
    b: np.ndarray
    c: float


def _read_only(a) -> np.ndarray:
    # A read-only view: the caller's float64 array is shared, not copied.
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix X (n, p), targets y (n,).

    Ingestion rejects a record with a NaN or an infinite value.  With
    ``lasso_profile=True`` it validates the sparse-regression domain
    ||x||_inf <= 1, |y| <= 1 instead; out-of-range records are rejected,
    not clipped, because clipping would silently move the minimizer.

    ``X`` and ``y`` are read-only views of the arrays passed in, and the
    statistics below are memoised per dataset, so neither may change after
    construction.
    """

    X: np.ndarray
    y: np.ndarray
    lasso_profile: bool = False

    def __post_init__(self):
        X, y = _read_only(self.X), _read_only(self.y)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, p) and y (n,) with matching n")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_stats", Memo())
        self._validate()

    def __reduce__(self):
        # The lock cannot be pickled; a copy starts with an empty memo.
        return type(self), (self.X, self.y, self.lasso_profile)

    def _validate(self) -> None:
        # The domain tests read "not inside", so a NaN, which fails every
        # comparison, is rejected too.
        if self.lasso_profile:
            limit = 1.0 + LASSO_DOMAIN_TOL
            bad = ~(self.row_abs_max() <= limit) | ~(np.abs(self.y) <= limit)
            why = ("violates the sparse-regression domain (||x||_inf <= 1, |y| <= 1); "
                   "records are rejected, not clipped")
        else:
            bad = ~(np.isfinite(self.X).all(axis=1) & np.isfinite(self.y))
            why = "holds a NaN or an infinite value"
        bad = np.flatnonzero(bad)
        if bad.size:
            raise ValueError(f"record {bad[0]} {why}")

    # -- statistics computed once per dataset --------------------------------

    def _memo(self, key, compute):
        """The statistic ``key``; ``compute()`` runs on first use only."""
        return self._stats.get(key, compute)

    def gram(self) -> GramStats:
        """G = X'X/n, b = X'y/n, c = y'y/(2n), as read-only arrays."""
        def compute():
            n = self.n
            G, b = self.X.T @ self.X / n, self.X.T @ self.y / n
            G.flags.writeable = b.flags.writeable = False
            return GramStats(G=G, b=b, c=0.5 * float(self.y @ self.y) / n)

        return self._memo("gram", compute)

    def row_sq_norms(self) -> np.ndarray:
        """||x_i||_2^2 for every record, read-only."""
        def compute():
            sq = np.einsum("ij,ij->i", self.X, self.X)
            sq.flags.writeable = False
            return sq

        return self._memo("row_sq_norms", compute)

    def row_abs_max(self) -> np.ndarray:
        """||x_i||_inf for every record, read-only."""
        def compute():
            m = row_abs_max(self.X)
            m.flags.writeable = False
            return m

        return self._memo("row_abs_max", compute)

    @property
    def prefers_gram(self) -> bool:
        """Whether the p x p Gram matrix is smaller than X (p < n)."""
        return self.p < self.n

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    # -- ingestion ---------------------------------------------------------

    @classmethod
    def from_csv(cls, path, lasso_profile: bool = False) -> "Dataset":
        """Read columns x_1..x_p, y (one record per row, optional header)."""
        rows: list[list[float]] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for i, row in enumerate(reader):
                if not row:
                    continue
                try:
                    rows.append([float(c) for c in row])
                except ValueError:
                    if i == 0:
                        continue  # header line
                    raise
        data = np.asarray(rows, dtype=float)
        if data.ndim != 2 or data.shape[1] < 2:
            raise ValueError("CSV must have at least one feature column and a target column")
        return cls(X=data[:, :-1], y=data[:, -1], lasso_profile=lasso_profile)


def _require_nonempty(data: Dataset) -> None:
    if data.n == 0:
        raise ValueError("dataset is empty")


def require_matching_dimension(body: ConvexBody, data: Dataset) -> None:
    """Reject a body whose dimension is not the data's p, before any work."""
    if body.dimension != data.p:
        raise ValueError(
            f"body dimension {body.dimension} does not match the data "
            f"dimension p = {data.p}"
        )


class LossSpec:
    """Convex per-record loss with derived (or declared) solver constants."""

    strong_convexity: Optional[float] = None

    # -- evaluation ---------------------------------------------------------

    def loss(self, theta, data: Dataset) -> float:
        _require_nonempty(data)
        return self._loss_on(np.asarray(theta, dtype=float), data)

    def grad(self, theta, data: Dataset) -> np.ndarray:
        return self.bound_grad(data)(np.asarray(theta, dtype=float))

    def bound_grad(self, data: Dataset) -> Callable[[np.ndarray], np.ndarray]:
        """theta -> grad L(theta; D) for a float vector theta.  The data are
        checked and the backend (with its statistics) is resolved here,
        once, not on every call."""
        _require_nonempty(data)
        return self._bind_grad(data)

    # Backend hooks: a pass over the rows unless a subclass has a cheaper
    # route through the dataset's statistics.

    def _loss_on(self, theta, data: Dataset) -> float:
        return self._loss_full(theta, data.X, data.y)

    def _bind_grad(self, data: Dataset) -> Callable[[np.ndarray], np.ndarray]:
        X, y, grad_full = data.X, data.y, self._grad_full
        return lambda theta: grad_full(theta, X, y)

    def _loss_full(self, theta, X, y) -> float:
        raise NotImplementedError

    def _grad_full(self, theta, X, y) -> np.ndarray:
        raise NotImplementedError

    # -- constants ------------------------------------------------------------

    def lipschitz_constants(self, body: ConvexBody, data: Dataset) -> tuple[float, float]:
        """Per-record worst-case (L1, L2) gradient norms over the body."""
        raise NotImplementedError

    def curvature_bound(self, body: ConvexBody, data: Dataset) -> float:
        raise NotImplementedError

    def hessian_eig_bounds(self, data: Dataset) -> tuple[float, float]:
        """Bounds (lambda_min, lambda_max) on per-record Hessian eigenvalues."""
        raise NotImplementedError


def _lipschitz(key: str, body: ConvexBody, data: Dataset,
               cap: Optional[float] = None) -> tuple[float, float]:
    """(max_i r_i ||x_i||_inf, max_i r_i ||x_i||_2) with the residual bound
    r_i = min(dual_norm(x_i) + |y_i|, cap), memoised per (loss key, body)."""
    _require_nonempty(data)

    def compute():
        # |<x_i, theta> - y_i| <= dual_norm(x_i) + |y_i| over the body.
        res = _dual_norms(body, data) + np.abs(data.y)
        if cap is not None:
            res = np.minimum(res, cap)
        L1 = float(np.max(res * data.row_abs_max(), initial=0.0))
        L2 = float(np.max(res * np.sqrt(data.row_sq_norms()), initial=0.0))
        return L1, L2

    return memo_by_body(body, ("lipschitz", key), compute, data._memo)


def _curvature(body: ConvexBody, data: Dataset, ridge: float) -> float:
    """``_quadratic_curvature_bound``, memoised per (ridge, body)."""
    return memo_by_body(body, ("curvature", ridge),
                        lambda: _quadratic_curvature_bound(body, data, ridge), data._memo)


def _dual_norms(body: ConvexBody, data: Dataset) -> np.ndarray:
    """``body.dual_norms(data.X)``; the l_inf duals of the l1 ball and the
    simplex read the dataset's memoised row maxima instead of a new pass."""
    if isinstance(body, L1Ball):
        return body.radius * data.row_abs_max()
    if isinstance(body, Simplex):
        return data.row_abs_max()
    return body.dual_norms(data.X)


class SquaredError(LossSpec):
    """l(theta; (x, y)) = 0.5 (<x, theta> - y)^2 + (ridge/2) ||theta||^2,
    ``ridge``-strongly convex w.r.t. l2; with ridge = 0 no ridge term is added."""

    def __init__(self, ridge: float = 0.0):
        if not 0.0 <= ridge < math.inf:
            raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")
        self.ridge = float(ridge)
        self.strong_convexity = self.ridge or None

    def _loss_full(self, theta, X, y) -> float:
        r = X @ theta - y
        return 0.5 * float(r @ r) / X.shape[0]

    def _grad_full(self, theta, X, y) -> np.ndarray:
        r = X @ theta - y
        return (X.T @ r) / X.shape[0]

    def _loss_on(self, theta, data) -> float:
        if data.prefers_gram:
            G, b, c = data.gram()
            # The value is >= 0; the clamp removes cancellation error at f* = 0.
            value = max(0.5 * float(theta @ (G @ theta)) - float(b @ theta) + c, 0.0)
        else:
            value = super()._loss_on(theta, data)
        return value + 0.5 * self.ridge * float(theta @ theta) if self.ridge else value

    def _bind_grad(self, data):
        ridge = self.ridge
        if data.prefers_gram:
            G, b, _ = data.gram()
            if ridge:
                return lambda theta: G @ theta - b + ridge * theta
            return lambda theta: G @ theta - b
        rows = super()._bind_grad(data)
        return (lambda theta: rows(theta) + ridge * theta) if ridge else rows

    def lipschitz_constants(self, body, data) -> tuple[float, float]:
        L = _lipschitz("squared_error", body, data)
        if not self.ridge:
            return L
        # The ridge gradient is ridge * theta.
        return (L[0] + self.ridge * body.max_norm(math.inf),
                L[1] + self.ridge * body.max_norm(2))

    def curvature_bound(self, body, data) -> float:
        return _curvature(body, data, self.ridge)

    def hessian_eig_bounds(self, data) -> tuple[float, float]:
        _require_nonempty(data)
        sq = data.row_sq_norms()
        lam_max = float(sq.max())
        lam_min = float(sq.min()) if data.p == 1 else 0.0
        return lam_min + self.ridge, lam_max + self.ridge


class Huber(LossSpec):
    """Huber loss of the residual with threshold delta."""

    def __init__(self, delta: float):
        if not 0.0 < delta < math.inf:
            raise ValueError(f"Huber delta must be positive and finite, got {delta!r}")
        self.delta = float(delta)

    def _loss_full(self, theta, X, y) -> float:
        r = X @ theta - y
        a = np.abs(r)
        d = self.delta
        vals = np.where(a <= d, 0.5 * r * r, d * a - 0.5 * d * d)
        return float(vals.sum()) / X.shape[0]

    def _grad_full(self, theta, X, y) -> np.ndarray:
        r = np.clip(X @ theta - y, -self.delta, self.delta)
        return (X.T @ r) / X.shape[0]

    def lipschitz_constants(self, body, data) -> tuple[float, float]:
        return _lipschitz(f"huber:{self.delta!r}", body, data, cap=self.delta)

    def curvature_bound(self, body, data) -> float:
        # The Huber Hessian is dominated by the quadratic zone's x x^T.
        return _curvature(body, data, 0.0)


class CustomLoss(LossSpec):
    """User-supplied batch hooks with explicitly declared constants.

    ``loss_full(theta, X, y)`` and ``grad_full(theta, X, y)`` return the
    1/n-normalized loss and gradient over all the records.  The library
    never guesses Lipschitz constants for black-box hooks: a wrong constant
    would silently break the privacy calibration.
    """

    def __init__(self, loss_full: Callable, grad_full: Callable, constants: dict,
                 name: str = "custom"):
        self._loss_hook = loss_full
        self._grad_hook = grad_full
        self.name = name
        self.constants = dict(constants)
        self.strong_convexity = self.constants.get("strong_convexity")

    def _loss_full(self, theta, X, y) -> float:
        return float(self._loss_hook(theta, X, y))

    def _grad_full(self, theta, X, y) -> np.ndarray:
        return np.asarray(self._grad_hook(theta, X, y), dtype=float)

    def _declared(self, key: str) -> float:
        if key not in self.constants:
            raise ValueError(
                f"custom loss {self.name!r} does not declare {key!r}; "
                "constants must be supplied, never inferred"
            )
        return float(self.constants[key])

    def lipschitz_constants(self, body, data) -> tuple[float, float]:
        return self._declared("l1_lipschitz"), self._declared("l2_lipschitz")

    def curvature_bound(self, body, data) -> float:
        return self._declared("curvature")

    def hessian_eig_bounds(self, data) -> tuple[float, float]:
        return self._declared("lambda_min"), self._declared("lambda_max")


def _quadratic_curvature_bound(body: ConvexBody, data: Dataset, ridge: float) -> float:
    """4 max over C of (||X theta||^2 / n + ridge ||theta||^2).

    With ``data.prefers_gram`` the quadratic form reads G = X'X/n:
    ||X v||^2 / n = v'Gv and ||X_s||_2^2 / n = lambda_max(G_ss).
    """
    _require_nonempty(data)
    X, n = data.X, data.n
    G = data.gram().G if data.prefers_gram else None

    def top(blocks: Callable[[np.ndarray], np.ndarray]) -> float:
        # max over the column blocks s of ``blocks``, (..., p) -> (..., m, g),
        # of lambda_max(X_s' X_s / n); zero padding adds zero eigenvalues.
        if G is not None:
            D = blocks(np.moveaxis(blocks(G), 0, -1))  # D[j, b, k, a] = G[s_k[a], s_j[b]]
            return max(float(np.linalg.eigvalsh(np.einsum("jbja->jab", D)).max()), 0.0)
        s_max = float(np.linalg.norm(np.moveaxis(blocks(X), -2, 0), 2, axis=(-2, -1)).max())
        return s_max * s_max / n

    try:
        V = body.vertices()
    except ValueError:
        V = None
    if V is not None:
        if G is not None:
            xv2 = ((V @ G) * V).sum(axis=1)
        else:
            # One vertex at a time: X @ V.T would hold an n x k matrix.
            xv2 = np.array([float(xv @ xv) / n for xv in (X @ v for v in V)])
        return 4.0 * float((xv2 + ridge * (V * V).sum(axis=1)).max())
    if isinstance(body, L2Ball):
        return 4.0 * (body.radius ** 2) * (top(lambda A: A[..., None, :]) + ridge)
    if isinstance(body, GroupedL1Ball):
        return 4.0 * (body.radius ** 2) * (top(body.blocks) + ridge)
    if isinstance(body, Box):
        # |<x, theta>| <= <|x|, m> at the farthest corner m, on any box.
        m = body.corner
        row = np.abs(X) @ m
        return 4.0 * (float(row @ row) / n + ridge * float(m @ m))
    raise ValueError(f"curvature bound not implemented for {type(body).__name__}")


def loss_key(loss: LossSpec) -> Optional[str]:
    """A key that names a built-in loss by its parameters, or None.

    Only the exact built-in types get one: a subclass or a ``CustomLoss``
    can compute anything, so it is known only by its identity.
    """
    if type(loss) is SquaredError:
        return f"squared_error:ridge={loss.ridge!r}" if loss.ridge else "squared_error"
    if type(loss) is Huber:
        return f"huber:{loss.delta!r}"
    return None


def loss_from_dict(doc: dict) -> LossSpec:
    """Build a built-in loss from its document: ``squared_error`` with an
    optional ``ridge``, or ``huber`` with its ``delta``.  Any other key
    raises ``ValueError``."""
    kind = doc.get("kind")
    label = f"{kind} loss"
    if kind == "squared_error":
        check_keys(doc, {"kind", "ridge"}, label)
        return SquaredError(ridge=doc_float(doc.get("ridge", 0.0), label, "ridge"))
    if kind == "huber":
        check_keys(doc, {"kind", "delta"}, label)
        return Huber(delta=doc_float(doc_field(doc, "delta", label), label, "delta"))
    raise ValueError(f"unknown loss kind {kind!r} (custom losses are built in code)")
