"""Dataset-parameterized convex losses and the constants the solvers consume.

All losses carry the 1/n normalization: L(theta; D) = (1/n) sum_i l(theta; d_i).
Lipschitz constants, curvature and Hessian eigenvalue bounds are derived for
the built-in kinds; custom losses must declare their constants explicitly
because noise calibration depends on them.

A ``Dataset`` is read-only.  Its ``X`` and ``y`` are read-only views of the
arrays it was built from (not copies), so writing into them raises; the
caller must not write into the arrays it passed in either.  Statistics
that depend only on the data are computed once per dataset, on first use,
under a lock, so threads of one sweep share them:

- ``fingerprint()``: sha256 of the shapes and bytes of (X, y), the oracle
  cache key;
- ``gram()``: G = X'X/n, b = X'y/n and c = y'y/(2n);
- ``row_sq_norms()``: ||x_i||^2 for every record;
- the Lipschitz constants of the built-in losses (without a ridge term),
  per (loss parameters, ``geometry.body_key(body)``).

Backend choice.  ``LossSpec.loss`` and ``LossSpec.grad`` are the only
entry points; they call the ``_loss_on`` / ``_grad_on`` hooks.  For
``SquaredError`` on data with p < n (a p x p Gram matrix is smaller than
X) the hooks use the sufficient statistics: grad = G theta - b and
loss = max(theta'G theta/2 - b'theta + c, 0), O(p^2) per call whatever n
is.  The clamp only removes cancellation error, since the loss is >= 0.
``SquaredError(ridge=lam)`` adds lam/2 ||theta||^2 on either backend, so
ridge regression runs on G too.
Its curvature bound reads G as well: v'Gv over the vertices, lambda_max(G)
on an l2 ball and the largest lambda_max(G_ss) over the blocks of a
grouped l1 ball.  ``Huber``, ``CustomLoss``, ``SquaredError`` with p >= n
and the box curvature bound (|X| m) keep the O(n p) pass over the rows.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .geometry import ConvexBody, Memo, body_key, row_abs_max

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

    With ``lasso_profile=True`` ingestion validates the sparse-regression
    domain ||x||_inf <= 1, |y| <= 1; out-of-range records are rejected, not
    clipped, because clipping would silently move the minimizer.

    ``X`` and ``y`` are read-only views of the arrays passed in, and the
    statistics below are memoised per dataset, so neither may change after
    construction.
    """

    X: np.ndarray
    y: np.ndarray
    lasso_profile: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        X, y = _read_only(self.X), _read_only(self.y)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, p) and y (n,) with matching n")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_stats", Memo())
        if self.lasso_profile:
            self._validate_lasso()

    def __reduce__(self):
        # The lock cannot be pickled; a copy starts with an empty memo.
        return type(self), (self.X, self.y, self.lasso_profile, self.meta)

    def _validate_lasso(self) -> None:
        bad_x = row_abs_max(self.X) > 1.0 + LASSO_DOMAIN_TOL
        bad_y = np.abs(self.y) > 1.0 + LASSO_DOMAIN_TOL
        bad = np.nonzero(bad_x | bad_y)[0]
        if bad.size:
            raise ValueError(
                f"record {bad[0]} violates the sparse-regression domain "
                "(||x||_inf <= 1, |y| <= 1); records are rejected, not clipped"
            )

    # -- statistics computed once per dataset --------------------------------

    def _memo(self, key, compute):
        """The statistic ``key``; ``compute()`` runs on first use only."""
        return self._stats.get(key, compute)

    def fingerprint(self) -> str:
        """sha256 over the shapes and bytes of X and y."""
        def compute():
            h = hashlib.sha256(repr((self.X.shape, self.y.shape)).encode())
            h.update(np.ascontiguousarray(self.X))
            h.update(np.ascontiguousarray(self.y))
            return h.hexdigest()

        return self._memo("fingerprint", compute)

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

    def records(self):
        for i in range(self.n):
            yield self.X[i], float(self.y[i])

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
        _require_nonempty(data)
        return self._grad_on(np.asarray(theta, dtype=float), data)

    def grad_single(self, theta, x, y: float) -> np.ndarray:
        raise NotImplementedError

    # Backend hooks: a pass over the rows unless a subclass has a cheaper
    # route through the dataset's statistics.

    def _loss_on(self, theta, data: Dataset) -> float:
        return self._loss_full(theta, data.X, data.y)

    def _grad_on(self, theta, data: Dataset) -> np.ndarray:
        return self._grad_full(theta, data.X, data.y)

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

    def curvature_empirical(self, body: ConvexBody, data: Dataset,
                            trials: int, seed: int = 0) -> float:
        """Sampled supremum of the second-order curvature expression.

        A lower bound on the true curvature constant, used to sanity-check
        ``curvature_bound``.
        """
        from .geometry import sample_feasible

        if trials < 1:
            raise ValueError("trials must be >= 1")
        _require_nonempty(data)
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(trials):
            t1 = sample_feasible(body, rng)
            t2 = sample_feasible(body, rng)
            gamma = 1.0 - rng.random()  # in (0, 1]
            t3 = t1 + gamma * (t2 - t1)
            val = (2.0 / gamma ** 2) * (
                self.loss(t3, data) - self.loss(t1, data)
                - float((t3 - t1) @ self.grad(t1, data))
            )
            best = max(best, val)
        return best

    def hessian_eig_bounds(self, body: ConvexBody, data: Dataset) -> tuple[float, float]:
        """Bounds (lambda_min, lambda_max) on per-record Hessian eigenvalues."""
        raise NotImplementedError


def _lipschitz(key: str, body: ConvexBody, data: Dataset,
               cap: Optional[float] = None) -> tuple[float, float]:
    """(max_i r_i ||x_i||_inf, max_i r_i ||x_i||_2) with the residual bound
    r_i = min(dual_norm(x_i) + |y_i|, cap), memoised per (loss key, body)."""
    _require_nonempty(data)

    def compute():
        # |<x_i, theta> - y_i| <= dual_norm(x_i) + |y_i| over the body.
        res = body.dual_norms(data.X) + np.abs(data.y)
        if cap is not None:
            res = np.minimum(res, cap)
        L1 = float(np.max(res * row_abs_max(data.X), initial=0.0))
        L2 = float(np.max(res * np.sqrt(data.row_sq_norms()), initial=0.0))
        return L1, L2

    bkey = body_key(body)
    return compute() if bkey is None else data._memo(("lipschitz", key, bkey), compute)


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

    def _grad_on(self, theta, data) -> np.ndarray:
        if data.prefers_gram:
            G, b, _ = data.gram()
            g = G @ theta - b
        else:
            g = super()._grad_on(theta, data)
        return g + self.ridge * theta if self.ridge else g

    def grad_single(self, theta, x, y: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = (float(x @ theta) - y) * x
        return g + self.ridge * np.asarray(theta, dtype=float) if self.ridge else g

    def lipschitz_constants(self, body, data) -> tuple[float, float]:
        L = _lipschitz("squared_error", body, data)
        if not self.ridge:
            return L
        # The ridge gradient is ridge * theta, largest at an extreme point.
        points = _extreme_points(body)
        return (L[0] + self.ridge * max(float(np.abs(v).max()) for v in points),
                L[1] + self.ridge * max(float(np.linalg.norm(v)) for v in points))

    def curvature_bound(self, body, data) -> float:
        return _quadratic_curvature_bound(body, data, ridge=self.ridge)

    def hessian_eig_bounds(self, body, data) -> tuple[float, float]:
        _require_nonempty(data)
        sq = data.row_sq_norms()
        lam_max = float(sq.max())
        lam_min = float(sq.min()) if data.p == 1 else 0.0
        return lam_min + self.ridge, lam_max + self.ridge


class Huber(LossSpec):
    """Huber loss of the residual with threshold delta."""

    def __init__(self, delta: float):
        if delta <= 0:
            raise ValueError("Huber delta must be positive")
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

    def grad_single(self, theta, x, y: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = float(np.clip(float(x @ theta) - y, -self.delta, self.delta))
        return r * x

    def lipschitz_constants(self, body, data) -> tuple[float, float]:
        return _lipschitz(f"huber:{self.delta!r}", body, data, cap=self.delta)

    def curvature_bound(self, body, data) -> float:
        # The Huber Hessian is dominated by the quadratic zone's x x^T.
        return _quadratic_curvature_bound(body, data, ridge=0.0)

    def hessian_eig_bounds(self, body, data) -> tuple[float, float]:
        # Piecewise bound: zero outside the quadratic zone.
        _require_nonempty(data)
        return 0.0, float(data.row_sq_norms().max())


class CustomLoss(LossSpec):
    """User-supplied loss hooks with explicitly declared constants.

    The library never guesses Lipschitz constants for black-box hooks: a
    wrong constant would silently break the privacy calibration.  Batch
    hooks are optional accelerators and must agree with the per-record
    hooks.
    """

    def __init__(self, loss_single: Callable, grad_single: Callable,
                 constants: dict,
                 loss_full: Optional[Callable] = None,
                 grad_full: Optional[Callable] = None,
                 name: str = "custom"):
        self._loss_single = loss_single
        self._grad_single = grad_single
        self._loss_batch = loss_full
        self._grad_batch = grad_full
        self.name = name
        self.constants = dict(constants)
        self.strong_convexity = self.constants.get("strong_convexity")

    def _loss_full(self, theta, X, y) -> float:
        if self._loss_batch is not None:
            return float(self._loss_batch(theta, X, y))
        return sum(self._loss_single(theta, X[i], float(y[i]))
                   for i in range(X.shape[0])) / X.shape[0]

    def _grad_full(self, theta, X, y) -> np.ndarray:
        if self._grad_batch is not None:
            return np.asarray(self._grad_batch(theta, X, y), dtype=float)
        acc = np.zeros_like(np.asarray(theta, dtype=float))
        for i in range(X.shape[0]):
            acc += self._grad_single(theta, X[i], float(y[i]))
        return acc / X.shape[0]

    def grad_single(self, theta, x, y: float) -> np.ndarray:
        return np.asarray(self._grad_single(theta, x, y), dtype=float)

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

    def hessian_eig_bounds(self, body, data) -> tuple[float, float]:
        return self._declared("lambda_min"), self._declared("lambda_max")


def _quadratic_curvature_bound(body: ConvexBody, data: Dataset, ridge: float) -> float:
    """4 max over C of (||X theta||^2 / n + ridge ||theta||^2).

    With ``data.prefers_gram`` the quadratic form reads G = X'X/n:
    ||X v||^2 / n = v'Gv and ||X_s||_2^2 / n = lambda_max(G_ss).
    """
    _require_nonempty(data)
    X, n = data.X, data.n
    G = data.gram().G if data.prefers_gram else None
    from .geometry import Box, GroupedL1Ball, L2Ball

    def top(cols) -> float:
        # lambda_max(X_s' X_s / n) for the column block s.
        if G is not None:
            sub = G[cols, cols]
            return max(float(np.linalg.eigvalsh(sub)[-1]), 0.0) if sub.size else 0.0
        sub = X[:, cols]
        s_max = float(np.linalg.norm(sub, 2)) if sub.size else 0.0
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
        return 4.0 * (body.radius ** 2) * (top(slice(None)) + ridge)
    if isinstance(body, GroupedL1Ball):
        best = max(top(s) for s in body._block_slices())
        return 4.0 * (body.radius ** 2) * (best + ridge)
    if isinstance(body, Box):
        if not body.is_symmetric:
            raise ValueError("curvature bound needs a symmetric body or a vertex list")
        m = body.hi
        row = np.abs(X) @ m
        return 4.0 * (float(row @ row) / n + ridge * float(m @ m))
    raise ValueError(f"curvature bound not implemented for {type(body).__name__}")


def _extreme_points(body: ConvexBody):
    """Points spanning the body for norm maxima (vertices or ball axes)."""
    from .geometry import Box, GroupedL1Ball, L2Ball

    try:
        return list(body.vertices())
    except ValueError:
        pass
    p = body.dimension
    if isinstance(body, L2Ball):
        # ||theta||_2 and ||theta||_inf maxima both occur at radius.
        return [body.radius * np.ones(p) / math.sqrt(p), body.radius * np.eye(p)[0]]
    if isinstance(body, GroupedL1Ball):
        out = []
        for s in body._block_slices():
            v = np.zeros(p)
            width = s.stop - s.start
            v[s] = body.radius / math.sqrt(width)
            out.append(v)
            v2 = np.zeros(p)
            v2[s.start] = body.radius
            out.append(v2)
        return out
    if isinstance(body, Box):
        # The farthest corner maximizes both norms.
        return [np.where(np.abs(body.lo) > np.abs(body.hi), body.lo, body.hi)]
    raise ValueError(f"no extreme-point list for {type(body).__name__}")


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


_LOSS_TAGS = {
    "squared_error": lambda d: SquaredError(ridge=float(d.get("ridge", 0.0))),
    "huber": lambda d: Huber(delta=float(d["delta"])),
}


def loss_from_dict(doc: dict) -> LossSpec:
    kind = doc.get("kind")
    if kind not in _LOSS_TAGS:
        raise ValueError(f"unknown loss kind {kind!r} (custom losses are built in code)")
    return _LOSS_TAGS[kind](doc)
