"""Noise mechanisms and exact calibration formulas.

All logarithms in calibration formulas are natural logarithms.  The
per-step scales below hard-code the strong-composition accounting the
source algorithms embed; no separate accountant is offered.

Each solver run records a ``NoisePlan`` whose derivation trace names the
formula and the inputs it was evaluated with, so the privacy claim of a
result is auditable from its output record alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import doc_float, doc_value, is_finite_real, read_doc


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) pair; epsilon = inf is the non-private sentinel."""

    epsilon: float
    delta: float = 1e-6

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if math.isfinite(self.epsilon) and not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")

    @property
    def is_private(self) -> bool:
        return math.isfinite(self.epsilon)

    @classmethod
    def from_dict(cls, doc: dict) -> "PrivacyBudget":
        """Read a budget document: ``epsilon`` is required and ``delta``
        defaults to the field's.  The string "inf" is the one epsilon of a
        non-private run."""
        return cls(**read_doc(doc, "budget", {"epsilon": _doc_epsilon,
                                              "delta": (doc_float, cls.delta)}))


_doc_epsilon = doc_value('a finite number or "inf"',
                         lambda v: v == "inf" or is_finite_real(v), float)


@dataclass
class NoisePlan:
    """Mechanism, noise scales, step count, and a human-readable derivation trace."""

    mechanism: str
    steps: int
    sigma: float = 0.0
    laplace_scale: float = 0.0
    zeta: float = 0.0
    trace: list[str] = field(default_factory=list)

    def __post_init__(self):
        if min(self.sigma, self.laplace_scale, self.zeta) < 0:
            raise ValueError("noise scales must be nonnegative")

    def log(self, line: str) -> None:
        self.trace.append(line)

    def to_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "steps": self.steps,
            "sigma": self.sigma,
            "laplace_scale": self.laplace_scale,
            "zeta": self.zeta,
            "trace": list(self.trace),
        }


# ---------------------------------------------------------------------------
# Calibration formulas.  A private budget has 0 < delta < 1, which
# ``PrivacyBudget`` checks once, so the formulas do not check it again.


def md_sigma(L2: float, T: int, budget: PrivacyBudget, n: int) -> float:
    """Per-step Gaussian scale for noisy mirror descent.

    sigma^2 = 32 L2^2 T ln^2(T/delta) / (eps n)^2.
    """
    _check_positive(L2=L2, T=T, n=n)
    if not budget.is_private:
        return 0.0
    if T / budget.delta <= 1.0:
        raise ValueError("T/delta <= 1 makes the calibration log degenerate")
    return math.sqrt(32.0 * L2 * L2 * T) * math.log(T / budget.delta) / (budget.epsilon * n)


def fw_laplace_scale(L1: float, c_l1: float, T: int,
                     budget: PrivacyBudget, n: int) -> float:
    """Per-score Laplace scale for the polytope Frank-Wolfe solver.

    b = L1 * ||C||_1 * sqrt(8 T ln(1/delta)) / (n eps), with ||C||_1 = c_l1.
    """
    _check_positive(L1=L1, c_l1=c_l1, T=T, n=n)
    if not budget.is_private:
        return 0.0
    return L1 * c_l1 * math.sqrt(8.0 * T * math.log(1.0 / budget.delta)) / (n * budget.epsilon)


def fw_gaussian_sigma(L2: float, T: int, budget: PrivacyBudget, n: int) -> float:
    """Per-step Gaussian scale for the general-convex Frank-Wolfe solver.

    sigma^2 = 32 L2 T ln^2(n/delta) / (n eps)^2, exactly as displayed by the
    source algorithm.  Note the display is linear in L2 (the mirror-descent
    scale carries L2^2) and uses ln(n/delta) where mirror descent uses
    ln(T/delta); both mismatches are preserved verbatim and noted in the
    derivation trace of any run that uses this scale.
    """
    _check_positive(L2=L2, T=T, n=n)
    if not budget.is_private:
        return 0.0
    if n / budget.delta <= 1.0:
        raise ValueError("n/delta <= 1 makes the calibration log degenerate")
    return math.sqrt(32.0 * L2 * T) * math.log(n / budget.delta) / (n * budget.epsilon)


def objpert_plan(L2: float, lam_max: float, lam_min: float,
                 budget: PrivacyBudget, n: int) -> tuple[float, float]:
    """Objective-perturbation scales (sigma, zeta).

    sigma = L2 sqrt(2 ln(1/delta)) / (n eps);
    zeta  = max(2 lam_max / (n eps) - lam_min, 0).
    """
    if lam_min > lam_max:
        raise ValueError("need lambda_min <= lambda_max")
    _check_positive(n=n)
    if not budget.is_private:
        return 0.0, 0.0
    sigma = L2 * math.sqrt(2.0 * math.log(1.0 / budget.delta)) / (n * budget.epsilon)
    zeta = max(2.0 * lam_max / (n * budget.epsilon) - lam_min, 0.0)
    return sigma, zeta


def _check_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if value < 0 or (name in ("T", "n") and value <= 0):
            raise ValueError(f"{name} must be positive, got {value}")


# ---------------------------------------------------------------------------
# Samplers


def sample_gaussian_vec(shape, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. N(0, sigma^2) entries in an array of ``shape`` (an int or a tuple).

    sigma = 0 returns zeros without touching rng.  A ``(m, p)`` block holds
    the same values as m consecutive draws of shape ``p``.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return np.zeros(shape)
    return sigma * rng.standard_normal(shape)


def sample_laplace(scale: float, rng: np.random.Generator, size) -> np.ndarray:
    """An array of Laplace draws by inverse CDF from one uniform per sample.

    ``size`` is an int or a shape tuple; a ``(m, k)`` block holds the same
    values as m consecutive draws of size k.  scale = 0 returns exact zeros
    without consuming generator state, so a zero-noise run is bit-identical
    to its noiseless counterpart.
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if scale == 0.0:
        return np.zeros(size)
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def report_noisy_min(scores, noise) -> int:
    """Index of the minimum of ``scores + noise``.

    ``noise`` is this selection's independent Laplace draw per score, an
    array of the scores' shape from ``sample_laplace`` (zeros at scale 0,
    where this is the exact argmin).
    Ties break to the lowest index.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a nonempty vector")
    if noise.shape != scores.shape:
        raise ValueError(f"noise of shape {noise.shape} for {scores.size} scores")
    noisy = scores + noise
    idx = int(noisy.argmin())
    # argmin returns the first NaN when there is one, and the noise is finite.
    if math.isnan(noisy[idx]):
        raise ValueError("scores must not contain NaN")
    return idx


def spawn_rng(master_seed: int, stream_id: int) -> np.random.Generator:
    """Documented split function: stream ``stream_id`` of a master seed.

    Distinct (seed, stream) pairs give statistically independent streams via
    numpy's SeedSequence spawn keys.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_id,))
    )
