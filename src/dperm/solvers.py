"""Private solvers: noisy mirror descent, objective perturbation, Frank-Wolfe.

``run_solver`` is the one entry point.  ``_TABLE`` gives each algorithm a
calibration and a loop.  The calibration (``resolve_defaults``) reads the
algorithm's constants, resolves its step count, sets its noise scale and
its step, and logs each in the ``NoisePlan`` trace.  The loop is a
generator that yields the iterates it visits and returns (theta_priv,
iterations, extras):

- mirror descent (``noisy_md``, ``strongly_convex_md``): T-1 prox steps on
  Gaussian-noised gradients over the body's iterate space
  (``ConvexBody.iterate_space``: a polytope's simplex of vertex
  coefficients, any other body itself), yielding theta_1 ... theta_T and
  returning their average;
- objective perturbation (``obj_pert``): one certified minimization of
  L + (zeta/2)||theta - theta0||^2 + <b, theta> with Gaussian b, yielding
  its one output;
- Frank-Wolfe (``fw_polytope``, ``fw_general``): T-1 steps toward a private
  target, the vertex with the report-noisy-min score for ``fw_polytope``
  and the LMO of the Gaussian-noised gradient for ``fw_general``, yielding
  theta_1 ... theta_T and returning theta_T.

Every run is deterministic given (config, data, seed): noise injection
is the only stochastic element, and the zero-scale samplers leave the
generator untouched, so a non-private run reproduces its classical
counterpart's iterate sequence bit for bit.

Step sizes are the ones the source algorithms fix: the constant
eta = sqrt(max Psi)/(L2 ||Q||_2 sqrt(T)) for ``noisy_md``, the schedule
eta_t = 2/(Delta t) for ``strongly_convex_md`` and the constant weight
mu = 1/(T+2) for both Frank-Wolfe loops.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .firstorder import NotCertifiedError, minimize
from .geometry import (ConvexBody, body_from_dict, check_keys, doc_field, doc_int,
                       gaussian_width_mc, memo_by_body, symmetric_hull)
from .losses import Dataset, Huber, LossSpec, loss_from_dict, require_matching_dimension
from .potentials import Potential, potential_from_dict
from .privacy import (
    NoisePlan,
    PrivacyBudget,
    fw_gaussian_sigma,
    fw_laplace_scale,
    md_sigma,
    objpert_plan,
    report_noisy_min,
    sample_gaussian_vec,
    sample_laplace,
    spawn_rng,
)

# Stream id of the noise generator in the documented rng split.
_STREAM_NOISE = 0

OBJPERT_INNER_TOL = 1e-8

# The step loops draw their noise in blocks of consecutive rows, each block at
# most this many bytes, so memory stays flat whatever T is.  A block holds the
# same values as the per-step draws it replaces.
NOISE_BLOCK_BYTES = 1 << 20

# Monte-Carlo samples and public seed of the Gaussian width in a default T,
# computed once per body, so every seed of one config resolves the same T.
WIDTH_SAMPLES = 20_000
WIDTH_SEED = 0


@dataclass
class SolverConfig:
    """Everything a solver run needs besides the dataset.

    ``T = 0`` resolves the step count from the algorithm's own default
    formula (floored at 1, capped at ``t_cap >= 1``).  The mirror-descent
    algorithms need a potential that can run on the body
    (``Potential.natural_q`` raises on any other) and the other algorithms
    refuse one; ``strongly_convex_md`` needs a loss with
    ``strong_convexity > 0`` and ``obj_pert`` a C^2 loss (not ``Huber``).
    All are checked here, once per config.
    """

    algorithm: str
    body: ConvexBody
    loss: LossSpec
    budget: PrivacyBudget
    potential: Optional[Potential] = None
    T: int = 0
    seed: int = 0
    t_cap: int = 10 ** 6

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.T < 0:
            raise ValueError("T must be >= 0 (0 = use the default formula)")
        if self.t_cap < 1:
            raise ValueError(f"t_cap must be >= 1, got {self.t_cap}")
        if self.algorithm in ("noisy_md", "strongly_convex_md"):
            if self.potential is None:
                raise ValueError(f"{self.algorithm} requires a potential")
            self.potential.natural_q(self.body)
        elif self.potential is not None:
            raise ValueError(f"{self.algorithm} takes no potential")
        if self.algorithm == "strongly_convex_md" and not (self.loss.strong_convexity or 0) > 0:
            raise ValueError("strongly_convex_md requires a loss with strong_convexity > 0")
        if self.algorithm == "obj_pert" and isinstance(self.loss, Huber):
            raise ValueError("objective perturbation needs a twice continuously "
                             "differentiable loss; the Huber loss is not C^2")
        if self.algorithm == "fw_polytope":
            try:
                self.body.vertices()
            except ValueError as exc:
                raise ValueError(
                    "fw_polytope requires a vertex-enumerable body "
                    "(polytope, l1 ball, or simplex)"
                ) from exc

    @classmethod
    def from_dict(cls, doc: dict) -> "SolverConfig":
        """Build a config from its document; an unknown or missing key raises
        ``ValueError``.  ``algorithm``, ``body``, ``loss`` and ``budget`` are
        required."""
        check_keys(doc, _DOC_KEYS, "solver config")
        body = body_from_dict(doc_field(doc, "body", "solver config"))
        loss = loss_from_dict(doc_field(doc, "loss", "solver config"))
        potential = None
        if doc.get("potential") is not None:
            potential = potential_from_dict(doc["potential"], body)
        return cls(
            algorithm=doc_field(doc, "algorithm", "solver config"),
            body=body,
            loss=loss,
            budget=PrivacyBudget.from_dict(doc_field(doc, "budget", "solver config")),
            potential=potential,
            T=doc_int(doc.get("T", 0), "solver config", "T"),
            seed=doc_int(doc.get("seed", 0), "solver config", "seed"),
            t_cap=doc_int(doc.get("t_cap", 10 ** 6), "solver config", "t_cap"),
        )


# The keys of a config document: the fields ``from_dict`` reads, the sweep's
# solver ``id`` and the ``lasso_profile`` that ``dperm solve`` reads.
_DOC_KEYS = frozenset({f.name for f in fields(SolverConfig)} | {"id", "lasso_profile"})


@dataclass
class SolverReport:
    """Output model plus everything needed to audit and score the run."""

    algorithm: str
    theta_priv: np.ndarray
    iterations: int
    noise_plan: NoisePlan
    seed: int
    wall_time_s: float
    feasible: bool
    excess_risk: Optional[float] = None
    optimum: Optional[float] = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "theta_priv": np.asarray(self.theta_priv).tolist(),
            "iterations": self.iterations,
            "noise_plan": self.noise_plan.to_dict(),
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
            "feasible": self.feasible,
            "excess_risk": self.excess_risk,
            "optimum": self.optimum,
        }
        out.update(self.extras)
        return out


# ---------------------------------------------------------------------------
# Calibration: one ``calibrate(cfg, data)`` per algorithm, top to bottom.


def seed_from(master_seed: int, stream: int) -> int:
    # Deterministic sub-seed for components that take an integer seed.
    return int(np.random.SeedSequence(entropy=master_seed,
                                      spawn_key=(stream,)).generate_state(1)[0])


@dataclass
class ResolvedRun:
    T: int
    plan: NoisePlan
    eta: Optional[Callable[[int], float]] = None  # MD step for index t (1-based)
    mu: Optional[float] = None  # FW mixing weight, the same at every step


def resolve_defaults(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    """Fill T, step sizes and noise scales; record every substitution."""
    require_matching_dimension(cfg.body, data)
    return _TABLE[cfg.algorithm][0](cfg, data)


def _steps(cfg: SolverConfig, plan: NoisePlan, text: tuple[str, str],
           ratio: Callable, width: Optional[tuple[str, ConvexBody]] = None) -> int:
    """The step count, also set as ``plan.steps``: the user's T verbatim;
    else the formula num / den, named by the pair ``text``, with (num, den)
    = ``ratio(w)`` at the Gaussian width w of ``width`` = (label, body)
    (None without one), floored at 1 and capped at t_cap.  A non-private
    budget or a zero denominator makes the formula infinite: the cap."""
    if cfg.T > 0:
        plan.log(f"T = {cfg.T} (user-supplied)")
        plan.steps = cfg.T
        return cfg.T
    w = None
    if width is not None:
        label, body = width
        est = memo_by_body(body, ("gaussian_width",),
                           lambda: gaussian_width_mc(body, WIDTH_SAMPLES, WIDTH_SEED))
        plan.log(f"{label} = {est.mean:.6g} (Monte Carlo, {est.samples} samples, "
                 f"seed {est.seed}, se {est.std_error:.2g})")
        w = est.mean
    private = cfg.budget.is_private
    num, den = ratio(w) if private else (math.inf, 1.0)
    value = num / den if den > 0 else math.inf
    plan.log(f"T formula: {text[0]} / {text[1]} = {value:.6g}")
    if math.isinf(value):
        why = f": {text[1]} = {den:.6g};" if private else " in non-private mode;"
        plan.log(f"T formula diverges{why} capped at {cfg.t_cap}")
        T = cfg.t_cap
    elif value < 1.0:
        raise ValueError(f"{cfg.algorithm}: default step count resolves to {value:.3g} < 1; "
                         "increase n or epsilon, or supply T explicitly")
    else:
        T = min(int(value), cfg.t_cap)
        if T < value:
            plan.log(f"T = min(floor({value:.6g}), cap {cfg.t_cap}) = {T}")
    plan.steps = T
    return T


def _fw_mu(T: int, plan: NoisePlan) -> float:
    mu = 1.0 / (T + 2.0)
    plan.log(f"mu = 1/(T+2) = {mu:.6g}")
    return mu


def _calibrate_noisy_md(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    eps, delta, n = cfg.budget.epsilon, cfg.budget.delta, data.n
    L2 = cfg.loss.lipschitz_constants(cfg.body, data)[1]
    plan = NoisePlan(mechanism="gaussian_per_step", steps=0)
    plan.log(f"L2 = {L2:.6g}, n = {n}, eps = {eps}, delta = {delta}")
    # The potential knows the symmetric body its strong convexity is stated
    # against; the blanket symmetric hull would mispair e.g. a squared-l2
    # potential on an l1 ball.  The config requires a potential, so the hull
    # fallback never runs; perfbench/spans.py still patches it here.
    q_body = (cfg.potential.natural_q(cfg.body) if cfg.potential is not None
              else symmetric_hull(cfg.body))
    q_diam = q_body.l2_diameter()
    T = _steps(cfg, plan, ("||Q||_2^2 eps^2 n^2", "(L2^2 ln^2(n/delta) G_Q^2)"),
               lambda g_q: (q_diam ** 2 * eps ** 2 * n ** 2,
                            L2 ** 2 * math.log(n / delta) ** 2 * g_q ** 2),
               ("G_Q", q_body))
    plan.sigma = md_sigma(L2, T, cfg.budget, n)
    plan.log(f"sigma = sqrt(32 L2^2 T) ln(T/delta)/(eps n) = {plan.sigma:.6g}")
    if L2 <= 0 or q_diam <= 0:
        raise ValueError("noisy_md: the step size sqrt(max Psi)/(L2 ||Q||_2 sqrt(T)) "
                         f"needs L2 > 0 and ||Q||_2 > 0, got L2 = {L2:.6g}, "
                         f"||Q||_2 = {q_diam:.6g}")
    max_psi = cfg.potential.max_over_domain(cfg.body)
    eta = math.sqrt(max_psi) / (L2 * q_diam * math.sqrt(T))
    plan.log(f"eta = sqrt(max Psi)/(L2 ||Q||_2 sqrt(T)) = {eta:.6g} "
             f"(max Psi = {max_psi:.6g})")
    return ResolvedRun(T=T, plan=plan, eta=lambda t: eta)


def _calibrate_strongly_convex_md(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    eps, delta, n = cfg.budget.epsilon, cfg.budget.delta, data.n
    L2 = cfg.loss.lipschitz_constants(cfg.body, data)[1]
    delta_sc = cfg.loss.strong_convexity
    plan = NoisePlan(mechanism="gaussian_per_step", steps=0)
    plan.log(f"L2 = {L2:.6g}, Delta = {delta_sc}, n = {n}, eps = {eps}, delta = {delta}")
    c_diam = cfg.body.l2_diameter()
    T = _steps(cfg, plan, ("(||C||_2 n eps)^2", "G_C^2"),
               lambda g_c: ((c_diam * n * eps) ** 2, g_c ** 2), ("G_C", cfg.body))
    plan.sigma = md_sigma(L2, T, cfg.budget, n)
    plan.log(f"sigma = sqrt(32 L2^2 T) ln(T/delta)/(eps n) = {plan.sigma:.6g}")
    plan.log(f"eta_t = 2/(Delta t) with Delta = {delta_sc}")
    return ResolvedRun(T=T, plan=plan, eta=sc_step_schedule(delta_sc))


def sc_step_schedule(delta_sc: float) -> Callable[[int], float]:
    """The strongly convex schedule eta_t = 2/(Delta t)."""
    return lambda t: 2.0 / (delta_sc * t)


def _calibrate_obj_pert(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    eps, delta, n = cfg.budget.epsilon, cfg.budget.delta, data.n
    L2 = cfg.loss.lipschitz_constants(cfg.body, data)[1]
    lam_min, lam_max = cfg.loss.hessian_eig_bounds(data)
    sigma, zeta = objpert_plan(L2, lam_max, lam_min, cfg.budget, n)
    plan = NoisePlan(mechanism="objective_perturbation", steps=1, sigma=sigma, zeta=zeta)
    plan.log(f"L2 = {L2:.6g}, lambda in [{lam_min:.6g}, {lam_max:.6g}], "
             f"n = {n}, eps = {eps}, delta = {delta}")
    plan.log(f"sigma = L2 sqrt(2 ln(1/delta))/(n eps) = {sigma:.6g}")
    plan.log(f"zeta = max(2 lambda_max/(n eps) - lambda_min, 0) = {zeta:.6g}")
    return ResolvedRun(T=1, plan=plan)


def _calibrate_fw_polytope(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    eps, delta, n = cfg.budget.epsilon, cfg.budget.delta, data.n
    L1 = cfg.loss.lipschitz_constants(cfg.body, data)[0]
    gamma = cfg.loss.curvature_bound(cfg.body, data)
    c_l1 = cfg.body.max_norm(1)
    plan = NoisePlan(mechanism="laplace_per_score", steps=0)
    plan.log(f"L1 = {L1:.6g}, ||C||_1 = {c_l1:.6g}, Gamma = {gamma:.6g}, "
             f"n = {n}, eps = {eps}, delta = {delta}")
    T = _steps(cfg, plan, ("Gamma^(2/3) (n eps)^(2/3)", "(L1 ||C||_1)^(2/3)"),
               lambda _: (gamma ** (2 / 3) * (n * eps) ** (2 / 3), (L1 * c_l1) ** (2 / 3)))
    plan.laplace_scale = fw_laplace_scale(L1, c_l1, T, cfg.budget, n)
    plan.log(f"laplace scale = L1 ||C||_1 sqrt(8 T ln(1/delta))/(n eps) = "
             f"{plan.laplace_scale:.6g}")
    plan.log("scores use the 1/n-normalized gradient, paired with the "
             "per-record sensitivity scale above")
    return ResolvedRun(T=T, plan=plan, mu=_fw_mu(T, plan))


def _calibrate_fw_general(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    eps, delta, n = cfg.budget.epsilon, cfg.budget.delta, data.n
    L2 = cfg.loss.lipschitz_constants(cfg.body, data)[1]
    gamma = cfg.loss.curvature_bound(cfg.body, data)
    plan = NoisePlan(mechanism="gaussian_per_step", steps=0)
    plan.log(f"L2 = {L2:.6g}, Gamma = {gamma:.6g}, n = {n}, eps = {eps}, delta = {delta}")
    T = _steps(cfg, plan, ("Gamma^(2/3) (n eps)^(2/3)", "(L2 G_C)^(2/3)"),
               lambda g_c: (gamma ** (2 / 3) * (n * eps) ** (2 / 3), (L2 * g_c) ** (2 / 3)),
               ("G_C", cfg.body))
    plan.sigma = fw_gaussian_sigma(L2, T, cfg.budget, n)
    plan.log(f"sigma = sqrt(32 L2 T) ln(n/delta)/(n eps) = {plan.sigma:.6g} "
             "(source display is linear in L2 and logs n/delta, unlike the "
             "mirror-descent scale; implemented verbatim)")
    return ResolvedRun(T=T, plan=plan, mu=_fw_mu(T, plan))


# ---------------------------------------------------------------------------
# Loops: each is a generator that yields the iterates it visits, arrays that
# no later step writes into, and returns (theta_priv, iterations, extras).
# Each binds the loss gradient to the data once (``LossSpec.bound_grad``),
# so a step pays for the gradient's arithmetic only, not for the data checks
# and the statistics lookups.


def _noise_rows(draw: Callable[[tuple], np.ndarray], steps: int, width: int):
    """``steps`` noise rows of ``width`` entries, drawn by ``draw(shape)`` in
    blocks of at most ``NOISE_BLOCK_BYTES``."""
    rows = max(1, NOISE_BLOCK_BYTES // (8 * width))
    for start in range(0, steps, rows):
        yield from draw((min(rows, steps - start), width))


def _gaussian_rows(cfg: SolverConfig, run: ResolvedRun, rng):
    # One N(0, sigma^2 I_p) row per step.
    return _noise_rows(lambda shape: sample_gaussian_vec(shape, run.plan.sigma, rng),
                       run.T - 1, cfg.body.dimension)


def _mirror_descent(cfg: SolverConfig, data: Dataset, run: ResolvedRun, rng):
    # The T-th step of the source loop cannot affect the averaged output and
    # is skipped.
    pot = cfg.potential
    it_body, point_of, pullback = cfg.body.iterate_space()
    grad = cfg.loss.bound_grad(data)
    x = it_body.canonical_point()
    acc = x.copy()
    for t, z in zip(range(1, run.T), _gaussian_rows(cfg, run, rng)):
        theta_t = point_of(x)
        yield theta_t
        g = grad(theta_t) + z
        x = pot.mirror_step(it_body, x, pullback(g), run.eta(t + 1))
        acc += x
    yield point_of(x)
    return point_of(acc / run.T), run.T, {}


def _objective_perturbation(cfg: SolverConfig, data: Dataset, run: ResolvedRun, rng):
    # The inner minimization runs to an absolute Frank-Wolfe gap of
    # OBJPERT_INNER_TOL; when it cannot certify, the best-gap iterate is
    # returned with inner_converged = False and a warning naming the gap.
    b = sample_gaussian_vec(cfg.body.dimension, run.plan.sigma, rng)
    theta0, zeta = cfg.body.canonical_point(), run.plan.zeta
    grad = cfg.loss.bound_grad(data)

    def fgrad(theta):
        return grad(theta) + zeta * (theta - theta0) + b

    try:
        sol = minimize(cfg.body, fgrad, OBJPERT_INNER_TOL)
        theta, gap, iters, converged = sol.x, sol.gap, sol.iterations, True
    except NotCertifiedError as exc:
        theta, gap, iters, converged = exc.x, exc.gap, exc.iterations, False
        warnings.warn(
            f"objective-perturbation inner solve stopped at gap {gap:.3e} "
            f"after {iters} iterations; returning the best iterate",
            stacklevel=4,  # past this loop, ``_drain`` and ``run_solver``
        )
    yield theta
    return theta, iters, {"inner_converged": converged, "inner_gap": gap}


def _frank_wolfe(cfg: SolverConfig, data: Dataset, run: ResolvedRun, rng):
    # theta_T after exactly T-1 steps toward a private target.  For
    # fw_polytope the output is a convex combination of the start point and
    # at most T-1 selected vertices; that ledger is replayed from the picks.
    mu = run.mu
    if cfg.algorithm == "fw_polytope":
        V = cfg.body.vertices()
        noise = _noise_rows(lambda shape: sample_laplace(run.plan.laplace_scale, rng, size=shape),
                            run.T - 1, V.shape[0])
        picks: list[int] = []
        scores = cfg.body.vertex_scores
        moves = mu * V  # row i: the step mu * v_i toward vertex i

        def move(g, z):
            idx = report_noisy_min(scores(g), z)
            picks.append(idx)
            return moves[idx]
    else:
        noise = _gaussian_rows(cfg, run, rng)
        lmo = cfg.body.lmo

        def move(g, z):
            return mu * lmo(g + z)

    grad = cfg.loss.bound_grad(data)
    keep = 1.0 - mu
    theta = cfg.body.canonical_point()
    yield theta
    for z in noise:
        theta = keep * theta + move(grad(theta), z)
        yield theta
    if cfg.algorithm != "fw_polytope":
        return theta, run.T, {}

    # Slot k of the ledger is the start point; the keys are the start, then
    # the vertices in the order they were first picked.
    k = V.shape[0]
    w = np.zeros(k + 1)
    w[k] = 1.0
    for idx in picks:
        w *= keep
        w[idx] += mu
    weights = w.tolist()
    ledger = {"start": weights[k], **{str(i): weights[i] for i in dict.fromkeys(picks)}}
    return theta, run.T, {
        "vertex_weights": ledger,
        "support_size": sum(1 for v in ledger.values() if v > 0),
    }


# Each algorithm's calibration and loop.
_TABLE = {
    "noisy_md": (_calibrate_noisy_md, _mirror_descent),
    "strongly_convex_md": (_calibrate_strongly_convex_md, _mirror_descent),
    "obj_pert": (_calibrate_obj_pert, _objective_perturbation),
    "fw_polytope": (_calibrate_fw_polytope, _frank_wolfe),
    "fw_general": (_calibrate_fw_general, _frank_wolfe),
}
ALGORITHMS = tuple(_TABLE)


def _drain(loop) -> tuple:
    """Run a loop to its end; return what it returns."""
    while True:
        try:
            next(loop)
        except StopIteration as stop:
            return stop.value


def run_solver(cfg: SolverConfig, data: Dataset) -> SolverReport:
    """Run the configured algorithm's loop to its end and report its output.

    A body/data dimension mismatch raises ``ValueError`` before any work
    starts (``resolve_defaults`` checks it first).
    """
    run = resolve_defaults(cfg, data)
    rng = spawn_rng(cfg.seed, _STREAM_NOISE)
    start = time.perf_counter()
    theta, iterations, extras = _drain(_TABLE[cfg.algorithm][1](cfg, data, run, rng))
    return SolverReport(
        algorithm=cfg.algorithm,
        theta_priv=theta,
        iterations=iterations,
        noise_plan=run.plan,
        seed=cfg.seed,
        wall_time_s=time.perf_counter() - start,
        feasible=cfg.body.contains(theta),
        extras=extras,
    )
