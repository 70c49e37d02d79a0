"""Private solvers: noisy mirror descent, objective perturbation, Frank-Wolfe.

``run_solver`` is the one entry point.  It resolves the step count, step
sizes and noise scales (``resolve_defaults``), then runs the loop of the
algorithm's family:

- mirror descent (``noisy_md``, ``strongly_convex_md``): T-1 prox steps on
  Gaussian-noised gradients, returning the average of the first T iterates;
- objective perturbation (``obj_pert``): one certified minimization of
  L + (zeta/2)||theta - theta0||^2 + <b, theta> with Gaussian b;
- Frank-Wolfe (``fw_polytope``, ``fw_general``): T-1 steps toward a private
  target, the vertex with the report-noisy-min score for ``fw_polytope``
  and the LMO of the Gaussian-noised gradient for ``fw_general``.

Every run is deterministic given (config, data, seed): noise injection
is the only stochastic element, and the zero-scale samplers leave the
generator untouched, so a non-private run reproduces its classical
counterpart's iterate sequence bit for bit.

Step-size defaults follow the source algorithms.  ``noisy_md`` takes a
constant positive ``step_size``, or ``step_rule="theorem"`` for the theorem
statement's step; the Frank-Wolfe loops take ``step_rule="decaying"`` for
the classical schedule 2/(t+2).  A setting the algorithm would not read
is rejected.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .firstorder import NotCertifiedError, minimize
from .geometry import (ConvexBody, body_from_dict, check_keys, doc_field, gaussian_width_mc,
                       memo_by_body, symmetric_hull)
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

ALGORITHMS = ("noisy_md", "strongly_convex_md", "obj_pert", "fw_polytope", "fw_general")

# The algorithms that read each ``step_rule`` value.
STEP_RULES = {
    "paper": ALGORITHMS,
    "theorem": ("noisy_md",),
    "decaying": ("fw_polytope", "fw_general"),
}

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
    formula (floored at 1, capped at ``t_cap``).
    """

    algorithm: str
    body: ConvexBody
    loss: LossSpec
    budget: PrivacyBudget
    potential: Optional[Potential] = None
    T: int = 0
    step_rule: str = "paper"
    step_size: Optional[float] = None
    seed: int = 0
    t_cap: int = 10 ** 6
    record_iterates: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.T < 0:
            raise ValueError("T must be >= 0 (0 = use the default formula)")
        if self.algorithm in ("noisy_md", "strongly_convex_md") and self.potential is None:
            raise ValueError(f"{self.algorithm} requires a potential")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"unknown step_rule {self.step_rule!r}; "
                             f"expected one of {sorted(STEP_RULES)}")
        if self.algorithm not in STEP_RULES[self.step_rule]:
            raise ValueError(f"step_rule {self.step_rule!r} applies only to "
                             f"{', '.join(STEP_RULES[self.step_rule])}, not {self.algorithm}")
        if self.step_size is not None:
            if self.algorithm != "noisy_md":
                raise ValueError(f"step_size applies only to noisy_md, not {self.algorithm}")
            if not (isinstance(self.step_size, numbers.Real) and 0.0 < self.step_size < math.inf):
                raise ValueError(f"step_size must be a positive finite number, "
                                 f"got {self.step_size!r}")
        if self.algorithm == "fw_polytope":
            try:
                n_vertices = self.body.vertices().shape[0]
            except ValueError as exc:
                raise ValueError(
                    "fw_polytope requires a vertex-enumerable body "
                    "(polytope, l1 ball, or simplex)"
                ) from exc
            if n_vertices > 10 ** 6:
                raise ValueError("vertex count above 10^6 makes score enumeration infeasible")

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
            T=_doc_int(doc, "T", 0),
            step_rule=doc.get("step_rule", "paper"),
            step_size=doc.get("step_size"),
            seed=_doc_int(doc, "seed", 0),
            t_cap=_doc_int(doc, "t_cap", 10 ** 6),
        )


def _doc_int(doc: dict, key: str, default: int) -> int:
    """An integer field of a config document; any other value, a float or a
    bool among them, raises ``ValueError`` instead of being truncated."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"solver config {key!r} must be an integer, got {value!r}")
    return int(value)


# The keys of a config document: the fields ``from_dict`` reads, the sweep's
# solver ``id`` and the ``lasso_profile`` that ``dperm solve`` reads.
_DOC_KEYS = frozenset({f.name for f in fields(SolverConfig) if f.name != "record_iterates"}
                      | {"id", "lasso_profile"})


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
        out.update({k: v for k, v in self.extras.items() if _jsonable(v)})
        return out


def _jsonable(v) -> bool:
    return isinstance(v, (int, float, str, bool, list, dict, type(None)))


# ---------------------------------------------------------------------------
# Default resolution


def _q_body_for(cfg: SolverConfig) -> ConvexBody:
    if cfg.potential is not None:
        # The potential knows the symmetric body its strong convexity is
        # stated against; the blanket symmetric hull would mispair e.g. a
        # squared-l2 potential on an l1 ball.
        return cfg.potential.natural_q(cfg.body)
    return symmetric_hull(cfg.body)


def _width_of(body: ConvexBody, plan: NoisePlan, label: str) -> float:
    est = memo_by_body(body, "gaussian_width",
                       lambda: gaussian_width_mc(body, WIDTH_SAMPLES, WIDTH_SEED))
    plan.log(f"{label} = {est.mean:.6g} (Monte Carlo, {est.samples} samples, "
             f"seed {est.seed}, se {est.std_error:.2g})")
    return est.mean


def seed_from(master_seed: int, stream: int) -> int:
    # Deterministic sub-seed for components that take an integer seed.
    return int(np.random.SeedSequence(entropy=master_seed,
                                      spawn_key=(stream,)).generate_state(1)[0])


@dataclass
class ResolvedRun:
    T: int
    plan: NoisePlan
    eta: Optional[Callable[[int], float]] = None  # MD step for index t (1-based)
    mu: Optional[Callable[[int], float]] = None   # FW mixing weight at step t
    zeta: float = 0.0
    theta0: Optional[np.ndarray] = None


def resolve_defaults(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    """Fill T, step sizes and noise scales; record every substitution."""
    require_matching_dimension(cfg.body, data)
    eps, delta, n = cfg.budget.epsilon, cfg.budget.delta, data.n
    L1, L2 = cfg.loss.lipschitz_constants(cfg.body, data)
    alg = cfg.algorithm
    private = math.isfinite(eps)

    if alg == "obj_pert":
        lam_min, lam_max = cfg.loss.hessian_eig_bounds(cfg.body, data)
        sigma, zeta = objpert_plan(L2, lam_max, lam_min, cfg.budget, n)
        plan = NoisePlan(mechanism="objective_perturbation", steps=1,
                         sigma=sigma, zeta=zeta)
        plan.log(f"L2 = {L2:.6g}, lambda in [{lam_min:.6g}, {lam_max:.6g}], "
                 f"n = {n}, eps = {eps}, delta = {delta}")
        plan.log(f"sigma = L2 sqrt(2 ln(1/delta))/(n eps) = {sigma:.6g}")
        plan.log(f"zeta = max(2 lambda_max/(n eps) - lambda_min, 0) = {zeta:.6g}")
        return ResolvedRun(T=1, plan=plan, zeta=zeta, theta0=cfg.body.canonical_point())

    plan = NoisePlan(mechanism="laplace_per_score" if alg == "fw_polytope"
                     else "gaussian_per_step", steps=0)

    def steps(text: str, raw: Callable[[], float]) -> int:
        # The user's T verbatim; else the formula ``text``, evaluated (width
        # included) by ``raw``, floored at 1 and capped at t_cap.
        if cfg.T > 0:
            plan.log(f"T = {cfg.T} (user-supplied)")
            return cfg.T
        value = raw()
        plan.log(f"T formula: {text} = {value:.6g}")
        if math.isinf(value):
            plan.log(f"T formula diverges in non-private mode; capped at {cfg.t_cap}")
            return cfg.t_cap
        if value < 1.0:
            raise ValueError(
                f"{alg}: default step count resolves to {value:.3g} < 1; "
                "increase n or epsilon, or supply T explicitly"
            )
        T = min(int(value), cfg.t_cap)
        if T < value:
            plan.log(f"T = min(floor({value:.6g}), cap {cfg.t_cap}) = {T}")
        return T

    if alg == "noisy_md":
        plan.log(f"L2 = {L2:.6g}, n = {n}, eps = {eps}, delta = {delta}")
        q_body = _q_body_for(cfg)
        q_diam = q_body.l2_diameter()

        def raw() -> float:
            g_q = _width_of(q_body, plan, "G_Q")
            return (q_diam ** 2 * eps ** 2 * n ** 2) / (L2 ** 2 * math.log(n / delta) ** 2 * g_q ** 2) \
                if L2 > 0 and private else math.inf

        T = steps("||Q||_2^2 eps^2 n^2 / (L2^2 ln^2(n/delta) G_Q^2)", raw)
    elif alg == "strongly_convex_md":
        delta_sc = cfg.loss.strong_convexity
        if not delta_sc or delta_sc <= 0:
            raise ValueError("strongly_convex_md requires a loss with strong_convexity > 0")
        plan.log(f"L2 = {L2:.6g}, Delta = {delta_sc}, n = {n}, eps = {eps}, delta = {delta}")

        def raw() -> float:
            g_c = _width_of(cfg.body, plan, "G_C")
            return (cfg.body.l2_diameter() * n * eps) ** 2 / g_c ** 2 if private else math.inf

        T = steps("(||C||_2 n eps)^2 / G_C^2", raw)
    elif alg == "fw_polytope":
        gamma = cfg.loss.curvature_bound(cfg.body, data)
        c_l1 = cfg.body.l1_radius()
        plan.log(f"L1 = {L1:.6g}, ||C||_1 = {c_l1:.6g}, Gamma = {gamma:.6g}, "
                 f"n = {n}, eps = {eps}, delta = {delta}")
        T = steps("Gamma^(2/3) (n eps)^(2/3) / (L1 ||C||_1)^(2/3)",
                  lambda: (gamma ** (2 / 3) * (n * eps) ** (2 / 3) / (L1 * c_l1) ** (2 / 3))
                  if L1 * c_l1 > 0 and private else math.inf)
    else:
        gamma = cfg.loss.curvature_bound(cfg.body, data)
        plan.log(f"L2 = {L2:.6g}, Gamma = {gamma:.6g}, n = {n}, eps = {eps}, delta = {delta}")

        def raw() -> float:
            g_c = _width_of(cfg.body, plan, "G_C")
            return (gamma ** (2 / 3) * (n * eps) ** (2 / 3) / (L2 * g_c) ** (2 / 3)) \
                if L2 * g_c > 0 and private else math.inf

        T = steps("Gamma^(2/3) (n eps)^(2/3) / (L2 G_C)^(2/3)", raw)
    plan.steps = T

    if alg == "fw_polytope":
        scale = fw_laplace_scale(L1, c_l1, T, cfg.budget, n)
        plan.laplace_scale = scale
        plan.log(f"laplace scale = L1 ||C||_1 sqrt(8 T ln(1/delta))/(n eps) = {scale:.6g}")
        plan.log("scores use the 1/n-normalized gradient, paired with the "
                 "per-record sensitivity scale above")
        return ResolvedRun(T=T, plan=plan, mu=_fw_mu(cfg, T, plan))
    if alg == "fw_general":
        sigma = fw_gaussian_sigma(L2, T, cfg.budget, n)
        plan.sigma = sigma
        plan.log(f"sigma = sqrt(32 L2 T) ln(n/delta)/(n eps) = {sigma:.6g} "
                 "(source display is linear in L2 and logs n/delta, unlike the "
                 "mirror-descent scale; implemented verbatim)")
        return ResolvedRun(T=T, plan=plan, mu=_fw_mu(cfg, T, plan))

    sigma = md_sigma(L2, T, cfg.budget, n)
    plan.sigma = sigma
    plan.log(f"sigma = sqrt(32 L2^2 T) ln(T/delta)/(eps n) = {sigma:.6g}")
    if alg == "noisy_md":
        return ResolvedRun(T=T, plan=plan, eta=_md_eta(cfg, L2, q_diam, T, plan))
    plan.log(f"eta_t = 2/(Delta t) with Delta = {delta_sc}")
    return ResolvedRun(T=T, plan=plan, eta=sc_step_schedule(delta_sc))


def _md_eta(cfg: SolverConfig, L2: float, q_diam: float, T: int,
            plan: NoisePlan) -> Callable[[int], float]:
    if cfg.step_size is not None:
        eta = float(cfg.step_size)
        plan.log(f"eta = {eta} (user-supplied constant)")
        return lambda t: eta
    if L2 <= 0 or q_diam <= 0:
        raise ValueError("cannot derive a default step size with L2 = 0; supply step_size")
    if cfg.step_rule == "theorem":
        eta = 1.0 / (L2 * q_diam * math.sqrt(T))
        plan.log(f"eta = 1/(L2 ||Q||_2 sqrt(T)) = {eta:.6g} (theorem-statement rule)")
    else:
        max_psi = cfg.potential.max_over_domain(cfg.body)
        eta = math.sqrt(max_psi) / (L2 * q_diam * math.sqrt(T))
        plan.log(f"eta = sqrt(max Psi)/(L2 ||Q||_2 sqrt(T)) = {eta:.6g} "
                 f"(proof rule, max Psi = {max_psi:.6g})")
    return lambda t: eta


def _fw_mu(cfg: SolverConfig, T: int, plan: NoisePlan) -> Callable[[int], float]:
    if cfg.step_rule == "decaying":
        plan.log("mu_t = 2/(t+2) (classical decaying schedule)")
        return lambda t: 2.0 / (t + 2.0)
    mu = 1.0 / (T + 2.0)
    plan.log(f"mu = 1/(T+2) = {mu:.6g}")
    return lambda t: mu


def sc_step_schedule(delta_sc: float) -> Callable[[int], float]:
    """The strongly convex schedule eta_t = 2/(Delta t)."""
    if delta_sc <= 0:
        raise ValueError("Delta must be positive")
    return lambda t: 2.0 / (delta_sc * t)


# ---------------------------------------------------------------------------
# Loops: each returns (theta_priv, iterations, extras) and appends its
# iterates to ``trace`` when that is a list.


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


def _mirror_descent(cfg: SolverConfig, data: Dataset, run: ResolvedRun, rng, trace):
    # The T-th step of the source loop cannot affect the averaged output and
    # is skipped.
    pot = cfg.potential
    it_body = pot.iterate_body(cfg.body)
    x = it_body.canonical_point()
    acc = x.copy()
    if trace is not None:
        trace.append(pot.to_point(x))
    for t, z in zip(range(1, run.T), _gaussian_rows(cfg, run, rng)):
        theta_t = pot.to_point(x)
        g = cfg.loss.grad(theta_t, data) + z
        x = pot.mirror_step(it_body, x, pot.pull_back(g), run.eta(t + 1))
        acc += x
        if trace is not None:
            trace.append(pot.to_point(x))
    return pot.to_point(acc / run.T), run.T, {}


def _objective_perturbation(cfg: SolverConfig, data: Dataset, run: ResolvedRun, rng, trace):
    # The inner minimization runs to an absolute Frank-Wolfe gap of
    # OBJPERT_INNER_TOL; when it cannot certify, the best-gap iterate is
    # returned with inner_converged = False and a warning naming the gap.
    b = sample_gaussian_vec(cfg.body.dimension, run.plan.sigma, rng)
    theta0, zeta = run.theta0, run.zeta

    def fgrad(theta):
        return cfg.loss.grad(theta, data) + zeta * (theta - theta0) + b

    try:
        sol = minimize(cfg.body, fgrad, OBJPERT_INNER_TOL)
        theta, gap, iters, converged = sol.x, sol.gap, sol.iterations, True
    except NotCertifiedError as exc:
        theta, gap, iters, converged = exc.x, exc.gap, exc.iterations, False
        warnings.warn(
            f"objective-perturbation inner solve stopped at gap {gap:.3e} "
            f"after {iters} iterations; returning the best iterate",
            stacklevel=3,
        )
    return theta, iters, {"inner_converged": converged, "inner_gap": gap}


def _frank_wolfe(cfg: SolverConfig, data: Dataset, run: ResolvedRun, rng, trace):
    # theta_T after exactly T-1 steps toward a private target.  For
    # fw_polytope the output is a convex combination of the start point and
    # at most T-1 selected vertices; that ledger is replayed from the picks.
    if cfg.algorithm == "fw_polytope":
        V = cfg.body.vertices()
        noise = _noise_rows(lambda shape: sample_laplace(run.plan.laplace_scale, rng, size=shape),
                            run.T - 1, V.shape[0])
        picks: list[int] = []

        def target(g, z):
            idx = report_noisy_min(V @ g, z)
            picks.append(idx)
            return V[idx]
    else:
        noise = _gaussian_rows(cfg, run, rng)

        def target(g, z):
            return cfg.body.lmo(g + z)

    theta = cfg.body.canonical_point()
    if trace is not None:
        trace.append(theta.copy())
    for t, z in zip(range(1, run.T), noise):
        s = target(cfg.loss.grad(theta, data), z)
        mu = run.mu(t)
        theta = (1.0 - mu) * theta + mu * s
        if trace is not None:
            trace.append(theta.copy())
    if cfg.algorithm != "fw_polytope":
        return theta, run.T, {}

    # Slot k of the ledger is the start point; the keys are the start, then
    # the vertices in the order they were first picked.
    k = V.shape[0]
    w = np.zeros(k + 1)
    w[k] = 1.0
    for t, idx in enumerate(picks, start=1):
        mu = run.mu(t)
        w *= 1.0 - mu
        w[idx] += mu
    weights = w.tolist()
    ledger = {"start": weights[k], **{str(i): weights[i] for i in dict.fromkeys(picks)}}
    return theta, run.T, {
        "vertex_weights": ledger,
        "support_size": sum(1 for v in ledger.values() if v > 0),
    }


_LOOPS = {
    "noisy_md": _mirror_descent,
    "strongly_convex_md": _mirror_descent,
    "obj_pert": _objective_perturbation,
    "fw_polytope": _frank_wolfe,
    "fw_general": _frank_wolfe,
}


def run_solver(cfg: SolverConfig, data: Dataset) -> SolverReport:
    """Run the configured algorithm.

    A body/data dimension mismatch, or a Huber loss under objective
    perturbation, raises ``ValueError`` before any work starts.  With
    ``record_iterates`` the step loops keep their T iterates in
    ``extras["iterates"]``.
    """
    require_matching_dimension(cfg.body, data)
    if cfg.algorithm == "obj_pert" and isinstance(cfg.loss, Huber):
        raise ValueError("objective perturbation needs a twice continuously "
                         "differentiable loss; the Huber loss is not C^2")
    run = resolve_defaults(cfg, data)
    rng = spawn_rng(cfg.seed, _STREAM_NOISE)
    trace = [] if cfg.record_iterates else None
    start = time.perf_counter()
    theta, iterations, extras = _LOOPS[cfg.algorithm](cfg, data, run, rng, trace)
    report = SolverReport(
        algorithm=cfg.algorithm,
        theta_priv=theta,
        iterations=iterations,
        noise_plan=run.plan,
        seed=cfg.seed,
        wall_time_s=time.perf_counter() - start,
        feasible=cfg.body.contains(theta),
        extras=extras,
    )
    if trace:
        report.extras["iterates"] = trace
    return report
