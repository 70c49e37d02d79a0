"""Private solvers: noisy mirror descent, objective perturbation, Frank-Wolfe.

Every solver is deterministic given (config, data, seed): noise injection
is the only stochastic element, and the zero-scale samplers leave the
generator untouched, so a non-private run reproduces its classical
counterpart's iterate sequence bit for bit.

Step-size defaults follow the source algorithms; ``step_rule`` /
``schedule`` / ``step_size`` in the config override them (the classical
decaying Frank-Wolfe schedule 2/(t+2) is available as ``step_rule="decaying"``).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import ConvexBody, Polytope, body_from_dict, gaussian_width_mc, symmetric_hull
from .losses import Dataset, LossSpec, loss_from_dict, require_matching_dimension
from .potentials import Potential, SquaredL2, potential_from_dict
from .privacy import (
    NoisePlan,
    PrivacyBudget,
    fw_gaussian_sigma,
    fw_laplace_scale,
    md_sigma,
    objpert_plan,
    report_noisy_min,
    sample_gaussian_vec,
    spawn_rng,
)

ALGORITHMS = ("noisy_md", "strongly_convex_md", "obj_pert", "fw_polytope", "fw_general")

# Stream ids for the documented rng split.
_STREAM_NOISE = 0
_STREAM_WIDTH = 1

OBJPERT_INNER_TOL = 1e-8
OBJPERT_INNER_CAP = 100_000


@dataclass
class SolverConfig:
    """Everything a solver run needs besides the dataset.

    ``T = 0`` resolves the step count from the algorithm's own default
    formula (floored at 1, capped at ``t_cap``).  ``gaussian_width``
    short-circuits the Monte-Carlo width estimate with an analytic value.
    """

    algorithm: str
    body: ConvexBody
    loss: LossSpec
    budget: PrivacyBudget
    potential: Optional[Potential] = None
    q_body: Optional[ConvexBody] = None
    T: int = 0
    step_rule: str = "paper"
    step_size: Optional[float] = None
    schedule: Optional[Callable[[int], float]] = None
    seed: int = 0
    t_cap: int = 10 ** 6
    gaussian_width: Optional[float] = None
    width_samples: int = 20_000
    record_iterates: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.T < 0:
            raise ValueError("T must be >= 0 (0 = use the default formula)")
        if self.algorithm in ("noisy_md", "strongly_convex_md") and self.potential is None:
            raise ValueError(f"{self.algorithm} requires a potential")
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
        body = body_from_dict(doc["body"])
        loss = loss_from_dict(doc["loss"])
        potential = None
        if doc.get("potential") is not None:
            potential = potential_from_dict(doc["potential"], body)
        q_body = body_from_dict(doc["q_body"]) if doc.get("q_body") else None
        return cls(
            algorithm=doc["algorithm"],
            body=body,
            loss=loss,
            budget=PrivacyBudget.from_dict(doc.get("budget", {})),
            potential=potential,
            q_body=q_body,
            T=int(doc.get("T", 0)),
            step_rule=doc.get("step_rule", "paper"),
            step_size=doc.get("step_size"),
            seed=int(doc.get("seed", 0)),
            t_cap=int(doc.get("t_cap", 10 ** 6)),
            gaussian_width=doc.get("gaussian_width"),
            width_samples=int(doc.get("width_samples", 20_000)),
        )


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


def _clamp_steps(raw: float, cap: int, plan: NoisePlan, context: str) -> int:
    if math.isinf(raw):
        plan.log(f"T formula diverges in non-private mode; capped at {cap}")
        return cap
    if raw < 1.0:
        raise ValueError(
            f"{context}: default step count resolves to {raw:.3g} < 1; "
            "increase n or epsilon, or supply T explicitly"
        )
    T = min(int(raw), cap)
    if T < raw:
        plan.log(f"T = min(floor({raw:.6g}), cap {cap}) = {T}")
    return T


def _q_body_for(cfg: SolverConfig) -> ConvexBody:
    if cfg.q_body is not None:
        return cfg.q_body
    if cfg.potential is not None:
        # The potential knows the symmetric body its strong convexity is
        # stated against; the blanket symmetric hull would mispair e.g. a
        # squared-l2 potential on an l1 ball.
        return cfg.potential.natural_q(cfg.body)
    return symmetric_hull(cfg.body)


def _width_of(cfg: SolverConfig, body: ConvexBody, plan: NoisePlan, label: str) -> float:
    if cfg.gaussian_width is not None:
        plan.log(f"{label} = {cfg.gaussian_width} (user-supplied)")
        return float(cfg.gaussian_width)
    est = gaussian_width_mc(body, cfg.width_samples, seed_from(cfg.seed, _STREAM_WIDTH))
    plan.log(f"{label} = {est.mean:.6g} (Monte Carlo, {est.samples} samples, "
             f"se {est.std_error:.2g})")
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
    L1: float = 0.0
    L2: float = 0.0
    curvature: float = 0.0
    zeta: float = 0.0
    theta0: Optional[np.ndarray] = None


def resolve_defaults(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    """Fill T, step schedules and noise scales; record every substitution."""
    require_matching_dimension(cfg.body, data)
    eps, delta, n = cfg.budget.epsilon, cfg.budget.delta, data.n
    L1, L2 = cfg.loss.lipschitz_constants(cfg.body, data)
    alg = cfg.algorithm

    if alg == "noisy_md":
        plan = NoisePlan(mechanism="gaussian_per_step", steps=0)
        plan.log(f"L2 = {L2:.6g}, n = {n}, eps = {eps}, delta = {delta}")
        q_body = _q_body_for(cfg)
        q_diam = q_body.l2_diameter()
        if cfg.T > 0:
            T = cfg.T
            plan.log(f"T = {T} (user-supplied)")
        else:
            g_q = _width_of(cfg, q_body, plan, "G_Q")
            raw = (q_diam ** 2 * eps ** 2 * n ** 2) / (L2 ** 2 * math.log(n / delta) ** 2 * g_q ** 2) \
                if L2 > 0 and math.isfinite(eps) else math.inf
            plan.log("T formula: ||Q||_2^2 eps^2 n^2 / (L2^2 ln^2(n/delta) G_Q^2) "
                     f"= {raw:.6g}")
            T = _clamp_steps(raw, cfg.t_cap, plan, "noisy_md")
        sigma = md_sigma(L2, T, cfg.budget, n)
        plan.steps = T
        plan.sigma = sigma
        plan.log(f"sigma = sqrt(32 L2^2 T) ln(T/delta)/(eps n) = {sigma:.6g}")
        eta = _md_eta(cfg, L2, q_diam, T, plan)
        return ResolvedRun(T=T, plan=plan, eta=eta, L1=L1, L2=L2)

    if alg == "strongly_convex_md":
        delta_sc = cfg.loss.strong_convexity
        if not delta_sc or delta_sc <= 0:
            raise ValueError("strongly_convex_md requires a loss with strong_convexity > 0")
        plan = NoisePlan(mechanism="gaussian_per_step", steps=0)
        plan.log(f"L2 = {L2:.6g}, Delta = {delta_sc}, n = {n}, eps = {eps}, delta = {delta}")
        if cfg.T > 0:
            T = cfg.T
            plan.log(f"T = {T} (user-supplied)")
        else:
            g_c = _width_of(cfg, cfg.body, plan, "G_C")
            raw = (cfg.body.l2_diameter() * n * eps) ** 2 / g_c ** 2 \
                if math.isfinite(eps) else math.inf
            plan.log(f"T formula: (||C||_2 n eps)^2 / G_C^2 = {raw:.6g}")
            T = _clamp_steps(raw, cfg.t_cap, plan, "strongly_convex_md")
        sigma = md_sigma(L2, T, cfg.budget, n)
        plan.steps = T
        plan.sigma = sigma
        plan.log(f"sigma = sqrt(32 L2^2 T) ln(T/delta)/(eps n) = {sigma:.6g}")
        if cfg.schedule is not None:
            eta = cfg.schedule
            plan.log("eta: user-supplied schedule")
        else:
            eta = sc_step_schedule(delta_sc)
            plan.log(f"eta_t = 2/(Delta t) with Delta = {delta_sc}")
        return ResolvedRun(T=T, plan=plan, eta=eta, L1=L1, L2=L2)

    if alg == "obj_pert":
        lam_min, lam_max = cfg.loss.hessian_eig_bounds(cfg.body, data)
        sigma, zeta = objpert_plan(L2, lam_max, lam_min, cfg.budget, n)
        plan = NoisePlan(mechanism="objective_perturbation", steps=1,
                         sigma=sigma, zeta=zeta)
        plan.log(f"L2 = {L2:.6g}, lambda in [{lam_min:.6g}, {lam_max:.6g}], "
                 f"n = {n}, eps = {eps}, delta = {delta}")
        plan.log(f"sigma = L2 sqrt(2 ln(1/delta))/(n eps) = {sigma:.6g}")
        plan.log(f"zeta = max(2 lambda_max/(n eps) - lambda_min, 0) = {zeta:.6g}")
        theta0 = cfg.body.canonical_point()
        return ResolvedRun(T=1, plan=plan, L1=L1, L2=L2, zeta=zeta, theta0=theta0)

    if alg == "fw_polytope":
        gamma = cfg.loss.curvature_bound(cfg.body, data)
        c_l1 = cfg.body.l1_radius()
        plan = NoisePlan(mechanism="laplace_per_score", steps=0)
        plan.log(f"L1 = {L1:.6g}, ||C||_1 = {c_l1:.6g}, Gamma = {gamma:.6g}, "
                 f"n = {n}, eps = {eps}, delta = {delta}")
        if cfg.T > 0:
            T = cfg.T
            plan.log(f"T = {T} (user-supplied)")
        else:
            raw = (gamma ** (2 / 3) * (n * eps) ** (2 / 3) / (L1 * c_l1) ** (2 / 3)) \
                if L1 * c_l1 > 0 and math.isfinite(eps) else math.inf
            plan.log(f"T formula: Gamma^(2/3) (n eps)^(2/3) / (L1 ||C||_1)^(2/3) = {raw:.6g}")
            T = _clamp_steps(raw, cfg.t_cap, plan, "fw_polytope")
        scale = fw_laplace_scale(L1, c_l1, T, cfg.budget, n)
        plan.steps = T
        plan.laplace_scale = scale
        plan.log(f"laplace scale = L1 ||C||_1 sqrt(8 T ln(1/delta))/(n eps) = {scale:.6g}")
        plan.log("scores use the 1/n-normalized gradient, paired with the "
                 "per-record sensitivity scale above")
        mu = _fw_mu(cfg, T, plan)
        return ResolvedRun(T=T, plan=plan, mu=mu, L1=L1, L2=L2, curvature=gamma)

    # fw_general
    gamma = cfg.loss.curvature_bound(cfg.body, data)
    plan = NoisePlan(mechanism="gaussian_per_step", steps=0)
    plan.log(f"L2 = {L2:.6g}, Gamma = {gamma:.6g}, n = {n}, eps = {eps}, delta = {delta}")
    if cfg.T > 0:
        T = cfg.T
        plan.log(f"T = {T} (user-supplied)")
    else:
        g_c = _width_of(cfg, cfg.body, plan, "G_C")
        raw = (gamma ** (2 / 3) * (n * eps) ** (2 / 3) / (L2 * g_c) ** (2 / 3)) \
            if L2 * g_c > 0 and math.isfinite(eps) else math.inf
        plan.log(f"T formula: Gamma^(2/3) (n eps)^(2/3) / (L2 G_C)^(2/3) = {raw:.6g}")
        T = _clamp_steps(raw, cfg.t_cap, plan, "fw_general")
    sigma = fw_gaussian_sigma(L2, T, cfg.budget, n)
    plan.steps = T
    plan.sigma = sigma
    plan.log(f"sigma = sqrt(32 L2 T) ln(n/delta)/(n eps) = {sigma:.6g} "
             "(source display is linear in L2 and logs n/delta, unlike the "
             "mirror-descent scale; implemented verbatim)")
    mu = _fw_mu(cfg, T, plan)
    return ResolvedRun(T=T, plan=plan, mu=mu, L1=L1, L2=L2, curvature=gamma)


def _md_eta(cfg: SolverConfig, L2: float, q_diam: float, T: int,
            plan: NoisePlan) -> Callable[[int], float]:
    if cfg.schedule is not None:
        plan.log("eta: user-supplied schedule")
        return cfg.schedule
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
    if cfg.schedule is not None:
        plan.log("mu: user-supplied schedule")
        return cfg.schedule
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
# Solvers


def noisy_mirror_descent(cfg: SolverConfig, data: Dataset) -> SolverReport:
    """Mirror descent with per-step Gaussian gradient noise; averaged output.

    Runs T-1 prox steps and returns the average of the first T iterates
    (the T-th step of the source loop cannot affect the averaged output and
    is skipped).
    """
    if cfg.algorithm not in ("noisy_md", "strongly_convex_md"):
        raise ValueError("config algorithm mismatch")
    run = resolve_defaults(cfg, data)
    pot = cfg.potential
    it_body = pot.iterate_body(cfg.body)
    rng = spawn_rng(cfg.seed, _STREAM_NOISE)
    start = time.perf_counter()

    x = it_body.canonical_point()
    acc = x.copy()
    trace = [pot.to_point(x)] if cfg.record_iterates else None
    p = cfg.body.dimension
    for t in range(1, run.T):
        theta_t = pot.to_point(x)
        g = cfg.loss.grad(theta_t, data) + sample_gaussian_vec(p, run.plan.sigma, rng)
        x = pot.mirror_step(it_body, x, pot.pull_back(g), run.eta(t + 1))
        acc += x
        if trace is not None:
            trace.append(pot.to_point(x))
    theta_priv = pot.to_point(acc / run.T)

    report = SolverReport(
        algorithm=cfg.algorithm,
        theta_priv=theta_priv,
        iterations=run.T,
        noise_plan=run.plan,
        seed=cfg.seed,
        wall_time_s=time.perf_counter() - start,
        feasible=cfg.body.contains(theta_priv),
    )
    if trace is not None:
        report.extras["iterates"] = trace
    return report


def strongly_convex_md(cfg: SolverConfig, data: Dataset) -> SolverReport:
    """Noisy mirror descent with the 2/(Delta t) schedule and its default T."""
    if cfg.algorithm != "strongly_convex_md":
        raise ValueError("config algorithm mismatch")
    return noisy_mirror_descent(cfg, data)


def objective_perturbation(cfg: SolverConfig, data: Dataset) -> SolverReport:
    """One-shot privatization: minimize L + (zeta/2)||theta - theta0||^2 + <b, theta>."""
    if cfg.algorithm != "obj_pert":
        raise ValueError("config algorithm mismatch")
    from .losses import Huber

    if isinstance(cfg.loss, Huber):
        raise ValueError("objective perturbation needs a twice continuously "
                         "differentiable loss; the Huber loss is not C^2")
    run = resolve_defaults(cfg, data)
    rng = spawn_rng(cfg.seed, _STREAM_NOISE)
    start = time.perf_counter()
    p = cfg.body.dimension
    b = sample_gaussian_vec(p, run.plan.sigma, rng)
    theta0 = run.theta0
    zeta = run.zeta

    def fval(theta):
        d = theta - theta0
        return cfg.loss.loss(theta, data) + 0.5 * zeta * float(d @ d) + float(b @ theta)

    def fgrad(theta):
        return cfg.loss.grad(theta, data) + zeta * (theta - theta0) + b

    theta, converged, gap, iters = _inner_minimize(cfg.body, fval, fgrad)
    if not converged:
        warnings.warn(
            f"objective-perturbation inner solve stopped at gap {gap:.3e} "
            f"after {iters} iterations; returning the best iterate",
            stacklevel=2,
        )
    report = SolverReport(
        algorithm=cfg.algorithm,
        theta_priv=theta,
        iterations=iters,
        noise_plan=run.plan,
        seed=cfg.seed,
        wall_time_s=time.perf_counter() - start,
        feasible=cfg.body.contains(theta),
    )
    report.extras["inner_converged"] = converged
    report.extras["inner_gap"] = gap
    return report


def _inner_minimize(body: ConvexBody, fval, fgrad,
                    tol: float = OBJPERT_INNER_TOL,
                    cap: int = OBJPERT_INNER_CAP):
    """Accelerated projected gradient; polytopes run over vertex coefficients.

    The plain Frank-Wolfe inner solver the source suggests for polytopes
    cannot certify a 1e-8 gap within the iteration cap (its gap decays like
    1/T), so the coefficient reformulation is used instead.
    """
    from .geometry import Simplex

    if isinstance(body, Polytope):
        V = body.vertex_array
        coeff = Simplex(dimension=body.n_vertices)
        a, converged, gap, iters = _apg(coeff, lambda a: fval(V.T @ a),
                                        lambda a: V @ fgrad(V.T @ a), tol, cap,
                                        gap_fn=lambda a: _fw_gap(body, V.T @ a, fgrad))
        return V.T @ a, converged, gap, iters
    return _apg(body, fval, fgrad, tol, cap,
                gap_fn=lambda x: _fw_gap(body, x, fgrad))


def _fw_gap(body: ConvexBody, x: np.ndarray, fgrad) -> float:
    g = fgrad(x)
    return float(g @ (x - body.lmo(g)))


def _apg(body, fval, fgrad, tol, cap, gap_fn):
    x = body.canonical_point()
    z = x.copy()
    t_mom = 1.0
    step = 1.0
    fx = fval(x)
    stalls = 0
    it = 0
    while it < cap:
        it += 1
        if it % 10 == 1:
            gap = gap_fn(x)
            if gap <= tol:
                return x, True, gap, it
        g = fgrad(z)
        fz = fval(z)
        while True:
            x_new = body.euclidean_project(z - step * g)
            diff = x_new - z
            f_new = fval(x_new)
            if f_new <= fz + float(g @ diff) + float(diff @ diff) / (2 * step):
                break
            step *= 0.5
            if step < 1e-18:
                return x, False, gap_fn(x), it
        if f_new > fx:
            z = x.copy()
            t_mom = 1.0
            stalls += 1
            if stalls > 200:  # rounding floor
                break
            continue
        stalls = 0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = body.euclidean_project(x_new + ((t_mom - 1.0) / t_new) * (x_new - x))
        x, fx, t_mom = x_new, f_new, t_new
        step *= 1.1
    gap = gap_fn(x)
    return x, gap <= tol, gap, it


def private_fw_polytope(cfg: SolverConfig, data: Dataset) -> SolverReport:
    """Frank-Wolfe over an explicit vertex list with noisy per-vertex scores.

    Exactly T-1 report-noisy-min selections; the output is theta_T, a convex
    combination of the start point and at most T-1 selected vertices (the
    combination ledger is kept in the report extras).
    """
    if cfg.algorithm != "fw_polytope":
        raise ValueError("config algorithm mismatch")
    V = cfg.body.vertices()
    if V.shape[0] > 10 ** 6:
        raise ValueError("vertex count above 10^6 makes score enumeration infeasible")
    run = resolve_defaults(cfg, data)
    rng = spawn_rng(cfg.seed, _STREAM_NOISE)
    start = time.perf_counter()

    theta = cfg.body.canonical_point()
    weights: dict[object, float] = {"start": 1.0}
    trace = [theta.copy()] if cfg.record_iterates else None
    for t in range(1, run.T):
        g = cfg.loss.grad(theta, data)
        scores = V @ g
        idx = report_noisy_min(scores, run.plan.laplace_scale, rng)
        mu = run.mu(t)
        theta = (1.0 - mu) * theta + mu * V[idx]
        for k in weights:
            weights[k] *= 1.0 - mu
        weights[idx] = weights.get(idx, 0.0) + mu
        if trace is not None:
            trace.append(theta.copy())

    report = SolverReport(
        algorithm=cfg.algorithm,
        theta_priv=theta,
        iterations=run.T,
        noise_plan=run.plan,
        seed=cfg.seed,
        wall_time_s=time.perf_counter() - start,
        feasible=cfg.body.contains(theta),
    )
    report.extras["vertex_weights"] = {str(k): v for k, v in weights.items()}
    report.extras["support_size"] = sum(1 for v in weights.values() if v > 0)
    if trace is not None:
        report.extras["iterates"] = trace
    return report


def private_fw_general(cfg: SolverConfig, data: Dataset) -> SolverReport:
    """Frank-Wolfe with one Gaussian vector added to the gradient before the LMO."""
    if cfg.algorithm != "fw_general":
        raise ValueError("config algorithm mismatch")
    run = resolve_defaults(cfg, data)
    rng = spawn_rng(cfg.seed, _STREAM_NOISE)
    start = time.perf_counter()
    p = cfg.body.dimension

    theta = cfg.body.canonical_point()
    trace = [theta.copy()] if cfg.record_iterates else None
    for t in range(1, run.T):
        g = cfg.loss.grad(theta, data) + sample_gaussian_vec(p, run.plan.sigma, rng)
        target = cfg.body.lmo(g)
        mu = run.mu(t)
        theta = (1.0 - mu) * theta + mu * target
        if trace is not None:
            trace.append(theta.copy())

    report = SolverReport(
        algorithm=cfg.algorithm,
        theta_priv=theta,
        iterations=run.T,
        noise_plan=run.plan,
        seed=cfg.seed,
        wall_time_s=time.perf_counter() - start,
        feasible=cfg.body.contains(theta),
    )
    if trace is not None:
        report.extras["iterates"] = trace
    return report


_DISPATCH = {
    "noisy_md": noisy_mirror_descent,
    "strongly_convex_md": strongly_convex_md,
    "obj_pert": objective_perturbation,
    "fw_polytope": private_fw_polytope,
    "fw_general": private_fw_general,
}


def run_solver(cfg: SolverConfig, data: Dataset) -> SolverReport:
    """Run the configured algorithm; a body/data dimension mismatch raises
    ``ValueError`` before any work starts."""
    require_matching_dimension(cfg.body, data)
    return _DISPATCH[cfg.algorithm](cfg, data)
