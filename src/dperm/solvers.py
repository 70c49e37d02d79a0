"""Private solvers: noisy mirror descent, objective perturbation, Frank-Wolfe.

``run_solver`` is the one entry point.  ``_TABLE`` gives each algorithm a
calibration and a loop.  The calibration (``resolve_defaults``) reads the
algorithm's constants, resolves its step count, sets its noise scale and
its step, and logs each in the ``NoisePlan`` trace.  The loop is a
generator over the body's iterate space (``ConvexBody.iterate_space``: a
polytope's simplex of vertex coefficients, any other body itself).  It
yields the points theta_t of the iterates it visits and returns (iterate,
iterations, extras), where ``iterate`` is the output in the iterate space:

- mirror descent (``noisy_md``, ``strongly_convex_md``): T-1 prox steps on
  Gaussian-noised gradients, yielding theta_1 ... theta_T and returning
  the average of their iterates;
- objective perturbation (``obj_pert``): one certified minimization of
  L + (zeta/2)||theta - theta0||^2 + <b, theta> with Gaussian b, yielding
  its one output;
- Frank-Wolfe (``fw_polytope``, ``fw_general``): T-1 steps toward a private
  target, the vertex with the report-noisy-min score for ``fw_polytope``
  and the LMO of the Gaussian-noised gradient for ``fw_general``, yielding
  theta_1 ... theta_T and returning the iterate of theta_T.  Every vertex
  of an iterate body with vertices (the l1 ball, the simplex, a polytope's
  coefficient simplex) is value e_j (``ConvexBody.vertex_entry``), so both
  pick a vertex index and step one coordinate: x <- (1 - mu_t) x, then
  x_j += mu_t value.  On a body without vertices ``fw_general`` steps
  toward the dense LMO point.

``run_solver`` maps the iterate to theta_priv and checks feasibility on the
iterate body, for every algorithm: on a ``Polytope`` that is the O(k)
``Simplex.contains`` of the vertex coefficients, never the linear program
of ``Polytope.contains``.

Every run is deterministic given (config, data, seed): noise injection
is the only stochastic element, and the zero-scale samplers leave the
generator untouched, so a non-private run reproduces its classical
counterpart's iterate sequence bit for bit.

A run has one step count, ``plan.steps``, and one schedule ``step(t)``:
the source's eta = sqrt(max Psi)/(L2 ||Q||_2 sqrt(T)) for ``noisy_md`` and
eta_t = 2/(Delta t) for ``strongly_convex_md``, and the classical weight
mu_t = 2/(t+2) for both Frank-Wolfe loops.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .firstorder import NotCertifiedError, minimize
from .geometry import (ConvexBody, WidthEstimate, body_from_dict, doc_bool, doc_int, doc_nested,
                       doc_str, gaussian_width_mc, memo_by_body, noise_blocks, read_doc,
                       symmetric_hull, vertex_argmin)
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

# Monte-Carlo samples and public seed of the Gaussian width in a default T on
# a body without a closed-form width (a polytope, a grouped-l1 ball, a box).
WIDTH_SAMPLES = 20_000
WIDTH_SEED = 0


@dataclass
class SolverConfig:
    """Everything a solver run needs besides the dataset.

    ``T = 0`` resolves the step count from the algorithm's own default
    formula (floored at 1, capped at ``t_cap >= 1``, 10^6 when None); a
    ``t_cap`` next to a given ``T`` is refused.  The mirror-descent
    algorithms need a potential that can run on the body
    (``Potential.natural_q`` raises on any other) and the other algorithms
    refuse one; ``strongly_convex_md`` needs a loss with
    ``strong_convexity > 0``, ``obj_pert`` a C^2 loss (not ``Huber``) and no
    ``T`` or ``t_cap`` and ``fw_polytope`` a body with vertices (``n_vertices > 0``).
    All are checked here, once per config, and the ``natural_q`` body is
    kept.
    """

    algorithm: str
    body: ConvexBody
    loss: LossSpec
    budget: PrivacyBudget
    potential: Optional[Potential] = None
    T: int = 0
    seed: int = 0
    t_cap: Optional[int] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.T < 0:
            raise ValueError("T must be >= 0 (0 = use the default formula)")
        if self.t_cap is not None and self.t_cap < 1:
            raise ValueError(f"t_cap must be >= 1, got {self.t_cap}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self._q_body = None
        if self.algorithm in ("noisy_md", "strongly_convex_md"):
            if self.potential is None:
                raise ValueError(f"{self.algorithm} requires a potential")
            self._q_body = self.potential.natural_q(self.body)
        elif self.potential is not None:
            raise ValueError(f"{self.algorithm} takes no potential")
        if self.algorithm == "obj_pert" and (self.T or self.t_cap is not None):
            name = "T" if self.T else "t_cap"
            raise ValueError(f"obj_pert takes no {name}: it makes one minimization, not T steps")
        if self.T and self.t_cap is not None:
            raise ValueError(f"t_cap caps the default step count; it does not apply "
                             f"to the given T = {self.T}")
        if self.algorithm == "strongly_convex_md" and not (self.loss.strong_convexity or 0) > 0:
            raise ValueError("strongly_convex_md requires a loss with strong_convexity > 0")
        if self.algorithm == "obj_pert" and isinstance(self.loss, Huber):
            raise ValueError("objective perturbation needs a twice continuously "
                             "differentiable loss; the Huber loss is not C^2")
        if self.algorithm == "fw_polytope" and not self.body.n_vertices:
            raise ValueError("fw_polytope requires a vertex-enumerable body "
                             "(polytope, l1 ball, or simplex)")

    @classmethod
    def from_dict(cls, doc: dict) -> "SolverConfig":
        """Build a config from its document, each key read as ``_DOC_FIELDS`` says."""
        read = read_doc(doc, "solver config", _DOC_FIELDS)
        if read["potential"] is not None:
            read["potential"] = potential_from_dict(read["potential"], read["body"])
        return cls(**{f.name: read[f.name] for f in fields(cls)})


# How each key of a config document is read, with its default when optional:
# the ``SolverConfig`` fields, a sweep's ``id`` and ``dperm solve``'s flag.
_DOC_FIELDS = {
    "algorithm": doc_str, "body": doc_nested(body_from_dict), "loss": doc_nested(loss_from_dict),
    "budget": doc_nested(PrivacyBudget.from_dict), "potential": (None, SolverConfig.potential),
    "T": (doc_int, SolverConfig.T), "seed": (doc_int, SolverConfig.seed),
    "t_cap": (doc_int, SolverConfig.t_cap), "id": (doc_str, None),
    "lasso_profile": (doc_bool, False),
}


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
    """A calibrated run: its ``plan`` (``plan.steps``, noise scales, trace) and
    its ``step(t)`` for 1-based t: eta_t, mu_t, or None for ``obj_pert``."""

    plan: NoisePlan
    step: Optional[Callable[[int], float]] = None


def resolve_defaults(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    """Fill T, step sizes and noise scales; record every substitution."""
    require_matching_dimension(cfg.body, data)
    return _TABLE[cfg.algorithm][0](cfg, data)


def gaussian_width(body: ConvexBody) -> WidthEstimate:
    """The Gaussian width of ``body`` that a default T uses: its closed form
    where the body has one (``ConvexBody.closed_form_width``: the l1 ball,
    the simplex, the l2 ball), else ``gaussian_width_mc(body, WIDTH_SAMPLES,
    WIDTH_SEED)``.  Computed once per body, so every seed of one config
    resolves the same T."""

    def compute():
        exact = body.closed_form_width()
        if exact is not None:
            return WidthEstimate(exact)
        return gaussian_width_mc(body, WIDTH_SAMPLES, WIDTH_SEED)

    return memo_by_body(body, ("gaussian_width",), compute)


def _steps(cfg: SolverConfig, plan: NoisePlan, text: tuple[str, str],
           ratio: Callable, width: Optional[tuple[str, ConvexBody]] = None) -> int:
    """The step count, also set as ``plan.steps``: the user's T verbatim;
    else the formula num / den, named by the pair ``text``, with (num, den)
    = ``ratio(w)`` at the Gaussian width w = ``gaussian_width(body)`` of
    ``width`` = (label, body) (None without one), floored at 1 and capped
    at t_cap (10^6 when None).  The trace names how w was found: "closed
    form", or the Monte-Carlo samples, seed and standard error.  A
    non-private budget or a zero denominator makes the formula infinite:
    the cap."""
    if cfg.T > 0:
        plan.log(f"T = {cfg.T} (user-supplied)")
        plan.steps = cfg.T
        return cfg.T
    w = None
    if width is not None:
        label, body = width
        est = gaussian_width(body)
        draws = (f", {est.samples} samples, seed {est.seed}, se {est.std_error:.2g}"
                 if est.samples else "")
        plan.log(f"{label} = {est.mean:.6g} ({est.method}{draws})")
        w = est.mean
    cap = 10 ** 6 if cfg.t_cap is None else cfg.t_cap
    private = cfg.budget.is_private
    num, den = ratio(w) if private else (math.inf, 1.0)
    value = num / den if den > 0 else math.inf
    plan.log(f"T formula: {text[0]} / {text[1]} = {value:.6g}")
    if math.isinf(value):
        why = f": {text[1]} = {den:.6g};" if private else " in non-private mode;"
        plan.log(f"T formula diverges{why} capped at {cap}")
        T = cap
    elif value < 1.0:
        raise ValueError(f"{cfg.algorithm}: default step count resolves to {value:.3g} < 1; "
                         "increase n or epsilon, or supply T explicitly")
    else:
        T = min(int(value), cap)
        if T < value:
            plan.log(f"T = min(floor({value:.6g}), cap {cap}) = {T}")
    plan.steps = T
    return T


def _fw_mu(plan: NoisePlan) -> Callable[[int], float]:
    """mu_t = 2/(t+2), the classical Frank-Wolfe weight (Jaggi, "Revisiting
    Frank-Wolfe", ICML 2013), with f(theta_T) - f* <= 2 Gamma/(T+2).  The
    source's own display could not be checked offline; ``PAPER.md`` holds
    only its abstract.  Post-processing of the private picks: privacy holds."""
    plan.log("mu_t = 2/(t+2)")
    return lambda t: 2.0 / (t + 2.0)


def _calibrate_noisy_md(cfg: SolverConfig, data: Dataset) -> ResolvedRun:
    eps, delta, n = cfg.budget.epsilon, cfg.budget.delta, data.n
    L2 = cfg.loss.lipschitz_constants(cfg.body, data)[1]
    plan = NoisePlan(mechanism="gaussian_per_step", steps=0)
    plan.log(f"L2 = {L2:.6g}, n = {n}, eps = {eps}, delta = {delta}")
    # The config keeps the potential's body (the blanket hull would mispair e.g. squared l2
    # on an l1 ball); the hull fallback never runs, but perfbench/spans.py patches it here.
    q_body = cfg._q_body if cfg._q_body is not None else symmetric_hull(cfg.body)
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
    return ResolvedRun(plan, lambda t: eta)


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
    return ResolvedRun(plan, sc_step_schedule(delta_sc))


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
    return ResolvedRun(plan)


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
    return ResolvedRun(plan, _fw_mu(plan))


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
    return ResolvedRun(plan, _fw_mu(plan))


# ---------------------------------------------------------------------------
# Loops: each is a generator that yields the points of the iterates it
# visits, arrays that no later step writes into, and returns (iterate,
# iterations, extras) with the output in the iterate space.
# Each binds the loss gradient to the data once (``LossSpec.bound_grad``),
# so a step pays for the gradient's arithmetic only, not for the data checks
# and the statistics lookups.


def _gaussian_rows(cfg: SolverConfig, run: ResolvedRun, rng):
    # One N(0, sigma^2 I_p) row per step, drawn in ``noise_blocks``.
    return chain.from_iterable(noise_blocks(
        lambda shape: sample_gaussian_vec(shape, run.plan.sigma, rng),
        run.plan.steps - 1, cfg.body.dimension))


def _mirror_descent(cfg: SolverConfig, data: Dataset, run: ResolvedRun, rng):
    # The T-th step of the source loop cannot affect the averaged output and
    # is skipped.
    pot, T = cfg.potential, run.plan.steps
    it_body, point_of, pullback = cfg.body.iterate_space()
    grad = cfg.loss.bound_grad(data)
    x = it_body.canonical_point()
    acc = x.copy()
    for t, z in zip(range(1, T), _gaussian_rows(cfg, run, rng)):
        theta_t = point_of(x)
        yield theta_t
        g = grad(theta_t) + z
        x = pot.mirror_step(it_body, x, pullback(g), run.step(t + 1))
        acc += x
    yield point_of(x)
    return acc / T, T, {}


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
        theta, iterate, gap, iters, converged = sol.x, sol.iterate, sol.gap, sol.iterations, True
    except NotCertifiedError as exc:
        theta, iterate, gap, iters, converged = exc.x, exc.iterate, exc.gap, exc.iterations, False
        warnings.warn(
            f"objective-perturbation inner solve stopped at gap {gap:.3e} "
            f"after {iters} iterations; returning the best iterate",
            stacklevel=4,  # past this loop, ``_drain`` and ``run_solver``
        )
    yield theta
    return iterate, iters, {"inner_converged": converged, "inner_gap": gap}


def _frank_wolfe(cfg: SolverConfig, data: Dataset, run: ResolvedRun, rng):
    # x_T after exactly T-1 steps over the iterate space, step t moving mu_t
    # toward a private target: the vertex with the least noisy score
    # (fw_polytope) or the vertex of least <v, noisy gradient> (fw_general).
    # Every vertex of an iterate body with vertices is value e_j, so the state
    # s = [x (p), ledger (k vertex weights, then the start's)] takes one
    # scaling and two entries per step.  A fresh s each step keeps every
    # yielded iterate, a view of its s, unwritten.
    T, mu = run.plan.steps, run.step
    it_body, point_of, pullback = cfg.body.iterate_space()
    grad = cfg.loss.bound_grad(data)
    p, k = it_body.dimension, it_body.n_vertices
    if cfg.algorithm == "fw_polytope":
        noise = chain.from_iterable(noise_blocks(
            lambda shape: sample_laplace(run.plan.laplace_scale, rng, size=shape), T - 1, k))
        picks: list[int] = []
        scores = it_body.vertex_scores

        def pick(g, z):
            idx = report_noisy_min(scores(pullback(g)), z)
            picks.append(idx)
            return idx
    else:
        noise = _gaussian_rows(cfg, run, rng)

        def pick(g, z):
            return vertex_argmin(it_body, pullback(g + z))

    x = it_body.canonical_point()
    theta = point_of(x)
    yield theta
    if not k:  # fw_general on a body without vertices: the dense LMO step
        lmo = it_body.lmo
        for t, z in enumerate(noise, 1):
            x = (1.0 - mu(t)) * x + mu(t) * lmo(pullback(grad(theta) + z))
            theta = point_of(x)
            yield theta
        return x, T, {}

    entry = it_body.vertex_entry
    s = np.concatenate((x, np.zeros(k), [1.0]))
    for t, z in enumerate(noise, 1):
        idx = pick(grad(theta), z)
        j, value = entry(idx)
        m = mu(t)
        s = (1.0 - m) * s
        s[j] += m * value
        s[p + idx] += m
        theta = point_of(s[:p])
        yield theta
    if cfg.algorithm != "fw_polytope":
        return s[:p], T, {}
    # The keys are the start, then the vertices in the order first picked.
    w = s[p:].tolist()
    ledger = {"start": w[k], **{str(i): w[i] for i in dict.fromkeys(picks)}}
    return s[:p], T, {
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
    starts (``resolve_defaults`` checks it first).  ``theta_priv`` is the
    point of the loop's iterate and ``feasible`` the iterate body's
    ``contains`` of it: on a polytope the coefficient simplex's O(k) check.
    """
    run = resolve_defaults(cfg, data)
    rng = spawn_rng(cfg.seed, _STREAM_NOISE)
    start = time.perf_counter()
    iterate, iterations, extras = _drain(_TABLE[cfg.algorithm][1](cfg, data, run, rng))
    wall_time_s = time.perf_counter() - start
    it_body, point_of, _ = cfg.body.iterate_space()
    return SolverReport(
        algorithm=cfg.algorithm,
        theta_priv=point_of(iterate),
        iterations=iterations,
        noise_plan=run.plan,
        seed=cfg.seed,
        wall_time_s=wall_time_s,
        feasible=it_body.contains(iterate),
        extras=extras,
    )
