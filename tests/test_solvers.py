import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import dperm.geometry as geometry
import dperm.solvers as solvers
from dperm.geometry import Box, L1Ball, L2Ball, Polytope, Simplex, body_key, gaussian_width_mc
from dperm.harness import generate_lasso
from dperm.losses import CustomLoss, Dataset, Huber, SquaredError
from dperm.oracle import cached_solve, excess_risk, solve_exact
from dperm.potentials import (GroupedL1, NegativeEntropy, PolytopeQNorm, SquaredL2,
                              potential_from_dict)
from dperm.privacy import PrivacyBudget, sample_gaussian_vec, sample_laplace, spawn_rng
from dperm.solvers import (
    SolverConfig,
    resolve_defaults,
    run_solver,
    sc_step_schedule,
)
from reference import (curvature_empirical, dense_frank_wolfe, reference_plan, row_grad, row_loss,
                       vertex_list)

NON_PRIVATE = PrivacyBudget(math.inf)
SQ = SquaredError()


@pytest.fixture(scope="module")
def small_lasso():
    return generate_lasso(n=400, p=12, sparsity=3, noise_level=0.1, seed=31)


def step_loop(cfg, data, run=None):
    """The library's own loop generator for ``cfg``, on ``run`` (by default
    ``resolve_defaults(cfg, data)``) and the noise stream ``run_solver`` uses."""
    loop = solvers._TABLE[cfg.algorithm][1]
    return loop(cfg, data, run or resolve_defaults(cfg, data),
                spawn_rng(cfg.seed, solvers._STREAM_NOISE))


def drive(cfg, data, run=None):
    """Run ``step_loop(cfg, data, run)`` to its end.  Returns the iterates it
    yielded and what it returned, (iterate, iterations, extras): on a body
    other than a polytope the iterate is theta itself."""
    return collect(step_loop(cfg, data, run))


def collect(loop):
    """The iterates a loop generator yields and what it returns."""
    iterates = []
    while True:
        try:
            iterates.append(next(loop))
        except StopIteration as stop:
            return iterates, stop.value


# ---------------------------------------------------------------------------
# Classical reference loops, written independently of the solver module.


def reference_pgd_averaged(body, loss, data, T, eta):
    theta = body.canonical_point()
    acc = theta.copy()
    for _ in range(1, T):
        theta = body.euclidean_project(theta - eta * loss.grad(theta, data))
        acc += theta
    return acc / T


def reference_entropy_md_averaged(body, loss, data, T, eta):
    theta = body.canonical_point()
    acc = theta.copy()
    for _ in range(1, T):
        z = np.log(np.maximum(theta, 1e-12)) - eta * loss.grad(theta, data)
        z -= z.max()
        w = np.exp(z)
        w = np.maximum(w / w.sum(), 1e-12)
        theta = w / w.sum()
        acc += theta
    return acc / T


def reference_fw(body, loss, data, T, mu_fn):
    theta = body.canonical_point()
    for t in range(1, T):
        g = loss.grad(theta, data)
        target = body.lmo(g)
        theta = (1 - mu_fn(t)) * theta + mu_fn(t) * target
    return theta


def reference_step_loop(cfg, data):
    """The noisy_md, fw_general and fw_polytope loops with one sampler call
    per step, the Frank-Wolfe weight mu_t = 2/(t+2) written out and the
    vertex ledger kept in a dict.

    Returns (theta, iterates, vertex_weights); the weights are None except
    for fw_polytope.
    """
    run = resolve_defaults(cfg, data)
    rng = spawn_rng(cfg.seed, solvers._STREAM_NOISE)
    p = cfg.body.dimension
    if cfg.algorithm == "noisy_md":
        pot = cfg.potential
        it_body, point_of, pullback = cfg.body.iterate_space()
        x = it_body.canonical_point()
        acc = x.copy()
        iterates = [point_of(x)]
        for t in range(1, run.plan.steps):
            g = cfg.loss.grad(point_of(x), data) + sample_gaussian_vec(p, run.plan.sigma, rng)
            x = pot.mirror_step(it_body, x, pullback(g), run.step(t + 1))
            acc += x
            iterates.append(point_of(x))
        return point_of(acc / run.plan.steps), iterates, None

    V = vertex_list(cfg.body) if cfg.algorithm == "fw_polytope" else None
    theta = cfg.body.canonical_point()
    iterates = [theta.copy()]
    weights = {"start": 1.0}
    for t in range(1, run.plan.steps):
        g = cfg.loss.grad(theta, data)
        mu = 2.0 / (t + 2.0)
        if V is not None:
            scores = V @ g
            if run.plan.laplace_scale > 0.0:
                scores = scores + sample_laplace(run.plan.laplace_scale, rng, size=len(V))
            idx = int(np.argmin(scores))
            s = V[idx]
            for k in weights:
                weights[k] *= 1.0 - mu
            weights[idx] = weights.get(idx, 0.0) + mu
        else:
            s = cfg.body.lmo(g + sample_gaussian_vec(p, run.plan.sigma, rng))
        theta = (1.0 - mu) * theta + mu * s
        iterates.append(theta.copy())
    if cfg.algorithm != "fw_polytope":
        return theta, iterates, None
    return theta, iterates, {str(k): v for k, v in weights.items()}


# ---------------------------------------------------------------------------


# Not centrally symmetric: its hull adds the rows -e_i and e_i / 2.
HALF_CROSS_12 = Polytope(np.vstack([np.eye(12), -0.5 * np.eye(12)]))


class TestResolveDefaults:
    def test_fw_polytope_step_count_example(self):
        # Gamma = 4, L1 ||C||_1 = 2, n eps = 1e4 -> floor(2^(2/3) * 1e4^(2/3)) = 736.
        loss = CustomLoss(lambda t, X, y: 0.0, lambda t, X, y: np.zeros(2),
                          constants={"l1_lipschitz": 2.0, "l2_lipschitz": 5.0,
                                     "curvature": 4.0, "lambda_min": 0.0,
                                     "lambda_max": 1.0})
        data = Dataset(X=np.zeros((10 ** 4, 2)), y=np.zeros(10 ** 4))
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 2), loss=loss,
                           budget=PrivacyBudget(1.0, 1e-6))
        run = resolve_defaults(cfg, data)
        manual = math.floor(4.0 ** (2 / 3) * (10 ** 4) ** (2 / 3) / 2.0 ** (2 / 3))
        assert manual == 736
        assert run.plan.steps == 736

    def test_user_t_wins_verbatim(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=17)
        assert resolve_defaults(cfg, small_lasso).plan.steps == 17

    def test_non_private_caps_t_and_zeroes_noise(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=NON_PRIVATE, t_cap=500)
        run = resolve_defaults(cfg, small_lasso)
        assert run.plan.steps == 500
        assert run.plan.laplace_scale == 0.0
        cfg_md = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 12), loss=SQ,
                              budget=NON_PRIVATE, potential=SquaredL2(), t_cap=300)
        run_md = resolve_defaults(cfg_md, small_lasso)
        assert run_md.plan.steps == 300 and run_md.plan.sigma == 0.0

    def test_seeds_of_one_config_resolve_the_same_t(self):
        # The width depends on the public body alone, so the default T and
        # the noise scale cannot move with the solver seed.
        data = generate_lasso(n=32_000, p=20, sparsity=3, noise_level=0.1, seed=5)
        for algorithm, potential in (("noisy_md", SquaredL2()), ("fw_general", None)):
            runs = [resolve_defaults(SolverConfig(
                algorithm=algorithm, body=L1Ball(1.0, 20), loss=SQ,
                budget=PrivacyBudget(1.0, 1e-6), potential=potential, seed=seed), data)
                for seed in range(8)]
            assert 1 < runs[0].plan.steps < 10 ** 6  # the formula, not the floor or the cap
            assert {run.plan.steps for run in runs} == {runs[0].plan.steps}
            assert {run.plan.sigma for run in runs} == {runs[0].plan.sigma}

    def test_degenerate_t_raises_with_advice(self):
        data = Dataset(X=np.ones((4, 2)), y=np.ones(4))
        cfg = SolverConfig(algorithm="noisy_md", body=L2Ball(1.0, 2), loss=SQ,
                           budget=PrivacyBudget(0.01, 1e-6), potential=SquaredL2())
        with pytest.raises(ValueError, match="increase n or epsilon"):
            resolve_defaults(cfg, data)

    def test_zero_lipschitz_constant_has_no_step_size(self):
        data = Dataset(X=np.zeros((5, 3)), y=np.zeros(5))
        cfg = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 3), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), potential=SquaredL2(), T=5)
        with pytest.raises(ValueError, match=r"needs L2 > 0 .* got L2 = 0,"):
            resolve_defaults(cfg, data)

    def test_missing_custom_constants(self, small_lasso):
        loss = CustomLoss(lambda t, X, y: 0.0, lambda t, X, y: np.zeros(12),
                          constants={})
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=loss,
                           budget=PrivacyBudget(1.0, 1e-6))
        with pytest.raises(ValueError):
            resolve_defaults(cfg, small_lasso)

    def test_width_is_memoised_under_its_name_and_body_key(self, small_lasso, monkeypatch):
        import dperm.geometry as geometry

        memo = geometry.Memo()
        monkeypatch.setattr(geometry, "_body_memo", memo)  # as in a fresh process
        body = L1Ball(1.0, 12)
        cfg = SolverConfig(algorithm="fw_general", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6))
        resolve_defaults(cfg, small_lasso)
        assert list(memo._values) == [("gaussian_width", body_key(body))]

    @pytest.mark.parametrize("algorithm,product", [
        ("fw_polytope", "(L1 ||C||_1)^(2/3)"), ("fw_general", "(L2 G_C)^(2/3)")],
        ids=["fw_polytope", "fw_general"])
    @pytest.mark.parametrize("budget", [PrivacyBudget(1.0, 1e-6), NON_PRIVATE],
                             ids=["private", "non_private"])
    def test_divergent_t_formula_names_its_cause(self, algorithm, product, budget):
        # All-zero features make L1 = L2 = 0, so the denominator vanishes.
        data = Dataset(X=np.zeros((50, 3)), y=np.zeros(50))
        cfg = SolverConfig(algorithm=algorithm, body=L1Ball(1.0, 3), loss=SQ,
                           budget=budget, t_cap=1000)
        run = resolve_defaults(cfg, data)
        assert run.plan.steps == 1000
        why = f": {product} = 0;" if budget.is_private else " in non-private mode;"
        assert f"T formula diverges{why} capped at 1000" in run.plan.trace

    def test_plan_trace_names_inputs(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=32)
        run = resolve_defaults(cfg, small_lasso)
        text = "\n".join(run.plan.trace)
        assert "L1" in text and "eps" in text and "laplace scale" in text
        assert "mu_t = 2/(t+2)" in run.plan.trace


class TestNoisyMirrorDescent:
    def test_t_equals_one_returns_start(self, small_lasso):
        cfg = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), potential=SquaredL2(),
                           T=1, seed=3)
        rep = run_solver(cfg, small_lasso)
        assert np.array_equal(rep.theta_priv, L1Ball(1.0, 12).canonical_point())

    def test_zero_noise_matches_reference_pgd_bitwise(self, small_lasso):
        body = L1Ball(1.0, 12)
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=NON_PRIVATE, potential=SquaredL2(), T=50, seed=9)
        rep = run_solver(cfg, small_lasso)
        eta = resolve_defaults(cfg, small_lasso).step(1)
        ref = reference_pgd_averaged(body, SQ, small_lasso, 50, eta)
        assert np.array_equal(rep.theta_priv, ref)

    def test_zero_noise_entropy_matches_reference_bitwise(self, small_lasso):
        body = Simplex(12)
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=NON_PRIVATE, potential=NegativeEntropy(), T=40, seed=9)
        rep = run_solver(cfg, small_lasso)
        eta = resolve_defaults(cfg, small_lasso).step(1)
        ref = reference_entropy_md_averaged(body, SQ, small_lasso, 40, eta)
        assert np.array_equal(rep.theta_priv, ref)

    def test_output_is_mean_of_iterates(self, small_lasso):
        cfg = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), potential=SquaredL2(),
                           T=25, seed=4)
        iterates, (theta, _, _) = drive(cfg, small_lasso)
        iterates = np.array(iterates)
        assert iterates.shape[0] == 25
        assert np.abs(np.mean(iterates, axis=0) - theta).max() <= 1e-12

    def test_every_iterate_feasible(self, small_lasso):
        body = Simplex(12)
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6),
                           potential=NegativeEntropy(), T=30, seed=8)
        iterates, (theta_priv, _, _) = drive(cfg, small_lasso)
        for theta in iterates:
            assert body.contains(theta)
        assert body.contains(theta_priv)

    def test_reproducible(self, small_lasso):
        def run_once():
            cfg = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 12), loss=SQ,
                               budget=PrivacyBudget(1.0, 1e-6),
                               potential=SquaredL2(), T=20, seed=77)
            return run_solver(cfg, small_lasso).theta_priv

        assert np.array_equal(run_once(), run_once())

    def test_coefficient_space_polytope_run(self, small_lasso):
        V = np.vstack([np.eye(12), -np.eye(12)])
        body = Polytope(V)
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=NON_PRIVATE, potential=PolytopeQNorm(), T=30, seed=1)
        rep = run_solver(cfg, small_lasso)
        assert rep.feasible
        start_risk = SQ.loss(body.canonical_point(), small_lasso)
        assert SQ.loss(rep.theta_priv, small_lasso) <= start_risk + 1e-12

    def test_squared_l2_on_polytope_rejected(self):
        # At config time, not at the first projection.
        body = Polytope(np.vstack([np.eye(12), -np.eye(12)]))
        with pytest.raises(ValueError, match="euclidean projection is not supported for Polytope"):
            SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                         budget=NON_PRIVATE, potential=SquaredL2(), T=5)

    @pytest.mark.parametrize("body,potential,q_body", [
        (L1Ball(1.0, 12), SquaredL2(), L2Ball(1.0, 12)),
        (Simplex(12), NegativeEntropy(), L1Ball(1.0, 12)),
        (HALF_CROSS_12, PolytopeQNorm(), Polytope(np.vstack([np.eye(12), -0.5 * np.eye(12),
                                                              -np.eye(12), 0.5 * np.eye(12)]))),
    ], ids=["squared_l2", "negative_entropy", "polytope_q_norm"])
    def test_q_width_is_taken_at_the_bodys_dimension(self, small_lasso, body, potential,
                                                     q_body):
        # Closed form on the l2 and l1 balls, Monte Carlo on the polytope hull.
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), potential=potential)
        run = resolve_defaults(cfg, small_lasso)
        if isinstance(q_body, Polytope):
            est = gaussian_width_mc(q_body, solvers.WIDTH_SAMPLES, solvers.WIDTH_SEED)
            line = f"G_Q = {est.mean:.6g} (Monte Carlo, {solvers.WIDTH_SAMPLES} samples"
        else:
            line = f"G_Q = {q_body.closed_form_width():.6g} (closed form)"
        assert any(entry.startswith(line) for entry in run.plan.trace), run.plan.trace


class TestStronglyConvexMd:
    def test_schedule_at_t_one(self):
        assert sc_step_schedule(0.8)(1) == pytest.approx(2.0 / 0.8)

    def test_doubling_delta_halves_steps(self):
        s1 = sc_step_schedule(0.4)
        s2 = sc_step_schedule(0.8)
        for t in [1, 5, 40]:
            assert s2(t) == pytest.approx(s1(t) / 2.0)

    def test_requires_strong_convexity(self):
        with pytest.raises(ValueError, match="strong_convexity"):
            SolverConfig(algorithm="strongly_convex_md", body=L1Ball(1.0, 12),
                         loss=SQ, budget=NON_PRIVATE, potential=SquaredL2(), T=5)

    def test_document_without_strong_convexity_is_refused(self):
        with pytest.raises(ValueError, match="strong_convexity"):
            SolverConfig.from_dict({
                "algorithm": "strongly_convex_md", "body": L2Ball(1.0, 12).to_dict(),
                "loss": {"kind": "squared_error"}, "budget": {"epsilon": 1.0},
                "potential": {"kind": "squared_l2"}})

    def test_nonprivate_log_t_over_t_improvement(self, small_lasso):
        body = L2Ball(1.0, 12)
        loss = SquaredError(ridge=0.5)
        oracle = solve_exact(body, loss, small_lasso)
        risks = {}
        for T in [128, 512]:
            cfg = SolverConfig(algorithm="strongly_convex_md", body=body, loss=loss,
                               budget=NON_PRIVATE, potential=SquaredL2(), T=T)
            rep = run_solver(cfg, small_lasso)
            risks[T] = excess_risk(rep.theta_priv, oracle, loss, small_lasso)
        assert risks[512] < risks[128] / 3.0


class TestObjectivePerturbation:
    def test_non_private_matches_oracle(self, small_lasso):
        body = L1Ball(1.0, 12)
        cfg = SolverConfig(algorithm="obj_pert", body=body, loss=SQ,
                           budget=NON_PRIVATE, seed=0)
        rep = run_solver(cfg, small_lasso)
        oracle = solve_exact(body, SQ, small_lasso)
        assert abs(SQ.loss(rep.theta_priv, small_lasso) - oracle.optimum_value) <= 1e-6
        assert rep.extras["inner_converged"]

    def test_one_dimensional_plan_reads_no_single_record(self):
        # D' is D with x_0 set to 0.  Another record holds the largest |x|,
        # so only a value read from the least record could tell them apart.
        X = np.random.default_rng(3).uniform(0.5, 1.0, size=(50, 1))
        X[1, 0] = 1.0
        X_prime = X.copy()
        X_prime[0, 0] = 0.0
        cfg = SolverConfig(algorithm="obj_pert", body=L1Ball(1.0, 1), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6))
        plans = [resolve_defaults(cfg, Dataset(X=x, y=np.zeros(50))).plan.to_dict()
                 for x in (X, X_prime)]
        assert plans[0] == plans[1]
        assert plans[0]["zeta"] > 0.0

    def test_box_inner_solve_certifies(self):
        # Interior optimum on a box, where the objective stops changing in
        # floating point before the gap target is met.
        data = generate_lasso(n=100, p=20, sparsity=5, noise_level=0.1, seed=5)
        body = Box(lo=-5.0 * np.ones(20), hi=5.0 * np.ones(20))
        cfg = SolverConfig(algorithm="obj_pert", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_solver(cfg, data)
        assert rep.extras["inner_converged"]
        assert rep.extras["inner_gap"] <= solvers.OBJPERT_INNER_TOL
        assert rep.feasible

    def test_unreachable_tol_warns_and_returns_best_iterate(self, monkeypatch):
        data = generate_lasso(n=100, p=20, sparsity=5, noise_level=0.1, seed=5)
        body = Box(lo=-5.0 * np.ones(20), hi=5.0 * np.ones(20))
        cfg = SolverConfig(algorithm="obj_pert", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), seed=1)
        monkeypatch.setattr(solvers, "OBJPERT_INNER_TOL", 1e-30)
        message = (r"objective-perturbation inner solve stopped "
                   r"at gap \d\.\d+e[-+]\d+ after \d+ iterations")
        with pytest.warns(UserWarning, match=message) as caught:
            rep = run_solver(cfg, data)
        # The warning names the caller of ``run_solver``, not the library.
        assert [w.filename for w in caught] == [__file__]
        assert rep.extras["inner_converged"] is False
        assert 0.0 < rep.extras["inner_gap"] <= 1e-8
        assert rep.iterations > 0 and rep.feasible

    def test_huber_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            SolverConfig(algorithm="obj_pert", body=L1Ball(1.0, 12),
                         loss=Huber(0.5), budget=NON_PRIVATE)

    def test_zeta_pulls_toward_center(self, small_lasso):
        # Same seed => same linear perturbation b; declared lambda_max scans
        # zeta while sigma stays fixed, so the pull toward the center must be
        # monotone in zeta.
        body = L2Ball(1.0, 12)
        theta0 = body.canonical_point()
        dists = []
        for lam_max in [0.0, 1.0, 4.0, 16.0, 64.0]:
            loss = CustomLoss(
                row_loss, row_grad,
                constants={"l1_lipschitz": 2.0, "l2_lipschitz": 4.0,
                           "curvature": 4.0, "lambda_min": 0.0,
                           "lambda_max": lam_max})
            cfg = SolverConfig(algorithm="obj_pert", body=body, loss=loss,
                               budget=PrivacyBudget(1.0, 1e-6), seed=5)
            rep = run_solver(cfg, small_lasso)
            dists.append(float(np.linalg.norm(rep.theta_priv - theta0)))
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-7

    def test_risk_scales_linearly_with_sigma(self):
        # Linear-in-sigma response needs the constraint active: plant the
        # unconstrained optimum outside the ball so the perturbed minimizer
        # moves along the boundary.  Hold zeta = 0 (declared lambda_max = 0)
        # and scan sigma through epsilon.
        gen = np.random.default_rng(7)
        X = gen.uniform(-1.0, 1.0, size=(400, 12))
        theta_far = np.full(12, 3.0 / math.sqrt(12))
        data = Dataset(X=X, y=X @ theta_far)
        body = L2Ball(1.0, 12)
        loss = CustomLoss(
            row_loss, row_grad,
            constants={"l1_lipschitz": 8.0, "l2_lipschitz": 16.0, "curvature": 16.0,
                       "lambda_min": 0.0, "lambda_max": 0.0})
        oracle = solve_exact(body, loss, data)
        assert np.linalg.norm(oracle.theta_star) == pytest.approx(1.0, abs=1e-6)
        ratios = []
        for eps in [1.0, 0.5, 0.25]:
            risks = []
            sigma = None
            for s in range(50):
                cfg = SolverConfig(algorithm="obj_pert", body=body, loss=loss,
                                   budget=PrivacyBudget(eps, 1e-6), seed=s)
                rep = run_solver(cfg, data)
                sigma = rep.noise_plan.sigma
                risks.append(excess_risk(rep.theta_priv, oracle, loss, data))
            ratios.append(np.mean(risks) / sigma)
        assert max(ratios) <= 3.0 * min(ratios)


class TestFwPolytope:
    def test_t_equals_one_returns_start(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=1, seed=0)
        rep = run_solver(cfg, small_lasso)
        assert np.array_equal(rep.theta_priv, np.zeros(12))

    def test_zero_noise_matches_classical_fw_bitwise(self, small_lasso):
        body = L1Ball(1.0, 12)
        T = 60
        cfg = SolverConfig(algorithm="fw_polytope", body=body, loss=SQ,
                           budget=NON_PRIVATE, T=T, seed=2)
        rep = run_solver(cfg, small_lasso)
        ref = reference_fw(body, SQ, small_lasso, T, lambda t: 2.0 / (t + 2.0))
        assert np.array_equal(rep.theta_priv, ref)

    def test_weight_ledger_is_convex_combination(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=40, seed=6)
        rep = run_solver(cfg, small_lasso)
        weights = rep.extras["vertex_weights"]
        vals = np.array(list(weights.values()))
        assert vals.min() >= 0.0
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)
        assert rep.extras["support_size"] <= 40 + 1
        # Reconstruct theta from the ledger.
        V = vertex_list(L1Ball(1.0, 12))
        theta = sum(w * (np.zeros(12) if k == "start" else V[int(k)])
                    for k, w in weights.items())
        assert np.abs(theta - rep.theta_priv).max() <= 1e-12

    def test_start_weight_decays_as_the_classical_rule(self, small_lasso):
        # prod_{t<T} (1 - 2/(t+2)) = 2/(T(T+1)): the start point fades.
        T = 40
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=T, seed=6)
        start = run_solver(cfg, small_lasso).extras["vertex_weights"]["start"]
        assert start == pytest.approx(2.0 / (T * (T + 1)), rel=1e-12)

    def test_monotone_gap_zero_noise(self, small_lasso):
        body = L1Ball(1.0, 12)
        cfg = SolverConfig(algorithm="fw_polytope", body=body, loss=SQ,
                           budget=NON_PRIVATE, T=50, seed=0)
        iterates, _ = drive(cfg, small_lasso)
        for theta in iterates:
            g = SQ.grad(theta, small_lasso)
            gap = float(g @ (np.asarray(theta) - body.lmo(g)))
            assert gap >= -1e-12

    def test_iterates_feasible(self, small_lasso):
        body = Simplex(12)
        cfg = SolverConfig(algorithm="fw_polytope", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=30, seed=1)
        iterates, _ = drive(cfg, small_lasso)
        assert all(body.contains(t) for t in iterates)

    def test_requires_vertex_enumerable_body(self, small_lasso):
        with pytest.raises(ValueError, match="vertex-enumerable"):
            SolverConfig(algorithm="fw_polytope", body=L2Ball(1.0, 12), loss=SQ,
                         budget=NON_PRIVATE, T=5)

    @pytest.mark.parametrize("body", [L1Ball(1.0, 3000), Simplex(3000)], ids=["l1", "simplex"])
    def test_no_dense_vertex_list_at_large_p(self, body):
        # A (k, p) vertex list would be 72 MB (simplex) or 144 MB (l1 ball)
        # here, 30 to 60 times the data; a run and its curvature bound hold
        # O(n p + k) memory.
        data = generate_lasso(n=100, p=3000, sparsity=5, noise_level=0.1, seed=5)
        tracemalloc.start()
        try:
            cfg = SolverConfig(algorithm="fw_polytope", body=body, loss=SQ,
                               budget=PrivacyBudget(1.0, 1e-6), T=5, seed=0)
            run_solver(cfg, data)
            SQ.curvature_bound(body, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * data.X.nbytes

    def test_reproducible(self, small_lasso):
        def once():
            cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12),
                               loss=SQ, budget=PrivacyBudget(1.0, 1e-6), T=25,
                               seed=123)
            return run_solver(cfg, small_lasso).theta_priv

        assert np.array_equal(once(), once())


class TestFwGeneral:
    def test_zero_noise_equals_polytope_path_on_l1_ball(self, small_lasso):
        body = L1Ball(1.0, 12)
        kw = dict(body=body, loss=SQ, budget=NON_PRIVATE, T=45, seed=11)
        a = run_solver(SolverConfig(algorithm="fw_general", **kw), small_lasso)
        b = run_solver(SolverConfig(algorithm="fw_polytope", **kw), small_lasso)
        assert np.array_equal(a.theta_priv, b.theta_priv)

    def test_noisy_lmo_on_l2_ball_closed_form(self, small_lasso):
        from dperm.privacy import sample_gaussian_vec, spawn_rng

        body = L2Ball(1.0, 12)
        cfg = SolverConfig(algorithm="fw_general", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=2, seed=42)
        run = resolve_defaults(cfg, small_lasso)
        iterates, _ = drive(cfg, small_lasso, run)
        run_sigma = run.plan.sigma
        rng = spawn_rng(42, 0)
        g = SQ.grad(body.canonical_point(), small_lasso) + sample_gaussian_vec(12, run_sigma, rng)
        expected_target = -g / np.linalg.norm(g)
        mu = 2.0 / (1 + 2.0)  # mu_1
        expected = mu * expected_target
        assert np.allclose(iterates[1], expected, atol=1e-12)

    def test_sigma_matches_independent_formula(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_general", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=128, seed=0)
        run = resolve_defaults(cfg, small_lasso)
        L2 = SQ.lipschitz_constants(L1Ball(1.0, 12), small_lasso)[1]
        n = small_lasso.n
        manual = math.sqrt(32.0 * L2 * 128) * math.log(n / 1e-6) / n
        assert run.plan.sigma == pytest.approx(manual, rel=1e-12)

    def test_runs_on_asymmetric_box(self, small_lasso):
        body = Box(lo=np.full(12, -0.1), hi=np.linspace(0.2, 1.0, 12))
        cfg = SolverConfig(algorithm="fw_general", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), t_cap=50, seed=0)
        rep = run_solver(cfg, small_lasso)
        assert rep.feasible and rep.iterations == 50
        gamma = SQ.curvature_bound(body, small_lasso)
        assert gamma >= curvature_empirical(SQ, body, small_lasso, trials=500, seed=2)

    def test_runs_on_grouped_ball(self, small_lasso):
        from dperm.geometry import GroupedL1Ball

        cfg = SolverConfig(algorithm="fw_general", body=GroupedL1Ball(1.0, 3, 12),
                           loss=SQ, budget=PrivacyBudget(1.0, 1e-6), T=20, seed=0)
        rep = run_solver(cfg, small_lasso)
        assert rep.feasible


class TestFwStepRule:
    @pytest.fixture(scope="class")
    def lasso_p50(self):
        return generate_lasso(n=2000, p=50, sparsity=5, noise_level=0.1, seed=11)

    @pytest.mark.parametrize("algorithm", ["fw_polytope", "fw_general"])
    def test_non_private_meets_the_classical_bound(self, lasso_p50, algorithm):
        # mu_t = 2/(t+2) gives f(theta_T) - f* <= 2 Gamma/(T+2), about 7e-4
        # here; a constant weight 1/(T+2) stalls near 2.5e-3 at any T.
        body, T = L1Ball(1.0, 50), 4000
        cfg = SolverConfig(algorithm=algorithm, body=body, loss=SQ, budget=NON_PRIVATE, T=T)
        rep = run_solver(cfg, lasso_p50)
        risk = excess_risk(rep.theta_priv, cached_solve(body, SQ, lasso_p50), SQ, lasso_p50)
        assert risk <= 2.0 * SQ.curvature_bound(body, lasso_p50) / (T + 2.0)


def config_for(algorithm: str, budget=PrivacyBudget(1.0, 1e-6), **kw) -> SolverConfig:
    """A config of ``algorithm`` on the 12-dimensional l1 ball, with the
    ridge loss on the l2 ball for ``strongly_convex_md``; private unless
    ``budget`` says otherwise."""
    body, loss = L1Ball(1.0, 12), SQ
    if algorithm == "strongly_convex_md":
        body = L2Ball(1.0, 12)
        loss = SquaredError(ridge=0.5)
    potential = SquaredL2() if algorithm.endswith("_md") else None
    return SolverConfig(algorithm=algorithm, body=body, loss=loss,
                        budget=budget, potential=potential, **kw)


class TestReferenceCalibration:
    """Each algorithm's T, noise scales and steps against the displays in
    ``tests/reference.py``."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate_lasso(n=3000, p=12, sparsity=3, noise_level=0.1, seed=31)

    @pytest.mark.parametrize("budget", [PrivacyBudget(1.0, 1e-6), NON_PRIVATE],
                             ids=["private", "non_private"])
    @pytest.mark.parametrize("T", [0, 17], ids=["default_T", "user_T"])
    @pytest.mark.parametrize("algorithm", solvers.ALGORITHMS)
    def test_resolve_defaults_matches_reference(self, data, algorithm, T, budget):
        # obj_pert takes no T or t_cap: its user_T case runs the default.
        # A given T takes no t_cap: the default_T case runs under a cap.
        kw = {} if algorithm == "obj_pert" else {"T": T} if T else {"t_cap": 5000}
        cfg = config_for(algorithm, budget=budget, **kw)
        run = resolve_defaults(cfg, data)
        ref = reference_plan(cfg, data)
        assert run.plan.steps == ref["T"]
        for scale in ("sigma", "laplace_scale", "zeta"):
            assert getattr(run.plan, scale) == pytest.approx(ref[scale], rel=1e-12)
        steps = ref["eta"] or ref["mu"]
        if steps is None:
            assert run.step is None
        else:
            assert [run.step(t) for t in (1, 2, 5)] == pytest.approx(steps, rel=1e-12)


class TestReportAndConfig:
    @pytest.mark.parametrize("algorithm", ["fw_polytope", "fw_general", "noisy_md",
                                           "strongly_convex_md", "obj_pert"])
    def test_report_serializes(self, small_lasso, algorithm):
        rep = run_solver(config_for(algorithm, T=0 if algorithm == "obj_pert" else 10, seed=0),
                         small_lasso)
        doc = rep.to_dict()
        assert doc["algorithm"] == algorithm
        scale = "laplace_scale" if algorithm == "fw_polytope" else "sigma"
        assert doc["noise_plan"][scale] > 0
        assert isinstance(doc["noise_plan"]["trace"], list) and doc["noise_plan"]["trace"]
        assert json.loads(json.dumps(doc)) == doc

    def test_config_from_dict(self):
        doc = {
            "algorithm": "noisy_md",
            "body": {"kind": "simplex", "dimension": 4},
            "loss": {"kind": "squared_error"},
            "potential": {"kind": "negative_entropy"},
            "budget": {"epsilon": 1.0, "delta": 1e-6},
            "T": 12,
            "seed": 3,
        }
        cfg = SolverConfig.from_dict(doc)
        assert cfg.algorithm == "noisy_md" and cfg.T == 12
        assert isinstance(cfg.potential, NegativeEntropy)

    @pytest.mark.parametrize("key,value", [
        ("T", 2.9), ("T", 3.0), ("T", True), ("seed", 1.5), ("t_cap", "48"),
    ])
    def test_from_dict_rejects_a_count_that_is_not_an_integer(self, key, value):
        doc = {"algorithm": "fw_polytope", "body": {"kind": "simplex", "dimension": 4},
               "loss": {"kind": "squared_error"}, "budget": {"epsilon": 1.0}, key: value}
        with pytest.raises(ValueError, match=f"solver config '{key}' must be an integer"):
            SolverConfig.from_dict(doc)

    def test_negative_seed_is_refused(self):
        # When the config is built, not by the noise generator in every cell.
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            config_for("fw_polytope", seed=-1)

    def test_q_body_is_built_once_per_config(self, small_lasso, monkeypatch):
        # The config builds the potential's body and the calibration reads it.
        calls = []
        natural_q = PolytopeQNorm.natural_q

        def counting(self, body):
            calls.append(body)
            return natural_q(self, body)

        monkeypatch.setattr(PolytopeQNorm, "natural_q", counting)
        cfg = SolverConfig(algorithm="noisy_md", body=CROSS_12, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), potential=PolytopeQNorm(), T=5)
        resolve_defaults(cfg, small_lasso)
        assert calls == [CROSS_12]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            SolverConfig(algorithm="sgd", body=L1Ball(1.0, 2), loss=SQ,
                         budget=NON_PRIVATE)

    def test_grouped_group_size_must_be_the_balls(self):
        doc = {"algorithm": "noisy_md",
               "body": {"kind": "grouped_l1_ball", "radius": 1.0, "group_size": 4,
                        "dimension": 12},
               "loss": {"kind": "squared_error"}, "budget": {"epsilon": 1.0},
               "potential": {"kind": "grouped_l1", "group_size": 3}}
        with pytest.raises(ValueError, match=re.escape(
                "grouped_l1 potential 'group_size' must equal the grouped-l1 ball's "
                "group_size 4, got 3")):
            SolverConfig.from_dict(doc)
        doc["potential"]["group_size"] = 4
        assert isinstance(SolverConfig.from_dict(doc).potential, GroupedL1)

    @pytest.mark.parametrize("algorithm", ["obj_pert", "fw_polytope", "fw_general"])
    @pytest.mark.parametrize("potential", [{"kind": "squared_l2"},
                                           {"kind": "negative_entropy"}])
    def test_potential_refused_off_mirror_descent(self, algorithm, potential):
        # Refused, not dropped, whether or not the potential fits the body.
        body = L1Ball(1.0, 8)
        message = f"{algorithm} takes no potential"
        with pytest.raises(ValueError, match=message):
            SolverConfig(algorithm=algorithm, body=body, loss=SQ, budget=NON_PRIVATE,
                         potential=potential_from_dict(potential, body), T=4)
        doc = {"algorithm": algorithm, "body": body.to_dict(),
               "loss": {"kind": "squared_error"}, "budget": {"epsilon": 1.0},
               "potential": potential}
        with pytest.raises(ValueError, match=message):
            SolverConfig.from_dict(doc)

    @pytest.mark.parametrize("t_cap", [0, -3])
    def test_t_cap_must_be_positive(self, t_cap):
        with pytest.raises(ValueError, match=f"t_cap must be >= 1, got {t_cap}"):
            config_for("fw_general", t_cap=t_cap)
        doc = {"algorithm": "fw_general", "body": {"kind": "simplex", "dimension": 4},
               "loss": {"kind": "squared_error"}, "budget": {"epsilon": 1.0},
               "t_cap": t_cap}
        with pytest.raises(ValueError, match=f"t_cap must be >= 1, got {t_cap}"):
            SolverConfig.from_dict(doc)

    def test_md_requires_potential(self):
        with pytest.raises(ValueError, match="potential"):
            SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 2), loss=SQ,
                         budget=NON_PRIVATE)

    def test_obj_pert_refuses_a_t_cap(self):
        # Its one minimization never read the cap: t_cap = 3 ran as the default.
        with pytest.raises(ValueError, match="obj_pert takes no t_cap"):
            config_for("obj_pert", t_cap=3)

    def test_obj_pert_refuses_a_t_cap_of_the_default_value(self):
        # The default cap was told from a given one by its value alone, so
        # a given 10**6 was accepted.
        with pytest.raises(ValueError, match="obj_pert takes no t_cap"):
            config_for("obj_pert", t_cap=10 ** 6)

    @pytest.mark.parametrize("algorithm", ["fw_polytope", "fw_general", "noisy_md"])
    def test_t_cap_next_to_a_T_is_refused(self, algorithm):
        # A given T ran verbatim: T = 50 with t_cap = 10 ran 50 steps.
        message = "t_cap caps the default step count; it does not apply to the given T = 50"
        with pytest.raises(ValueError, match=re.escape(message)):
            config_for(algorithm, T=50, t_cap=10)
        doc = {"algorithm": algorithm, "body": L1Ball(1.0, 4).to_dict(),
               "loss": {"kind": "squared_error"}, "budget": {"epsilon": 1.0},
               "T": 50, "t_cap": 10}
        if algorithm == "noisy_md":
            doc["potential"] = {"kind": "squared_l2"}
        with pytest.raises(ValueError, match=re.escape(message)):
            SolverConfig.from_dict(doc)

    def test_default_cap_is_a_million_steps(self, small_lasso):
        run = resolve_defaults(config_for("fw_general", budget=NON_PRIVATE), small_lasso)
        assert run.plan.steps == 10 ** 6
        assert "T formula diverges in non-private mode; capped at 1000000" in run.plan.trace

    def test_obj_pert_refuses_a_T(self):
        # Its one minimization never read T: T = 500 ran as plan.steps = 1.
        with pytest.raises(ValueError, match="obj_pert takes no T"):
            SolverConfig.from_dict({"algorithm": "obj_pert", "body": L1Ball(1.0, 2).to_dict(),
                                    "loss": {"kind": "squared_error"},
                                    "budget": {"epsilon": 1.0}, "T": 500, "t_cap": 3})

    def test_run_solver_dispatch(self, small_lasso):
        cfg = SolverConfig(algorithm="obj_pert", body=L1Ball(1.0, 12), loss=SQ,
                           budget=NON_PRIVATE, seed=0)
        rep = run_solver(cfg, small_lasso)
        assert rep.algorithm == "obj_pert"

    @pytest.mark.parametrize("algorithm", solvers.ALGORITHMS)
    def test_record_iterates_keeps_the_step_iterates(self, small_lasso, algorithm):
        # The loops yield their iterates; the report keeps none of them.
        cfg = config_for(algorithm, T=0 if algorithm == "obj_pert" else 7, seed=2)
        iterates, (theta, iterations, _) = drive(cfg, small_lasso)
        assert "iterates" not in run_solver(cfg, small_lasso).extras
        if algorithm == "obj_pert":
            assert len(iterates) == 1 and iterates[0] is theta
        else:
            assert iterations == 7 and len(iterates) == 7
            assert all(cfg.body.contains(theta) for theta in iterates)


class TestBlockNoise:
    """The step loops draw their noise in blocks and keep the vertex ledger
    in an array, with the same bits as per-step draws and a dict."""

    @pytest.mark.parametrize("algorithm", ["noisy_md", "fw_general", "fw_polytope"])
    @pytest.mark.parametrize("budget", [PrivacyBudget(1.0, 1e-6), NON_PRIVATE],
                             ids=["private", "non_private"])
    @pytest.mark.parametrize("block_bytes", [None, 500], ids=["1MiB", "500B"])
    def test_matches_per_step_reference(self, small_lasso, monkeypatch, algorithm, budget,
                                        block_bytes):
        # 500 bytes hold 5 Gaussian rows (p = 12) or 2 Laplace rows (24
        # vertices), so 22 steps cross several blocks and end in a short one.
        if block_bytes is not None:
            monkeypatch.setattr(geometry, "NOISE_BLOCK_BYTES", block_bytes)
        potential = SquaredL2() if algorithm == "noisy_md" else None
        for seed in (0, 1, 2):
            cfg = SolverConfig(algorithm=algorithm, body=L1Ball(1.0, 12), loss=SQ,
                               budget=budget, potential=potential, T=23, seed=seed)
            got, (theta_priv, _, extras) = drive(cfg, small_lasso)
            theta, iterates, weights = reference_step_loop(cfg, small_lasso)
            assert np.array_equal(theta_priv, theta)
            assert np.array_equal(run_solver(cfg, small_lasso).theta_priv, theta)
            assert len(got) == len(iterates) == 23
            assert all(np.array_equal(a, b) for a, b in zip(got, iterates))
            if algorithm == "fw_polytope":
                ledger = extras["vertex_weights"]
                assert ledger == weights and list(ledger) == list(weights)
                assert extras["support_size"] == sum(1 for v in weights.values() if v > 0)


CROSS_12 = Polytope(np.vstack([np.eye(12), -np.eye(12)]))


class TestOneCoordinateStep:
    """Both Frank-Wolfe loops step one coordinate of their state and keep the
    vertex ledger in it, with the bits of ``reference.dense_frank_wolfe``:
    dense vertices and a ledger replayed after the loop."""

    @pytest.mark.parametrize("body", [L1Ball(1.0, 12), Simplex(12), CROSS_12, HALF_CROSS_12],
                             ids=["l1", "simplex", "cross", "half_cross"])
    @pytest.mark.parametrize("algorithm", ["fw_polytope", "fw_general"])
    @pytest.mark.parametrize("budget", [PrivacyBudget(1.0, 1e-6), NON_PRIVATE],
                             ids=["private", "non_private"])
    def test_matches_the_dense_loop(self, small_lasso, body, algorithm, budget):
        cfg = SolverConfig(algorithm=algorithm, body=body, loss=SQ, budget=budget, T=40, seed=4)
        run = resolve_defaults(cfg, small_lasso)
        got, (x, iterations, extras) = drive(cfg, small_lasso, run)
        want, (x_ref, _, extras_ref) = collect(dense_frank_wolfe(
            cfg, small_lasso, run, spawn_rng(cfg.seed, solvers._STREAM_NOISE)))
        assert np.array_equal(x, x_ref) and iterations == 40
        assert len(got) == len(want) == 40
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert extras == extras_ref
        assert list(extras.get("vertex_weights", {})) == list(extras_ref.get("vertex_weights", {}))
        assert ("vertex_weights" in extras) == (algorithm == "fw_polytope")
        point_of = body.iterate_space()[1]
        assert np.array_equal(run_solver(cfg, small_lasso).theta_priv, point_of(x_ref))

    @pytest.mark.parametrize("body", [L1Ball(1.0, 12), CROSS_12], ids=["l1", "cross"])
    def test_fw_general_refuses_a_non_finite_direction(self, small_lasso, monkeypatch, body):
        monkeypatch.setattr(solvers, "sample_gaussian_vec",
                            lambda shape, sigma, rng: np.full(shape, np.nan))
        cfg = SolverConfig(algorithm="fw_general", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=5, seed=0)
        with pytest.raises(ValueError, match="direction must be finite"):
            run_solver(cfg, small_lasso)


class TestDotDispatch:
    """The loops take their dense products with ``ndarray.dot``, not ``@``;
    both must make the same bits on the loops' shapes, on every numpy the
    package supports."""

    @pytest.mark.parametrize("p", [1, 3, 12, 50, 129])
    def test_dot_and_matmul_agree_bitwise(self, p):
        rng = np.random.default_rng(p)
        X = rng.standard_normal((3 * p, p))
        G = X.T @ X / (3 * p)  # a Gram matrix, C-ordered and symmetric
        theta, g = rng.standard_normal(p), rng.standard_normal(p)
        V = rng.standard_normal((2 * p + 1, p))  # a vertex list
        a = rng.dirichlet(np.ones(2 * p + 1))  # its coefficients
        state = rng.standard_normal(p + 2 * p + 2)
        pairs = [
            (G.dot(theta), G @ theta),
            (G.dot(state[:p]), G @ state[:p]),  # the iterate part of a longer state
            (V.dot(g), V @ g),
            (V.T.dot(a), V.T @ a),
            (V.T.dot(state[:2 * p + 1]), V.T @ state[:2 * p + 1]),
            (theta.dot(g), theta @ g),
            (state[:p].dot(g), state[:p] @ g),
            (theta.dot(G.dot(theta)), theta @ (G @ theta)),
        ]
        for dot, matmul in pairs:
            assert np.asarray(dot).tobytes() == np.asarray(matmul).tobytes()


class TestYieldedIterates:
    """The loops yield their iterates without copying them, so no later
    step may write into one."""

    @pytest.mark.parametrize("algorithm,body,potential", [
        ("noisy_md", L1Ball(1.0, 12), SquaredL2()),
        ("noisy_md", Simplex(12), NegativeEntropy()),
        ("noisy_md", CROSS_12, PolytopeQNorm()),
        ("fw_polytope", L1Ball(1.0, 12), None),
        ("fw_general", L1Ball(1.0, 12), None),
    ], ids=["md-squared_l2", "md-entropy", "md-q_norm", "fw_polytope", "fw_general"])
    def test_no_step_writes_into_a_yielded_iterate(self, small_lasso, algorithm, body,
                                                   potential):
        cfg = SolverConfig(algorithm=algorithm, body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), potential=potential, T=30, seed=5)
        kept = [(theta, theta.copy()) for theta in step_loop(cfg, small_lasso)]
        assert len(kept) == 30
        assert all(np.array_equal(theta, copy) for theta, copy in kept)


class TestStatisticsBoundOncePerRun:
    """A step loop reads the dataset's statistics when it binds the
    gradient, not on every step."""

    @pytest.mark.parametrize("algorithm", ["fw_polytope", "fw_general", "noisy_md"])
    def test_gram_and_memo_reached_at_most_once(self, small_lasso, monkeypatch, algorithm):
        potential = SquaredL2() if algorithm == "noisy_md" else None
        cfg = SolverConfig(algorithm=algorithm, body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), potential=potential, T=40, seed=3)
        run = resolve_defaults(cfg, small_lasso)
        calls = {"gram": 0, "memo": 0}
        gram, memo = Dataset.gram, Dataset._memo

        def counting_gram(self):
            calls["gram"] += 1
            return gram(self)

        def counting_memo(self, key, compute):
            calls["memo"] += 1
            return memo(self, key, compute)

        monkeypatch.setattr(Dataset, "gram", counting_gram)
        monkeypatch.setattr(Dataset, "_memo", counting_memo)
        _, (theta, iterations, _) = drive(cfg, small_lasso, run)
        assert iterations == 40
        assert calls["gram"] <= 1 and calls["memo"] <= 1, calls
        assert np.array_equal(theta, run_solver(cfg, small_lasso).theta_priv)


class TestPolytopeCertificate:
    """Every loop on a polytope returns its vertex coefficients a on the
    coefficient simplex; ``run_solver`` reports theta = V^T a and checks a
    there, in O(k), and no run solves ``Polytope.contains``'s linear
    program."""

    BODY = HALF_CROSS_12
    RUNS = {
        "noisy_md": {"potential": PolytopeQNorm(), "T": 30},
        "fw_polytope": {"T": 30},
        "fw_general": {"T": 30},
        "obj_pert": {},
    }

    def config(self, algorithm: str) -> SolverConfig:
        return SolverConfig(algorithm=algorithm, body=self.BODY, loss=SQ,
                            budget=PrivacyBudget(1.0, 1e-6), seed=2, **self.RUNS[algorithm])

    @pytest.fixture
    def linprog_calls(self, monkeypatch):
        import scipy.optimize

        calls, linprog = [], scipy.optimize.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting)
        return calls

    @pytest.mark.parametrize("algorithm", sorted(RUNS))
    def test_feasible_without_a_linear_program(self, small_lasso, linprog_calls, algorithm):
        report = run_solver(self.config(algorithm), small_lasso)
        assert linprog_calls == []
        assert report.feasible is True
        assert self.BODY.contains(report.theta_priv) is True
        assert len(linprog_calls) == 1  # the counter sees the program

    @pytest.mark.parametrize("algorithm", sorted(RUNS))
    def test_coefficients_give_the_output(self, small_lasso, algorithm):
        a = drive(self.config(algorithm), small_lasso)[1][0]
        theta = run_solver(self.config(algorithm), small_lasso).theta_priv
        assert Simplex(self.BODY.n_vertices).contains(a)
        assert np.array_equal(self.BODY.vertex_array.T @ a, theta)

    @pytest.mark.parametrize("algorithm", sorted(RUNS))
    def test_coefficients_off_the_simplex_read_infeasible(self, small_lasso, monkeypatch,
                                                          algorithm):
        calibrate, loop = solvers._TABLE[algorithm]

        def pushed(*args):
            a, iterations, extras = yield from loop(*args)
            return a + 1e-6, iterations, extras  # sums to 1 + 2.4e-5

        monkeypatch.setitem(solvers._TABLE, algorithm, (calibrate, pushed))
        assert run_solver(self.config(algorithm), small_lasso).feasible is False
