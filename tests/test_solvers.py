import math
import warnings

import numpy as np
import pytest

import dperm.solvers as solvers
from dperm.geometry import Box, L1Ball, L2Ball, Polytope, Simplex
from dperm.harness import generate_lasso
from dperm.losses import CustomLoss, Dataset, Huber, SquaredError
from dperm.oracle import cached_solve, excess_risk, solve_exact
from dperm.potentials import NegativeEntropy, PolytopeQNorm, SquaredL2
from dperm.privacy import PrivacyBudget, sample_gaussian_vec, sample_laplace, spawn_rng
from dperm.solvers import (
    SolverConfig,
    resolve_defaults,
    run_solver,
    sc_step_schedule,
)

NON_PRIVATE = PrivacyBudget.non_private()
SQ = SquaredError()


@pytest.fixture(scope="module")
def small_lasso():
    return generate_lasso(n=400, p=12, sparsity=3, noise_level=0.1, seed=31)


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
    per step and the vertex ledger kept in a dict.

    Returns (theta, iterates, vertex_weights); the weights are None except
    for fw_polytope.
    """
    run = resolve_defaults(cfg, data)
    rng = spawn_rng(cfg.seed, solvers._STREAM_NOISE)
    p = cfg.body.dimension
    if cfg.algorithm == "noisy_md":
        pot = cfg.potential
        it_body = pot.iterate_body(cfg.body)
        x = it_body.canonical_point()
        acc = x.copy()
        iterates = [pot.to_point(x)]
        for t in range(1, run.T):
            g = cfg.loss.grad(pot.to_point(x), data) + sample_gaussian_vec(p, run.plan.sigma, rng)
            x = pot.mirror_step(it_body, x, pot.pull_back(g), run.eta(t + 1))
            acc += x
            iterates.append(pot.to_point(x))
        return pot.to_point(acc / run.T), iterates, None

    V = cfg.body.vertices() if cfg.algorithm == "fw_polytope" else None
    theta = cfg.body.canonical_point()
    iterates = [theta.copy()]
    weights = {"start": 1.0}
    for t in range(1, run.T):
        g = cfg.loss.grad(theta, data)
        mu = run.mu(t)
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


class TestResolveDefaults:
    def test_fw_polytope_step_count_example(self):
        # Gamma = 4, L1 ||C||_1 = 2, n eps = 1e4 -> floor(2^(2/3) * 1e4^(2/3)) = 736.
        loss = CustomLoss(lambda t, x, y: 0.0, lambda t, x, y: np.zeros(2),
                          constants={"l1_lipschitz": 2.0, "l2_lipschitz": 5.0,
                                     "curvature": 4.0, "lambda_min": 0.0,
                                     "lambda_max": 1.0})
        data = Dataset(X=np.zeros((10 ** 4, 2)), y=np.zeros(10 ** 4))
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 2), loss=loss,
                           budget=PrivacyBudget(1.0, 1e-6))
        run = resolve_defaults(cfg, data)
        manual = math.floor(4.0 ** (2 / 3) * (10 ** 4) ** (2 / 3) / 2.0 ** (2 / 3))
        assert manual == 736
        assert run.T == 736

    def test_user_t_wins_verbatim(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=17)
        assert resolve_defaults(cfg, small_lasso).T == 17

    def test_non_private_caps_t_and_zeroes_noise(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=NON_PRIVATE, t_cap=500)
        run = resolve_defaults(cfg, small_lasso)
        assert run.T == 500
        assert run.plan.laplace_scale == 0.0
        cfg_md = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 12), loss=SQ,
                              budget=NON_PRIVATE, potential=SquaredL2(12), t_cap=300)
        run_md = resolve_defaults(cfg_md, small_lasso)
        assert run_md.T == 300 and run_md.plan.sigma == 0.0

    def test_seeds_of_one_config_resolve_the_same_t(self):
        # The width depends on the public body alone, so the default T and
        # the noise scale cannot move with the solver seed.
        data = generate_lasso(n=32_000, p=20, sparsity=3, noise_level=0.1, seed=5)
        for algorithm, potential in (("noisy_md", SquaredL2(20)), ("fw_general", None)):
            runs = [resolve_defaults(SolverConfig(
                algorithm=algorithm, body=L1Ball(1.0, 20), loss=SQ,
                budget=PrivacyBudget(1.0, 1e-6), potential=potential, seed=seed), data)
                for seed in range(8)]
            assert 1 < runs[0].T < 10 ** 6  # the formula, not the floor or the cap
            assert {run.T for run in runs} == {runs[0].T}
            assert {run.plan.sigma for run in runs} == {runs[0].plan.sigma}

    def test_degenerate_t_raises_with_advice(self):
        data = Dataset(X=np.ones((4, 2)), y=np.ones(4))
        cfg = SolverConfig(algorithm="noisy_md", body=L2Ball(1.0, 2), loss=SQ,
                           budget=PrivacyBudget(0.01, 1e-6), potential=SquaredL2(2))
        with pytest.raises(ValueError, match="increase n or epsilon"):
            resolve_defaults(cfg, data)

    def test_missing_custom_constants(self, small_lasso):
        loss = CustomLoss(lambda t, x, y: 0.0, lambda t, x, y: np.zeros(12),
                          constants={})
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=loss,
                           budget=PrivacyBudget(1.0, 1e-6))
        with pytest.raises(ValueError):
            resolve_defaults(cfg, small_lasso)

    def test_plan_trace_names_inputs(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=32)
        run = resolve_defaults(cfg, small_lasso)
        text = "\n".join(run.plan.trace)
        assert "L1" in text and "eps" in text and "laplace scale" in text

    def test_theorem_step_rule(self, small_lasso):
        cfg = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 12), loss=SQ,
                           budget=NON_PRIVATE, potential=SquaredL2(12), T=100,
                           step_rule="theorem")
        run = resolve_defaults(cfg, small_lasso)
        L2 = SQ.lipschitz_constants(L1Ball(1.0, 12), small_lasso)[1]
        assert run.eta(2) == pytest.approx(1.0 / (L2 * 2.0 * 10.0))


class TestNoisyMirrorDescent:
    def test_t_equals_one_returns_start(self, small_lasso):
        cfg = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), potential=SquaredL2(12),
                           T=1, seed=3)
        rep = run_solver(cfg, small_lasso)
        assert np.array_equal(rep.theta_priv, L1Ball(1.0, 12).canonical_point())

    def test_zero_noise_matches_reference_pgd_bitwise(self, small_lasso):
        body = L1Ball(1.0, 12)
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=NON_PRIVATE, potential=SquaredL2(12), T=50,
                           step_size=0.5, seed=9)
        rep = run_solver(cfg, small_lasso)
        ref = reference_pgd_averaged(body, SQ, small_lasso, 50, 0.5)
        assert np.array_equal(rep.theta_priv, ref)

    def test_zero_noise_entropy_matches_reference_bitwise(self, small_lasso):
        body = Simplex(12)
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=NON_PRIVATE, potential=NegativeEntropy(12), T=40,
                           step_size=0.3, seed=9)
        rep = run_solver(cfg, small_lasso)
        ref = reference_entropy_md_averaged(body, SQ, small_lasso, 40, 0.3)
        assert np.array_equal(rep.theta_priv, ref)

    def test_output_is_mean_of_iterates(self, small_lasso):
        cfg = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), potential=SquaredL2(12),
                           T=25, seed=4, record_iterates=True)
        rep = run_solver(cfg, small_lasso)
        iterates = np.array(rep.extras["iterates"])
        assert iterates.shape[0] == 25
        assert np.abs(np.mean(iterates, axis=0) - rep.theta_priv).max() <= 1e-12

    def test_every_iterate_feasible(self, small_lasso):
        body = Simplex(12)
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6),
                           potential=NegativeEntropy(12), T=30, seed=8,
                           record_iterates=True)
        rep = run_solver(cfg, small_lasso)
        for theta in rep.extras["iterates"]:
            assert body.contains(theta)
        assert rep.feasible

    def test_reproducible(self, small_lasso):
        def run_once():
            cfg = SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 12), loss=SQ,
                               budget=PrivacyBudget(1.0, 1e-6),
                               potential=SquaredL2(12), T=20, seed=77)
            return run_solver(cfg, small_lasso).theta_priv

        assert np.array_equal(run_once(), run_once())

    def test_coefficient_space_polytope_run(self, small_lasso):
        V = np.vstack([np.eye(12), -np.eye(12)])
        body = Polytope(V)
        pot = PolytopeQNorm(body)
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=NON_PRIVATE, potential=pot, T=30,
                           step_size=0.05, seed=1)
        rep = run_solver(cfg, small_lasso)
        assert rep.feasible
        start_risk = SQ.loss(body.canonical_point(), small_lasso)
        assert SQ.loss(rep.theta_priv, small_lasso) <= start_risk + 1e-12

    def test_qnorm_bound_to_another_polytope_rejected(self, small_lasso):
        # Same vertex count, other vertices: the coefficients would map
        # into the wrong polytope.
        V = np.vstack([np.eye(12), -np.eye(12)])
        cfg = SolverConfig(algorithm="noisy_md", body=Polytope(V), loss=SQ,
                           budget=NON_PRIVATE, potential=PolytopeQNorm(Polytope(2.0 * V)),
                           T=5, step_size=0.05, seed=1)
        with pytest.raises(ValueError, match="built for"):
            run_solver(cfg, small_lasso)

    def test_squared_l2_on_polytope_rejected(self, small_lasso):
        body = Polytope(np.vstack([np.eye(12), -np.eye(12)]))
        cfg = SolverConfig(algorithm="noisy_md", body=body, loss=SQ,
                           budget=NON_PRIVATE, potential=SquaredL2(12), T=5,
                           step_size=0.1)
        with pytest.raises((ValueError, NotImplementedError)):
            run_solver(cfg, small_lasso)


class TestStronglyConvexMd:
    def test_schedule_at_t_one(self):
        assert sc_step_schedule(0.8)(1) == pytest.approx(2.0 / 0.8)

    def test_doubling_delta_halves_steps(self):
        s1 = sc_step_schedule(0.4)
        s2 = sc_step_schedule(0.8)
        for t in [1, 5, 40]:
            assert s2(t) == pytest.approx(s1(t) / 2.0)

    def test_requires_strong_convexity(self, small_lasso):
        cfg = SolverConfig(algorithm="strongly_convex_md", body=L1Ball(1.0, 12),
                           loss=SQ, budget=NON_PRIVATE, potential=SquaredL2(12), T=5)
        with pytest.raises(ValueError, match="strong_convexity"):
            run_solver(cfg, small_lasso)

    def test_nonprivate_log_t_over_t_improvement(self, small_lasso):
        body = L2Ball(1.0, 12)
        loss = SquaredError(ridge=0.5)
        oracle = solve_exact(body, loss, small_lasso)
        risks = {}
        for T in [128, 512]:
            cfg = SolverConfig(algorithm="strongly_convex_md", body=body, loss=loss,
                               budget=NON_PRIVATE, potential=SquaredL2(12), T=T)
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
        with pytest.warns(UserWarning, match=r"objective-perturbation inner solve stopped "
                                             r"at gap \d\.\d+e[-+]\d+ after \d+ iterations"):
            rep = run_solver(cfg, data)
        assert rep.extras["inner_converged"] is False
        assert 0.0 < rep.extras["inner_gap"] <= 1e-8
        assert rep.iterations > 0 and rep.feasible

    def test_huber_rejected(self, small_lasso):
        cfg = SolverConfig(algorithm="obj_pert", body=L1Ball(1.0, 12),
                           loss=Huber(0.5), budget=NON_PRIVATE)
        with pytest.raises(ValueError, match="twice"):
            run_solver(cfg, small_lasso)

    def test_zeta_pulls_toward_center(self, small_lasso):
        # Same seed => same linear perturbation b; declared lambda_max scans
        # zeta while sigma stays fixed, so the pull toward the center must be
        # monotone in zeta.
        body = L2Ball(1.0, 12)
        theta0 = body.canonical_point()
        dists = []
        for lam_max in [0.0, 1.0, 4.0, 16.0, 64.0]:
            loss = CustomLoss(
                lambda t, x, y: 0.5 * (float(np.dot(x, t)) - y) ** 2,
                lambda t, x, y: (float(np.dot(x, t)) - y) * np.asarray(x, float),
                constants={"l1_lipschitz": 2.0, "l2_lipschitz": 4.0,
                           "curvature": 4.0, "lambda_min": 0.0,
                           "lambda_max": lam_max},
                loss_full=SQ._loss_full, grad_full=SQ._grad_full)
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
            lambda t, x, y: 0.5 * (float(np.dot(x, t)) - y) ** 2,
            lambda t, x, y: (float(np.dot(x, t)) - y) * np.asarray(x, float),
            constants={"l1_lipschitz": 8.0, "l2_lipschitz": 16.0, "curvature": 16.0,
                       "lambda_min": 0.0, "lambda_max": 0.0},
            loss_full=SQ._loss_full, grad_full=SQ._grad_full)
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

    @pytest.mark.parametrize("rule,mu_fn", [
        ("paper", lambda T: (lambda t: 1.0 / (T + 2.0))),
        ("decaying", lambda T: (lambda t: 2.0 / (t + 2.0))),
    ])
    def test_zero_noise_matches_classical_fw_bitwise(self, small_lasso, rule, mu_fn):
        body = L1Ball(1.0, 12)
        T = 60
        cfg = SolverConfig(algorithm="fw_polytope", body=body, loss=SQ,
                           budget=NON_PRIVATE, T=T, step_rule=rule, seed=2)
        rep = run_solver(cfg, small_lasso)
        ref = reference_fw(body, SQ, small_lasso, T, mu_fn(T))
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
        V = L1Ball(1.0, 12).vertices()
        theta = sum(w * (np.zeros(12) if k == "start" else V[int(k)])
                    for k, w in weights.items())
        assert np.abs(theta - rep.theta_priv).max() <= 1e-12

    def test_monotone_gap_zero_noise(self, small_lasso):
        body = L1Ball(1.0, 12)
        cfg = SolverConfig(algorithm="fw_polytope", body=body, loss=SQ,
                           budget=NON_PRIVATE, T=50, step_rule="decaying", seed=0,
                           record_iterates=True)
        rep = run_solver(cfg, small_lasso)
        for theta in rep.extras["iterates"]:
            g = SQ.grad(theta, small_lasso)
            gap = float(g @ (np.asarray(theta) - body.lmo(g)))
            assert gap >= -1e-12

    def test_iterates_feasible(self, small_lasso):
        body = Simplex(12)
        cfg = SolverConfig(algorithm="fw_polytope", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=30, seed=1,
                           record_iterates=True)
        rep = run_solver(cfg, small_lasso)
        assert all(body.contains(t) for t in rep.extras["iterates"])

    def test_requires_vertex_enumerable_body(self, small_lasso):
        with pytest.raises(ValueError, match="vertex-enumerable"):
            SolverConfig(algorithm="fw_polytope", body=L2Ball(1.0, 12), loss=SQ,
                         budget=NON_PRIVATE, T=5)

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
        kw = dict(body=body, loss=SQ, budget=NON_PRIVATE, T=45,
                  step_rule="decaying", seed=11)
        a = run_solver(SolverConfig(algorithm="fw_general", **kw), small_lasso)
        b = run_solver(SolverConfig(algorithm="fw_polytope", **kw), small_lasso)
        assert np.array_equal(a.theta_priv, b.theta_priv)

    def test_noisy_lmo_on_l2_ball_closed_form(self, small_lasso):
        from dperm.privacy import sample_gaussian_vec, spawn_rng

        body = L2Ball(1.0, 12)
        cfg = SolverConfig(algorithm="fw_general", body=body, loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=2, seed=42,
                           record_iterates=True)
        rep = run_solver(cfg, small_lasso)
        run_sigma = rep.noise_plan.sigma
        rng = spawn_rng(42, 0)
        g = SQ.grad(body.canonical_point(), small_lasso) + sample_gaussian_vec(12, run_sigma, rng)
        expected_target = -g / np.linalg.norm(g)
        mu = 1.0 / (2 + 2.0)
        expected = mu * expected_target
        assert np.allclose(rep.extras["iterates"][1], expected, atol=1e-12)

    def test_sigma_matches_independent_formula(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_general", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=128, seed=0)
        run = resolve_defaults(cfg, small_lasso)
        L2 = SQ.lipschitz_constants(L1Ball(1.0, 12), small_lasso)[1]
        n = small_lasso.n
        manual = math.sqrt(32.0 * L2 * 128) * math.log(n / 1e-6) / n
        assert run.plan.sigma == pytest.approx(manual, rel=1e-12)

    def test_runs_on_grouped_ball(self, small_lasso):
        from dperm.geometry import GroupedL1Ball

        cfg = SolverConfig(algorithm="fw_general", body=GroupedL1Ball(1.0, 3, 12),
                           loss=SQ, budget=PrivacyBudget(1.0, 1e-6), T=20, seed=0)
        rep = run_solver(cfg, small_lasso)
        assert rep.feasible


class TestReportAndConfig:
    def test_report_serializes(self, small_lasso):
        cfg = SolverConfig(algorithm="fw_polytope", body=L1Ball(1.0, 12), loss=SQ,
                           budget=PrivacyBudget(1.0, 1e-6), T=10, seed=0)
        rep = run_solver(cfg, small_lasso)
        doc = rep.to_dict()
        assert doc["algorithm"] == "fw_polytope"
        assert doc["noise_plan"]["laplace_scale"] > 0
        assert isinstance(doc["noise_plan"]["trace"], list) and doc["noise_plan"]["trace"]

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

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            SolverConfig(algorithm="sgd", body=L1Ball(1.0, 2), loss=SQ,
                         budget=NON_PRIVATE)

    @pytest.mark.parametrize("algorithm,setting,message", [
        ("noisy_md", {"step_rule": "decaing"}, "unknown step_rule 'decaing'"),
        ("fw_polytope", {"step_rule": "theorem"},
         "step_rule 'theorem' applies only to noisy_md, not fw_polytope"),
        ("strongly_convex_md", {"step_rule": "theorem"},
         "step_rule 'theorem' applies only to noisy_md, not strongly_convex_md"),
        ("noisy_md", {"step_rule": "decaying"},
         "step_rule 'decaying' applies only to fw_polytope, fw_general, not noisy_md"),
        ("obj_pert", {"step_rule": "decaying"},
         "step_rule 'decaying' applies only to fw_polytope, fw_general, not obj_pert"),
        ("fw_general", {"step_size": 0.1}, "step_size applies only to noisy_md, not fw_general"),
        ("obj_pert", {"step_size": 0.1}, "step_size applies only to noisy_md, not obj_pert"),
        ("strongly_convex_md", {"step_size": 0.1},
         "step_size applies only to noisy_md, not strongly_convex_md"),
    ])
    def test_step_setting_the_algorithm_would_not_read(self, algorithm, setting, message):
        potential = SquaredL2(4) if algorithm.endswith("_md") else None
        with pytest.raises(ValueError, match=message):
            SolverConfig(algorithm=algorithm, body=L1Ball(1.0, 4), loss=SQ,
                         budget=NON_PRIVATE, potential=potential, **setting)

    @pytest.mark.parametrize("step_size", [-1.0, 0.0, math.nan, math.inf, "0.1"])
    def test_step_size_must_be_positive_and_finite(self, step_size):
        with pytest.raises(ValueError, match="step_size must be a positive finite number"):
            SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 4), loss=SQ,
                         budget=NON_PRIVATE, potential=SquaredL2(4), T=1,
                         step_size=step_size)

    def test_md_requires_potential(self):
        with pytest.raises(ValueError, match="potential"):
            SolverConfig(algorithm="noisy_md", body=L1Ball(1.0, 2), loss=SQ,
                         budget=NON_PRIVATE)

    def test_run_solver_dispatch(self, small_lasso):
        cfg = SolverConfig(algorithm="obj_pert", body=L1Ball(1.0, 12), loss=SQ,
                           budget=NON_PRIVATE, seed=0)
        rep = run_solver(cfg, small_lasso)
        assert rep.algorithm == "obj_pert"

    @pytest.mark.parametrize("algorithm", solvers.ALGORITHMS)
    def test_record_iterates_keeps_the_step_iterates(self, small_lasso, algorithm):
        body, loss = L1Ball(1.0, 12), SQ
        if algorithm == "strongly_convex_md":
            body = L2Ball(1.0, 12)
            loss = SquaredError(ridge=0.5)
        potential = SquaredL2(12) if algorithm.endswith("_md") else None
        cfg = SolverConfig(algorithm=algorithm, body=body, loss=loss,
                           budget=PrivacyBudget(1.0, 1e-6), potential=potential,
                           T=7, seed=2, record_iterates=True)
        rep = run_solver(cfg, small_lasso)
        if algorithm == "obj_pert":
            assert "iterates" not in rep.extras
        else:
            assert rep.iterations == 7 and len(rep.extras["iterates"]) == 7
            assert all(body.contains(theta) for theta in rep.extras["iterates"])


class TestBlockNoise:
    """The step loops draw their noise in blocks and replay the vertex
    ledger in an array, with the same bits as per-step draws and a dict."""

    @pytest.mark.parametrize("algorithm", ["noisy_md", "fw_general", "fw_polytope"])
    @pytest.mark.parametrize("budget", [PrivacyBudget(1.0, 1e-6), NON_PRIVATE],
                             ids=["private", "non_private"])
    @pytest.mark.parametrize("block_bytes", [None, 500], ids=["1MiB", "500B"])
    def test_matches_per_step_reference(self, small_lasso, monkeypatch, algorithm, budget,
                                        block_bytes):
        # 500 bytes hold 5 Gaussian rows (p = 12) or 2 Laplace rows (24
        # vertices), so 22 steps cross several blocks and end in a short one.
        if block_bytes is not None:
            monkeypatch.setattr(solvers, "NOISE_BLOCK_BYTES", block_bytes)
        potential = SquaredL2(12) if algorithm == "noisy_md" else None
        for seed in (0, 1, 2):
            cfg = SolverConfig(algorithm=algorithm, body=L1Ball(1.0, 12), loss=SQ,
                               budget=budget, potential=potential, T=23, seed=seed,
                               record_iterates=True)
            rep = run_solver(cfg, small_lasso)
            theta, iterates, weights = reference_step_loop(cfg, small_lasso)
            assert np.array_equal(rep.theta_priv, theta)
            assert len(rep.extras["iterates"]) == len(iterates) == 23
            assert all(np.array_equal(a, b) for a, b in zip(rep.extras["iterates"], iterates))
            if algorithm == "fw_polytope":
                ledger = rep.extras["vertex_weights"]
                assert ledger == weights and list(ledger) == list(weights)
                assert rep.extras["support_size"] == sum(1 for v in weights.values() if v > 0)
