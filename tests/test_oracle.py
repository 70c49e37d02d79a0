import gc
import weakref

import numpy as np
import pytest

import dperm.oracle as oracle
from dperm.firstorder import minimize
from dperm.geometry import Box, L1Ball, L2Ball, Polytope, Simplex
from dperm.harness import generate_lasso
from dperm.losses import CustomLoss, Dataset, Huber, SquaredError
from dperm.oracle import (
    DEFAULT_REL_TOL,
    OracleSolution,
    cached_solve,
    excess_risk,
    solve_exact,
)

from reference import lasso_cd_penalized, lasso_oracle_cd, minimize_without_reuse, sample_feasible

SQ = SquaredError()


class TestSolveExact:
    def test_one_dimensional_grid_example(self):
        # Records {(1,1),(1,1),(-1,1),(1,-1)} on [-1,1]: loss (theta^2+1)/2,
        # verified against a dense grid search.
        X = np.array([[1.0], [1.0], [-1.0], [1.0]])
        y = np.array([1.0, 1.0, 1.0, -1.0])
        data = Dataset(X=X, y=y)
        body = Box(lo=np.array([-1.0]), hi=np.array([1.0]))
        grid = np.linspace(-1.0, 1.0, 10 ** 6)
        vals = (2 * (grid - 1) ** 2 + (-grid - 1) ** 2 + (grid + 1) ** 2) / 8.0
        g_star, g_val = grid[vals.argmin()], vals.min()
        assert abs(g_star) <= 2e-6 and g_val == pytest.approx(0.5, abs=1e-9)
        sol = solve_exact(body, SQ, data)
        assert sol.theta_star[0] == pytest.approx(0.0, abs=1e-8)
        assert sol.optimum_value == pytest.approx(0.5, abs=1e-9)
        assert sol.gap_certificate <= 1e-9 * 1.5

    @pytest.mark.parametrize("p", [2, 20])
    @pytest.mark.parametrize("make_body", [
        lambda p: L2Ball(10.0, p),
        lambda p: L1Ball(50.0, p),
        lambda p: Box(lo=-5.0 * np.ones(p), hi=5.0 * np.ones(p)),
    ], ids=["l2ball", "l1ball", "box"])
    def test_interior_optimum_matches_least_squares(self, rng, make_body, p):
        # Noisy targets give f* > 0, where the objective stops changing in
        # floating point well before the gap target is met.
        X = rng.uniform(-1, 1, size=(60, p))
        y = rng.uniform(-1, 1, size=60)
        data = Dataset(X=X, y=y)
        sol = solve_exact(make_body(p), SQ, data)
        ls, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert sol.optimum_value > 0.0
        assert sol.gap_certificate <= DEFAULT_REL_TOL * (1.0 + abs(sol.optimum_value))
        assert np.abs(sol.theta_star - ls).max() <= 1e-5
        assert sol.optimum_value - SQ.loss(ls, data) <= sol.gap_certificate + 1e-15

    def test_zero_loss(self):
        data = Dataset(X=np.eye(3), y=np.zeros(3))
        sol = solve_exact(L1Ball(1.0, 3), SQ, data)
        assert sol.optimum_value == pytest.approx(0.0, abs=1e-12)
        assert sol.method == "fista"

    def test_polytope_coefficient_route(self, rng):
        # Triangle body: cross-check against a dense barycentric grid.
        V = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        X = rng.uniform(-1, 1, size=(50, 2))
        y = rng.uniform(-1, 1, size=50)
        data = Dataset(X=X, y=y)
        sol = solve_exact(Polytope(V), SQ, data)
        m = 250
        a = np.linspace(0, 1, m)
        best = np.inf
        for w1 in a:
            for w2 in np.linspace(0, 1 - w1, m):
                theta = w1 * V[0] + w2 * V[1] + (1 - w1 - w2) * V[2]
                best = min(best, SQ.loss(theta, data))
        assert sol.optimum_value <= best + 1e-9
        assert sol.body.contains(sol.theta_star)
        assert sol.method == "fista-coefficient"

    def test_unreachable_tol_raises_with_diagnosis(self, monkeypatch):
        data = generate_lasso(200, 6, 2, 0.1, seed=4)
        monkeypatch.setattr(oracle, "DEFAULT_REL_TOL", 1e-18)
        with pytest.raises(RuntimeError,
                           match=r"best gap \d\.\d+e[-+]\d+ .* after \d+ iterations"):
            solve_exact(L1Ball(1.0, 6), SQ, data)


class TestExcessRisk:
    def test_at_optimum_within_certificate(self, rng):
        data = generate_lasso(200, 6, 2, 0.1, seed=4)
        sol = solve_exact(L1Ball(1.0, 6), SQ, data)
        r = excess_risk(sol.theta_star, sol, SQ, data)
        assert abs(r) <= sol.gap_certificate + 1e-15

    def test_feasible_point_above_negative_certificate(self, rng):
        data = generate_lasso(100, 5, 2, 0.1, seed=5)
        sol = solve_exact(L1Ball(1.0, 5), SQ, data)
        for _ in range(50):
            theta = sample_feasible(L1Ball(1.0, 5), rng)
            assert excess_risk(theta, sol, SQ, data) >= -sol.gap_certificate

    def test_hand_checkable_two_dimensional_instance(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]])
        y = np.array([0.5, -0.5, 0.25, 0.0])
        data = Dataset(X=X, y=y)
        sol = solve_exact(L1Ball(1.0, 2), SQ, data)
        risk_zero = excess_risk(np.zeros(2), sol, SQ, data)
        hand = float(y @ y) / (2 * 4)  # L(0) = sum y^2 / (2n)
        assert risk_zero == pytest.approx(hand - sol.optimum_value, abs=1e-12)

    def test_infeasible_rejected(self):
        data = Dataset(X=np.eye(2), y=np.zeros(2))
        sol = solve_exact(L1Ball(1.0, 2), SQ, data)
        with pytest.raises(ValueError, match="feasible"):
            excess_risk(np.array([2.0, 0.0]), sol, SQ, data)

    def test_clamp_warns_never_silently_zeroes(self):
        data = Dataset(X=np.eye(2), y=np.array([0.5, 0.5]))
        sol = OracleSolution(theta_star=np.zeros(2),
                             optimum_value=SQ.loss(np.zeros(2), data) + 1e-6,
                             gap_certificate=1e-8, method="stub",
                             body=L1Ball(1.0, 2))
        with pytest.warns(UserWarning, match="clamping"):
            r = excess_risk(np.zeros(2), sol, SQ, data)
        assert r == -1e-8


class TestCoordinateDescentCrossCheck:
    def test_penalized_cd_kkt(self, rng):
        X = rng.uniform(-1, 1, size=(80, 6))
        y = rng.uniform(-1, 1, size=80)
        lam = 0.05
        theta = lasso_cd_penalized(X.T @ X / 80, X.T @ y / 80, lam)
        grad = X.T @ (X @ theta - y) / 80
        for j in range(6):
            if theta[j] != 0.0:
                assert grad[j] + lam * np.sign(theta[j]) == pytest.approx(0.0, abs=1e-9)
            else:
                assert abs(grad[j]) <= lam + 1e-9

    def test_agrees_with_projected_gradient_oracle(self):
        # Independent-route consistency on several seeded instances, with
        # the constraint both active and slack.
        for seed, n, p in [(11, 300, 10), (12, 500, 25), (13, 200, 8)]:
            data = generate_lasso(n, p, 3, 0.1, seed=seed)
            sol = solve_exact(L1Ball(1.0, p), SQ, data)
            theta_cd, val_cd = lasso_oracle_cd(data, 1.0)
            tol = 1e-9 * (1.0 + abs(sol.optimum_value))
            assert abs(sol.optimum_value - val_cd) <= 2 * tol
            assert np.abs(theta_cd).sum() <= 1.0 + 1e-9

    def test_slack_constraint_returns_least_squares(self, rng):
        X = rng.uniform(-1, 1, size=(100, 3))
        y = X @ np.array([0.05, -0.02, 0.01])
        data = Dataset(X=X, y=y)
        theta, val = lasso_oracle_cd(data, 1.0)
        assert val == pytest.approx(0.0, abs=1e-15)
        assert np.abs(theta).sum() < 1.0


class TestCache:
    def test_cached_solve_returns_same_object(self):
        data = generate_lasso(50, 4, 2, 0.0, seed=9)
        a = cached_solve(L1Ball(1.0, 4), SQ, data)
        b = cached_solve(L1Ball(1.0, 4), SQ, data)
        assert a is b

    def test_equal_bytes_copy_solves_again(self, monkeypatch):
        # The optimum is kept in the memo of the dataset it was solved on,
        # so a copy with equal bytes has its own entry, with the same value.
        solves = []
        real = oracle.solve_exact

        def counting(body, loss, data):
            solves.append(data)
            return real(body, loss, data)

        monkeypatch.setattr(oracle, "solve_exact", counting)
        data = generate_lasso(50, 4, 2, 0.1, seed=9)
        copy = Dataset(X=data.X.copy(), y=data.y.copy(), lasso_profile=True)
        a = cached_solve(L1Ball(1.0, 4), SQ, data)
        b = cached_solve(L1Ball(1.0, 4), SQ, copy)
        assert cached_solve(L1Ball(1.0, 4), SQ, copy) is b
        assert solves == [data, copy]
        assert a is not b and a.optimum_value == b.optimum_value

    def test_cache_distinguishes_bodies(self):
        data = generate_lasso(50, 4, 2, 0.0, seed=9)
        a = cached_solve(L1Ball(1.0, 4), SQ, data)
        c = cached_solve(L2Ball(1.0, 4), SQ, data)
        assert a is not c

    def test_custom_loss_is_solved_uncached(self, rng, monkeypatch):
        # Each custom loss is a squared error against shifted targets; all
        # carry the default name.  Each is built, solved and dropped in
        # turn, so a cache keyed by name or by a reusable id would hand a
        # later loss an earlier loss's optimum.  A custom loss has no key:
        # every call solves, and no entry keeps the loss alive.
        solves = []
        real = oracle.solve_exact

        def counting(body, loss, data):
            solves.append(loss)
            return real(body, loss, data)

        monkeypatch.setattr(oracle, "solve_exact", counting)
        data = Dataset(X=rng.uniform(-1, 1, (40, 3)), y=rng.uniform(-1, 1, 40))
        body = L1Ball(1.0, 3)
        for shift in (0.0, 0.3, -0.6, 0.9):
            loss = shifted_squared_error(shift)
            cached = cached_solve(body, loss, data)
            assert cached is not cached_solve(body, loss, data)
            assert solves == [loss, loss]
            fresh = solve_exact(body, loss, data)
            assert cached.optimum_value == pytest.approx(fresh.optimum_value, rel=1e-8)
            alive = weakref.ref(loss)
            del loss, cached, fresh
            solves.clear()
            gc.collect()
            assert alive() is None

    def test_body_without_a_document_is_solved_uncached(self):
        class Bare(L1Ball):
            def to_dict(self):
                raise NotImplementedError

        data = generate_lasso(50, 4, 2, 0.1, seed=9)
        a = cached_solve(Bare(1.0, 4), SQ, data)
        b = cached_solve(Bare(1.0, 4), SQ, data)
        assert a is not b
        assert a.optimum_value == cached_solve(L1Ball(1.0, 4), SQ, data).optimum_value

    def test_subclass_of_a_built_in_body_is_solved_as_itself(self):
        # It inherits its parent's document; keyed by it, the half-radius
        # ball took the unit ball's optimum (0.0050049 against 0.0149804).
        data = generate_lasso(200, 5, 2, 0.1, seed=1)
        full = cached_solve(L1Ball(1.0, 5), SQ, data)
        half = cached_solve(HalfL1Ball(1.0, 5), SQ, data)
        assert half is not cached_solve(HalfL1Ball(1.0, 5), SQ, data)
        assert half.optimum_value == pytest.approx(
            solve_exact(L1Ball(0.5, 5), SQ, data).optimum_value, rel=1e-8)
        assert half.optimum_value > 2 * full.optimum_value

    def test_built_in_losses_share_entries_by_value(self):
        data = generate_lasso(50, 4, 2, 0.1, seed=9)
        body = L1Ball(1.0, 4)
        assert cached_solve(body, SquaredError(), data) is cached_solve(body, SQ, data)
        assert cached_solve(body, Huber(0.5), data) is cached_solve(body, Huber(0.5), data)
        assert cached_solve(body, Huber(0.5), data) is not cached_solve(body, Huber(0.25), data)


class HalfL1Ball(L1Ball):
    """The l1 ball of half the radius, behind the document of the full one."""

    def _half(self) -> L1Ball:
        return L1Ball(self.radius / 2, self.dimension)

    def contains(self, x) -> bool:
        return self._half().contains(x)

    def lmo(self, direction) -> np.ndarray:
        return self._half().lmo(direction)

    def euclidean_project(self, x) -> np.ndarray:
        return self._half().euclidean_project(x)


def shifted_squared_error(shift: float) -> CustomLoss:
    def loss_full(theta, X, y):
        r = X @ theta - (y + shift)
        return 0.5 * float(r @ r) / X.shape[0]

    def grad_full(theta, X, y):
        return X.T @ (X @ theta - (y + shift)) / X.shape[0]

    return CustomLoss(loss_full, grad_full, constants={})


class TestDimensionMismatch:
    def test_rejected_before_any_statistic(self, rng, monkeypatch):
        data = Dataset(X=rng.uniform(-1, 1, (30, 6)), y=rng.uniform(-1, 1, 30))

        def no_memo(self, key, compute):
            raise AssertionError(f"statistic {key!r} computed before the check")

        monkeypatch.setattr(Dataset, "_memo", no_memo)
        for solve in (solve_exact, cached_solve):
            with pytest.raises(ValueError, match=r"body dimension 5 .* p = 6"):
                solve(L1Ball(1.0, 5), SQ, data)


class TestGradientReuse:
    """After a gradient restart ``minimize`` reuses grad f(x+) from the step
    test as the next grad f(z): the same result with fewer gradients."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_certificate_with_fewer_gradients(self, seed):
        # The objective-perturbation inner problem: L + (zeta/2)||x||^2 + <b, x>
        # on the l1 ball, to an absolute gap.
        data = generate_lasso(800, 20, 4, 0.1, seed=seed)
        rng = np.random.default_rng(seed)
        b, zeta = 0.05 * rng.standard_normal(20), 0.01
        grad = SQ.bound_grad(data)
        counts = [0, 0]

        def counted(i):
            def fgrad(theta):
                counts[i] += 1
                return grad(theta) + zeta * theta + b
            return fgrad

        body = L1Ball(1.0, 20)
        sol = minimize(body, counted(0), 1e-8)
        x, gap, iterations = minimize_without_reuse(body, counted(1), 1e-8)
        assert np.array_equal(sol.x, x)
        assert sol.gap == gap and sol.iterations == iterations and sol.value is None
        assert counts[0] < counts[1], counts
