import csv
import pickle
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import dperm.geometry as geometry
import dperm.losses as losses
from dperm.geometry import Box, GroupedL1Ball, L1Ball, L2Ball, Polytope, Simplex
from dperm.losses import (
    CustomLoss,
    Dataset,
    Huber,
    SquaredError,
    loss_from_dict,
    loss_key,
)
from dperm.oracle import cached_solve, solve_exact

from reference import block_slices, curvature_empirical, record_grad, sample_feasible


def lasso_dataset(rng, n=200, p=5):
    X = rng.uniform(-1.0, 1.0, size=(n, p))
    y = rng.uniform(-1.0, 1.0, size=n)
    return Dataset(X=X, y=y, lasso_profile=True)


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((3, 2)), y=np.zeros(4))

    def test_lasso_profile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="rejected, not clipped"):
            Dataset(X=np.array([[1.5, 0.0]]), y=np.array([0.0]), lasso_profile=True)
        with pytest.raises(ValueError):
            Dataset(X=np.array([[0.5, 0.0]]), y=np.array([1.2]), lasso_profile=True)

    def test_lasso_profile_accepts_boundary(self):
        Dataset(X=np.array([[1.0, -1.0]]), y=np.array([1.0]), lasso_profile=True)

    def test_lasso_profile_rejects_nan(self):
        # NaN fails every comparison, so it must not pass as "not above 1".
        X, y = np.zeros((3, 2)), np.zeros(3)
        X[1, 0] = np.nan
        with pytest.raises(ValueError, match="record 1 violates the sparse-regression domain"):
            Dataset(X=X, y=np.zeros(3), lasso_profile=True)
        y[2] = np.nan
        with pytest.raises(ValueError, match="record 2 violates the sparse-regression domain"):
            Dataset(X=np.zeros((3, 2)), y=y, lasso_profile=True)

    def test_non_finite_record_rejected_without_profile(self):
        X = np.zeros((4, 2))
        X[2, 1] = np.inf
        with pytest.raises(ValueError, match="record 2 holds a NaN or an infinite value"):
            Dataset(X=X, y=np.zeros(4))
        Dataset(X=np.full((4, 2), 1e300), y=np.full(4, -1e300))  # large but finite

    def test_csv_with_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x_1,x_2,y\n0.5,0.25,1.0\n-0.5,nan,0.0\n")
        with pytest.raises(ValueError, match="record 1 holds a NaN"):
            Dataset.from_csv(path)
        with pytest.raises(ValueError, match="record 1 violates"):
            Dataset.from_csv(path, lasso_profile=True)

    def test_csv_round_trip(self, tmp_path, rng):
        data = lasso_dataset(rng, n=17, p=3)
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{j + 1}" for j in range(data.p)] + ["y"])
            for x, y in zip(data.X, data.y):
                writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])
        again = Dataset.from_csv(path, lasso_profile=True)
        assert np.array_equal(again.X, data.X) and np.array_equal(again.y, data.y)

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("0.5,0.25,1.0\n-0.5,0.75,0.0\n")
        data = Dataset.from_csv(path)
        assert data.n == 2 and data.p == 2


class TestSquaredErrorEvaluation:
    def test_single_record_at_zero(self):
        sq = SquaredError()
        data = Dataset(X=np.array([[0.3, -0.2]]), y=np.array([0.8]))
        assert sq.loss(np.zeros(2), data) == pytest.approx(0.8 ** 2 / 2)
        assert np.allclose(record_grad(sq, np.zeros(2), [0.3, -0.2], 0.8),
                           -0.8 * np.array([0.3, -0.2]))

    def test_normal_equations_zero_gradient(self, rng):
        X = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        theta, *_ = np.linalg.lstsq(X, y, rcond=None)
        g = SquaredError().grad(theta, Dataset(X=X, y=y))
        assert np.abs(g).max() <= 1e-12

    def test_hand_example(self):
        data = Dataset(X=np.array([[1.0, 0.0], [0.0, 1.0]]), y=np.array([1.0, -1.0]))
        assert SquaredError().loss([0.5, 0.5], data) == pytest.approx(0.625)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            SquaredError().loss([0.0], Dataset(X=np.zeros((0, 1)), y=np.zeros(0)))

    def test_grad_is_mean_of_singles(self, rng):
        sq = SquaredError()
        data = lasso_dataset(rng, n=64, p=4)
        theta = rng.standard_normal(4)
        singles = np.mean([record_grad(sq, theta, x, y) for x, y in zip(data.X, data.y)], axis=0)
        assert np.abs(sq.grad(theta, data) - singles).max() <= 1e-12

    def test_grad_finite_differences(self, rng):
        for spec in [SquaredError(), Huber(0.4)]:
            data = lasso_dataset(rng, n=32, p=4)
            theta = 0.3 * rng.standard_normal(4)
            g = spec.grad(theta, data)
            for i in range(4):
                e = np.zeros(4)
                e[i] = 1e-6
                fd = (spec.loss(theta + e, data) - spec.loss(theta - e, data)) / 2e-6
                assert abs(fd - g[i]) <= 1e-5


class TestLipschitz:
    def test_lasso_profile_at_most_two(self, rng):
        data = lasso_dataset(rng)
        L1, L2 = SquaredError().lipschitz_constants(L1Ball(1.0, data.p), data)
        assert L1 <= 2.0 + 1e-12

    def test_cross_check_by_maximization(self, rng):
        # Maximize ||record_grad||_inf over random feasible (theta, x, y)
        # from the sparse-regression domain; the declared bound must hold.
        sq = SquaredError()
        body = L1Ball(1.0, 6)
        data = lasso_dataset(rng, n=400, p=6)
        L1, L2 = sq.lipschitz_constants(body, data)
        worst_inf = worst_two = 0.0
        idx = rng.integers(0, data.n, size=10_000)
        for i in idx:
            theta = sample_feasible(body, rng)
            g = record_grad(sq, theta, data.X[i], float(data.y[i]))
            worst_inf = max(worst_inf, np.abs(g).max())
            worst_two = max(worst_two, float(np.linalg.norm(g)))
        assert worst_inf <= L1 + 1e-12
        assert worst_two <= L2 + 1e-12

    def test_all_zero_dataset(self):
        data = Dataset(X=np.zeros((5, 3)), y=np.zeros(5))
        assert SquaredError().lipschitz_constants(L1Ball(1.0, 3), data) == (0.0, 0.0)

    def test_single_unit_record(self):
        data = Dataset(X=np.array([[1.0, 0.0]]), y=np.array([0.0]))
        L1, L2 = SquaredError().lipschitz_constants(L1Ball(1.0, 2), data)
        assert L2 == pytest.approx(1.0)

    def test_grad_single_bounds_hold_on_draws(self, rng):
        spec = Huber(0.3)
        body = L2Ball(1.0, 4)
        data = lasso_dataset(rng, n=100, p=4)
        L1, L2 = spec.lipschitz_constants(body, data)
        for _ in range(500):
            i = int(rng.integers(0, data.n))
            theta = sample_feasible(body, rng)
            g = record_grad(spec, theta, data.X[i], float(data.y[i]))
            assert np.abs(g).max() <= L1 + 1e-12
            assert np.linalg.norm(g) <= L2 + 1e-12

    @pytest.mark.parametrize("loss", [SquaredError(), Huber(0.3)], ids=["squared", "huber"])
    def test_linf_dual_bodies_read_the_row_maxima(self, rng, loss):
        # The l1 ball's and the simplex's residual bound reads the memoised
        # ||x_i||_inf; it must equal the body.dual_norms(X) route bitwise.
        data = lasso_dataset(rng, n=300, p=7)
        cap = getattr(loss, "delta", None)
        for body in (L1Ball(0.7, 7), Simplex(7)):
            res = body.dual_norms(data.X) + np.abs(data.y)
            if cap is not None:
                res = np.minimum(res, cap)
            expected = (float(np.max(res * np.abs(data.X).max(axis=1))),
                        float(np.max(res * np.sqrt(data.row_sq_norms()))))
            assert loss.lipschitz_constants(body, data) == expected

    def test_one_row_abs_max_pass_per_lasso_dataset(self, rng, monkeypatch):
        # Validating the lasso domain computes ||x_i||_inf once; the
        # constants of both l_inf dual bodies and both losses reuse it.
        calls = []
        real = geometry.row_abs_max

        def counting(G):
            calls.append(G.shape)
            return real(G)

        monkeypatch.setattr(geometry, "row_abs_max", counting)
        monkeypatch.setattr(losses, "row_abs_max", counting)
        data = lasso_dataset(rng, n=300, p=7)
        for body in (L1Ball(0.7, 7), Simplex(7)):
            for loss in (SquaredError(), Huber(0.3)):
                loss.lipschitz_constants(body, data)
        assert calls == [(300, 7)]


class TestCurvature:
    def test_lasso_bound_at_most_four(self, rng):
        data = lasso_dataset(rng, n=300, p=8)
        bound = SquaredError().curvature_bound(L1Ball(1.0, 8), data)
        assert bound <= 4.0 + 1e-12

    def test_zero_design(self):
        data = Dataset(X=np.zeros((4, 2)), y=np.zeros(4))
        assert SquaredError().curvature_bound(L1Ball(1.0, 2), data) == 0.0

    def test_identity_rows(self):
        data = Dataset(X=np.eye(2), y=np.zeros(2))
        assert SquaredError().curvature_bound(L1Ball(1.0, 2), data) == pytest.approx(2.0)

    def test_linear_loss_has_zero_empirical_curvature(self, rng):
        # y-only loss: gradient constant in theta, so the second-order term
        # in the curvature expression vanishes identically.
        lin = CustomLoss(
            loss_full=lambda th, X, y: float(np.mean(X @ th - y)),
            grad_full=lambda th, X, y: X.mean(axis=0),
            constants={"l1_lipschitz": 1.0, "l2_lipschitz": 1.0, "curvature": 0.0,
                       "lambda_min": 0.0, "lambda_max": 0.0},
        )
        data = lasso_dataset(rng, n=20, p=3)
        emp = curvature_empirical(lin, L1Ball(1.0, 3), data, trials=100, seed=1)
        assert emp == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional_supremum_is_four(self):
        # C = [-1, 1], single record x = 1, y = 0: the curvature expression
        # equals (theta2 - theta1)^2, maximized at 4 over the box.
        data = Dataset(X=np.array([[1.0]]), y=np.array([0.0]))
        body = Box(lo=np.array([-1.0]), hi=np.array([1.0]))
        sq = SquaredError()
        assert sq.curvature_bound(body, data) == pytest.approx(4.0)
        emp = curvature_empirical(sq, body, data, trials=20_000, seed=3)
        assert emp <= 4.0 + 1e-9
        assert emp >= 3.5

    def test_asymmetric_box_bound_holds(self, rng):
        # |<x, theta>| <= <|x|, max(|lo|, |hi|)> on any box, symmetric or not.
        sq = SquaredError()
        data = lasso_dataset(rng, n=40, p=3)
        body = Box(lo=np.array([-0.2, -1.0, 0.5]), hi=np.array([1.0, 0.3, 2.0]))
        bound = sq.curvature_bound(body, data)
        assert bound == pytest.approx(
            4.0 * float(np.sum((np.abs(data.X) @ np.array([1.0, 1.0, 2.0])) ** 2)) / 40)
        emp = curvature_empirical(sq, body, data, trials=2000, seed=5)
        assert 0.0 < emp <= bound + 1e-9

    def test_near_symmetric_box_uses_its_farthest_corner(self):
        # lo = -5.00004 is within allclose's default rtol of -hi, but the
        # bound must still reach the corner at 5.00004: 4 * 5.00004^2.
        data = Dataset(X=np.full((10, 2), 0.5), y=np.zeros(10))
        body = Box(lo=np.full(2, -5.00004), hi=np.full(2, 5.0))
        assert SquaredError().curvature_bound(body, data) >= 100.0016

    def test_empirical_below_bound_random_instances(self, rng):
        sq = SquaredError()
        for _ in range(25):
            n = int(rng.integers(2, 17))
            p = int(rng.integers(1, 9))
            data = Dataset(X=rng.uniform(-1, 1, (n, p)), y=rng.uniform(-1, 1, n))
            body = L1Ball(1.0, p)
            bound = sq.curvature_bound(body, data)
            emp = curvature_empirical(sq, body, data, trials=40, seed=int(rng.integers(1e6)))
            assert emp <= bound + 1e-9


class TestHessianBounds:
    def test_rank_one_example(self):
        data = Dataset(X=np.array([[1.0, 1.0]]), y=np.array([0.0]))
        assert SquaredError().hessian_eig_bounds(data) == (0.0, 2.0)

    def test_zero_feature(self):
        data = Dataset(X=np.zeros((1, 2)), y=np.array([0.0]))
        assert SquaredError().hessian_eig_bounds(data) == (0.0, 0.0)

    def test_sign_rows(self, rng):
        p = 50
        X = rng.choice([-1.0, 1.0], size=(10, p))
        data = Dataset(X=X, y=np.zeros(10))
        lam_min, lam_max = SquaredError().hessian_eig_bounds(data)
        assert lam_max == pytest.approx(float(p))

    def test_one_dimensional_lambda_min(self):
        data = Dataset(X=np.array([[0.5], [1.0]]), y=np.zeros(2))
        lam_min, lam_max = SquaredError().hessian_eig_bounds(data)
        assert lam_min == pytest.approx(0.25) and lam_max == pytest.approx(1.0)


class TestCustomAndRidge:
    def test_custom_requires_constants(self, rng):
        spec = CustomLoss(lambda th, X, y: 0.0, lambda th, X, y: np.zeros(2),
                          constants={})
        data = lasso_dataset(rng, n=4, p=2)
        with pytest.raises(ValueError, match="never inferred"):
            spec.lipschitz_constants(L1Ball(1.0, 2), data)

    def test_ridge_matches_hand_formula(self, rng):
        data = lasso_dataset(rng, n=30, p=3)
        spec = SquaredError(ridge=0.5)
        theta = 0.2 * rng.standard_normal(3)
        base = SquaredError()
        assert spec.loss(theta, data) == pytest.approx(
            base.loss(theta, data) + 0.25 * float(theta @ theta))
        assert np.allclose(spec.grad(theta, data),
                           base.grad(theta, data) + 0.5 * theta)
        assert spec.strong_convexity == 0.5
        lam_min, lam_max = spec.hessian_eig_bounds(data)
        assert lam_min == pytest.approx(0.5)

    def test_ridge_batch_matches_singles(self, rng):
        data = lasso_dataset(rng, n=12, p=3)
        spec = SquaredError(ridge=0.1)
        theta = 0.1 * rng.standard_normal(3)
        singles = np.mean([record_grad(spec, theta, x, y) for x, y in zip(data.X, data.y)],
                          axis=0)
        assert np.allclose(spec.grad(theta, data), singles, atol=1e-12)

    def test_ridge_lipschitz_on_asymmetric_box_uses_the_farthest_corner(self):
        # With all-zero data only the ridge part is left: lam max ||theta||
        # over the box, reached at the corner (-3, 3).
        data = Dataset(X=np.zeros((5, 2)), y=np.zeros(5))
        body = Box(lo=np.array([-3.0, -1.0]), hi=np.array([1.0, 3.0]))
        L1, L2 = SquaredError(ridge=0.5).lipschitz_constants(body, data)
        assert L2 == pytest.approx(0.5 * np.sqrt(18.0))
        assert L1 == pytest.approx(0.5 * 3.0)

    def test_loss_from_dict(self):
        assert isinstance(loss_from_dict({"kind": "squared_error"}), SquaredError)
        assert isinstance(loss_from_dict({"kind": "huber", "delta": 0.3}), Huber)
        with pytest.raises(ValueError):
            loss_from_dict({"kind": "hinge"})

    def test_loss_from_dict_ridge(self):
        plain = loss_from_dict({"kind": "squared_error"})
        ridge = loss_from_dict({"kind": "squared_error", "ridge": 0.5})
        assert plain.ridge == 0.0 and plain.strong_convexity is None
        assert ridge.ridge == 0.5 and ridge.strong_convexity == 0.5
        assert loss_key(plain) == "squared_error"
        assert loss_key(ridge) != loss_key(plain)
        with pytest.raises(ValueError, match="ridge"):
            loss_from_dict({"kind": "squared_error", "ridge": -0.1})


# ---------------------------------------------------------------------------
# Sufficient-statistics backend against the written-out row-pass formulas.

REL = 1e-12  # |value - ref| <= REL * (1 + |ref|), fixed before the comparisons


def close(value, ref) -> bool:
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(value - ref) <= REL * (1.0 + np.abs(ref))))


def row_loss(theta, X, y):
    r = X @ theta - y
    return 0.5 * float(r @ r) / X.shape[0]


def row_grad(theta, X, y):
    return X.T @ (X @ theta - y) / X.shape[0]


def row_curvature_vertices(V, X):
    return 4.0 * max(float((X @ v) @ (X @ v)) / X.shape[0] for v in V)


class TestGramBackend:
    def test_loss_and_grad_match_row_pass(self, rng, monkeypatch):
        # The row pass must not run at all when p < n.
        monkeypatch.setattr(SquaredError, "_loss_full", None)
        monkeypatch.setattr(SquaredError, "_grad_full", None)
        sq = SquaredError()
        for n, p in [(200, 5), (64, 12), (3, 2), (1000, 40)]:
            data = lasso_dataset(rng, n=n, p=p)
            for scale in (0.0, 0.3, 1.0, 5.0):
                theta = scale * rng.standard_normal(p)
                assert close(sq.loss(theta, data), row_loss(theta, data.X, data.y))
                assert close(sq.grad(theta, data), row_grad(theta, data.X, data.y))

    def test_p_at_least_n_takes_row_pass(self, rng, monkeypatch):
        def no_gram(self):
            raise AssertionError("Gram statistics built for p >= n")

        monkeypatch.setattr(Dataset, "gram", no_gram)
        sq = SquaredError()
        for n, p in [(4, 4), (5, 9), (1, 3)]:
            data = Dataset(X=rng.uniform(-1, 1, (n, p)), y=rng.uniform(-1, 1, n))
            assert not data.prefers_gram
            theta = rng.standard_normal(p)
            assert sq.loss(theta, data) == row_loss(theta, data.X, data.y)
            assert np.array_equal(sq.grad(theta, data), row_grad(theta, data.X, data.y))
            assert close(sq.curvature_bound(L1Ball(1.0, p), data),
                         row_curvature_vertices(L1Ball(1.0, p).vertices(), data.X))
            assert close(sq.curvature_bound(L2Ball(2.0, p), data),
                         16.0 * float(np.linalg.norm(data.X, 2)) ** 2 / n)
            # Blocks of p // 2 + 1 columns: the last one is short.
            ball = GroupedL1Ball(1.5, p // 2 + 1, p)
            top = max(float(np.linalg.norm(data.X[:, s], 2)) ** 2
                      for s in block_slices(p, ball.group_size))
            assert close(sq.curvature_bound(ball, data), 4.0 * 1.5 ** 2 * top / n)

    def test_noiseless_loss_is_nonnegative(self, rng):
        # y = X theta0 exactly, so f(theta0) = 0 and the Gram form cancels
        # to a rounding error of either sign.
        sq = SquaredError()
        raw_negative = 0
        for _ in range(50):
            p = int(rng.integers(2, 10))
            X = rng.uniform(-1, 1, (200, p))
            theta0 = rng.standard_normal(p)
            data = Dataset(X=X, y=X @ theta0)
            G, b, c = data.gram()
            raw_negative += 0.5 * float(theta0 @ G @ theta0) - float(b @ theta0) + c < 0.0
            assert 0.0 <= sq.loss(theta0, data) <= REL * (1.0 + c)
        assert raw_negative > 0
        theta0 /= np.abs(theta0).sum()
        sol = solve_exact(L1Ball(1.0, p), sq, Dataset(X=X, y=X @ theta0))
        assert sol.optimum_value >= 0.0

    @pytest.mark.parametrize("make_body", [
        lambda p: L1Ball(1.5, p),
        lambda p: Simplex(p),
        lambda p: Polytope(np.random.default_rng(3).standard_normal((7, p))),
    ], ids=["l1ball", "simplex", "polytope"])
    def test_curvature_on_vertices_matches_row_pass(self, rng, make_body):
        data = lasso_dataset(rng, n=300, p=6)
        body = make_body(6)
        assert close(SquaredError().curvature_bound(body, data),
                     row_curvature_vertices(body.vertices(), data.X))

    def test_curvature_l2_and_grouped_match_spectral_norms(self, rng):
        data = lasso_dataset(rng, n=300, p=10)
        X, n = data.X, data.n
        ref_l2 = 4.0 * 0.7 ** 2 * float(np.linalg.norm(X, 2)) ** 2 / n
        assert close(SquaredError().curvature_bound(L2Ball(0.7, 10), data), ref_l2)
        body = GroupedL1Ball(1.3, 4, 10)  # blocks of 4, 4 and 2 columns
        blocks = (slice(0, 4), slice(4, 8), slice(8, 10))
        top = max(float(np.linalg.norm(X[:, s], 2)) ** 2 for s in blocks)
        assert close(SquaredError().curvature_bound(body, data), 4.0 * 1.3 ** 2 * top / n)

    def test_statistics_are_memoised(self, rng):
        data = lasso_dataset(rng, n=50, p=3)
        assert data.gram() is data.gram()
        assert data.row_sq_norms() is data.row_sq_norms()
        assert data.row_abs_max() is data.row_abs_max()
        assert np.array_equal(data.row_abs_max(), np.abs(data.X).max(axis=1))
        body = L1Ball(1.0, 3)
        # The oracle optimum is memoised per (body key, loss key).
        oracle = cached_solve(body, SquaredError(), data)
        assert cached_solve(L1Ball(1.0, 3), SquaredError(), data) is oracle
        assert cached_solve(body, Huber(0.2), data) is not oracle
        assert SquaredError().lipschitz_constants(body, data) is \
            SquaredError().lipschitz_constants(L1Ball(1.0, 3), data)
        assert Huber(0.2).lipschitz_constants(body, data) != \
            Huber(0.3).lipschitz_constants(body, data)

    def test_arrays_are_read_only_views(self, rng):
        X = rng.uniform(-1, 1, (20, 3))
        y = rng.uniform(-1, 1, 20)
        data = Dataset(X=X, y=y)
        assert np.shares_memory(data.X, X) and np.shares_memory(data.y, y)
        with pytest.raises(ValueError):
            data.X[0, 0] = 0.5
        with pytest.raises(ValueError):
            data.y[0] = 0.5
        for stat in (data.gram().G, data.gram().b, data.row_sq_norms(), data.row_abs_max()):
            with pytest.raises(ValueError):
                stat[0] = 0.5
        with pytest.raises(AttributeError):
            data.X = X

    def test_pickle_round_trip_starts_a_fresh_memo(self, rng):
        data = lasso_dataset(rng, n=30, p=3)
        data.gram()
        oracle = cached_solve(L1Ball(1.0, 3), SquaredError(), data)
        again = pickle.loads(pickle.dumps(data))
        assert np.array_equal(again.X, data.X) and np.array_equal(again.y, data.y)
        assert again.gram() is not data.gram()
        solved = cached_solve(L1Ball(1.0, 3), SquaredError(), again)
        assert solved is not oracle
        assert np.array_equal(solved.theta_star, oracle.theta_star)
        assert solved.optimum_value == oracle.optimum_value
        with pytest.raises(ValueError):
            again.X[0, 0] = 0.5


class TestSharedStatistics:
    def test_statistics_computed_once_under_threads(self, rng, monkeypatch):
        # Four threads read every statistic of one dataset and its oracle
        # optimum at once: each is computed exactly once and all threads get
        # the same objects.  At n = 20000 the BLAS calls take long enough,
        # with the GIL released, for the threads to overlap inside them.
        computed = Counter()
        memo = Dataset._memo

        def counting(self, key, compute):
            def counted():
                computed[key] += 1
                return compute()

            return memo(self, key, counted)

        monkeypatch.setattr(Dataset, "_memo", counting)
        data = Dataset(X=rng.uniform(-1, 1, (20_000, 50)), y=rng.uniform(-1, 1, 20_000),
                       lasso_profile=True)
        start = threading.Barrier(4)
        seen, errors = [], []

        def read():
            try:
                start.wait()
                seen.append((data.gram(), data.row_sq_norms(),
                             SquaredError().lipschitz_constants(L1Ball(1.0, 50), data),
                             cached_solve(L1Ball(1.0, 50), SquaredError(), data)))
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, daemon=True) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "readers did not finish within 60 s"
        assert errors == [] and len(seen) == 4
        # The three named statistics, one Lipschitz pair and one oracle entry.
        assert {"gram", "row_sq_norms", "row_abs_max"} < set(computed)
        assert sorted(k[0] for k in computed if isinstance(k, tuple)) == ["lipschitz", "oracle"]
        assert len(computed) == 5
        assert set(computed.values()) == {1}, computed
        for stats in seen[1:]:
            assert all(a is b for a, b in zip(stats, seen[0]))


class TestBoundGradient:
    """``bound_grad(data)`` returns the same bits as each backend's formula,
    written out here, and ``grad(theta, data)`` is a call through it."""

    @staticmethod
    def thetas(rng, p):
        return [np.zeros(p), np.ones(p) / p] + [s * rng.standard_normal(p)
                                                 for s in (0.1, 1.0, 7.0) for _ in range(5)]

    @pytest.mark.parametrize("ridge", [0.0, 0.35])
    def test_squared_error_gram_route(self, rng, ridge):
        data = lasso_dataset(rng, n=300, p=7)
        assert data.prefers_gram
        G, b, _ = data.gram()
        loss = SquaredError(ridge=ridge)
        grad = loss.bound_grad(data)
        for theta in self.thetas(rng, 7):
            ref = G @ theta - b
            if ridge:
                ref = ref + ridge * theta
            assert np.array_equal(grad(theta), ref)
            assert np.array_equal(loss.grad(theta, data), ref)

    @pytest.mark.parametrize("ridge", [0.0, 0.35])
    def test_squared_error_row_route(self, rng, monkeypatch, ridge):
        def no_gram(self):
            raise AssertionError("Gram statistics built for p >= n")

        monkeypatch.setattr(Dataset, "gram", no_gram)
        for n, p in [(6, 6), (4, 9)]:
            data = Dataset(X=rng.uniform(-1, 1, (n, p)), y=rng.uniform(-1, 1, n))
            loss = SquaredError(ridge=ridge)
            grad = loss.bound_grad(data)
            for theta in self.thetas(rng, p):
                ref = row_grad(theta, data.X, data.y)
                if ridge:
                    ref = ref + ridge * theta
                assert np.array_equal(grad(theta), ref)
                assert np.array_equal(loss.grad(theta, data), ref)

    def test_huber(self, rng):
        data = lasso_dataset(rng, n=200, p=6)
        loss = Huber(0.3)
        grad = loss.bound_grad(data)
        for theta in self.thetas(rng, 6):
            r = np.clip(data.X @ theta - data.y, -0.3, 0.3)
            ref = (data.X.T @ r) / data.n
            assert np.array_equal(grad(theta), ref)
            assert np.array_equal(loss.grad(theta, data), ref)

    def test_backend_is_resolved_once(self, rng, monkeypatch):
        data = lasso_dataset(rng, n=100, p=4)
        calls = Counter()
        gram = Dataset.gram

        def counting(self):
            calls["gram"] += 1
            return gram(self)

        monkeypatch.setattr(Dataset, "gram", counting)
        grad = SquaredError().bound_grad(data)
        for _ in range(20):
            grad(rng.standard_normal(4))
        assert calls == {"gram": 1}

    def test_empty_data_fails_when_bound(self):
        data = Dataset(X=np.zeros((0, 3)), y=np.zeros(0))
        for loss in (SquaredError(), SquaredError(ridge=0.1), Huber(0.5)):
            with pytest.raises(ValueError, match="empty"):
                loss.bound_grad(data)


class TestCurvatureMemo:
    """The curvature bound is computed once per (ridge, body key) and data."""

    def counting(self, monkeypatch):
        calls = []
        real = losses._quadratic_curvature_bound

        def counted(body, data, ridge):
            calls.append((type(body).__name__, ridge))
            return real(body, data, ridge)

        monkeypatch.setattr(losses, "_quadratic_curvature_bound", counted)
        return calls, real

    def test_once_per_ridge_and_body(self, rng, monkeypatch):
        data = lasso_dataset(rng, n=200, p=5)
        calls, real = self.counting(monkeypatch)
        values = {}
        for _ in range(3):
            for ridge in (0.0, 0.2):
                for make in (lambda: L1Ball(1.0, 5), lambda: L1Ball(0.5, 5), lambda: Simplex(5)):
                    body = make()
                    value = SquaredError(ridge=ridge).curvature_bound(body, data)
                    assert value == real(body, data, ridge)
                    values.setdefault((ridge, body.to_dict()["kind"], getattr(body, "radius", 0)),
                                      value)
        assert len(calls) == 6 == len(values)
        # Huber's bound is the ridge-free quadratic one: the same entry.
        assert Huber(0.1).curvature_bound(L1Ball(1.0, 5), data) == values[(0.0, "l1_ball", 1.0)]
        assert len(calls) == 6
        # Another dataset has its own memo.
        SquaredError().curvature_bound(L1Ball(1.0, 5), lasso_dataset(rng, n=200, p=5))
        assert len(calls) == 7

    def test_body_without_a_key_computes_every_time(self, rng, monkeypatch):
        class Unnamed(L1Ball):
            def to_dict(self):
                raise NotImplementedError

        data = lasso_dataset(rng, n=200, p=5)
        calls, real = self.counting(monkeypatch)
        body = Unnamed(1.0, 5)
        for _ in range(3):
            assert SquaredError().curvature_bound(body, data) == real(body, data, 0.0)
        assert len(calls) == 3
