import csv
import pickle

import numpy as np
import pytest

from dperm.geometry import Box, GroupedL1Ball, L1Ball, L2Ball, Polytope, Simplex, sample_feasible
from dperm.losses import (
    CustomLoss,
    Dataset,
    Huber,
    SquaredError,
    loss_from_dict,
    loss_key,
)
from dperm.oracle import solve_exact


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

    def test_csv_round_trip(self, tmp_path, rng):
        data = lasso_dataset(rng, n=17, p=3)
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{j + 1}" for j in range(data.p)] + ["y"])
            for x, y in data.records():
                writer.writerow([repr(float(v)) for v in x] + [repr(y)])
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
        assert np.allclose(sq.grad_single(np.zeros(2), [0.3, -0.2], 0.8),
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
        singles = np.mean([sq.grad_single(theta, x, y) for x, y in data.records()], axis=0)
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
        # Maximize ||grad_single||_inf over random feasible (theta, x, y)
        # from the sparse-regression domain; the declared bound must hold.
        sq = SquaredError()
        body = L1Ball(1.0, 6)
        data = lasso_dataset(rng, n=400, p=6)
        L1, L2 = sq.lipschitz_constants(body, data)
        worst_inf = worst_two = 0.0
        idx = rng.integers(0, data.n, size=10_000)
        for i in idx:
            theta = sample_feasible(body, rng)
            g = sq.grad_single(theta, data.X[i], float(data.y[i]))
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
            g = spec.grad_single(theta, data.X[i], float(data.y[i]))
            assert np.abs(g).max() <= L1 + 1e-12
            assert np.linalg.norm(g) <= L2 + 1e-12


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
            loss_single=lambda th, x, y: float(np.dot(x, th)) - y,
            grad_single=lambda th, x, y: np.asarray(x, dtype=float),
            constants={"l1_lipschitz": 1.0, "l2_lipschitz": 1.0, "curvature": 0.0,
                       "lambda_min": 0.0, "lambda_max": 0.0},
        )
        data = lasso_dataset(rng, n=20, p=3)
        emp = lin.curvature_empirical(L1Ball(1.0, 3), data, trials=100, seed=1)
        assert emp == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional_supremum_is_four(self):
        # C = [-1, 1], single record x = 1, y = 0: the curvature expression
        # equals (theta2 - theta1)^2, maximized at 4 over the box.
        data = Dataset(X=np.array([[1.0]]), y=np.array([0.0]))
        body = Box(lo=np.array([-1.0]), hi=np.array([1.0]))
        sq = SquaredError()
        assert sq.curvature_bound(body, data) == pytest.approx(4.0)
        emp = sq.curvature_empirical(body, data, trials=20_000, seed=3)
        assert emp <= 4.0 + 1e-9
        assert emp >= 3.5

    def test_empirical_below_bound_random_instances(self, rng):
        sq = SquaredError()
        for _ in range(25):
            n = int(rng.integers(2, 17))
            p = int(rng.integers(1, 9))
            data = Dataset(X=rng.uniform(-1, 1, (n, p)), y=rng.uniform(-1, 1, n))
            body = L1Ball(1.0, p)
            bound = sq.curvature_bound(body, data)
            emp = sq.curvature_empirical(body, data, trials=40, seed=int(rng.integers(1e6)))
            assert emp <= bound + 1e-9


class TestHessianBounds:
    def test_rank_one_example(self):
        data = Dataset(X=np.array([[1.0, 1.0]]), y=np.array([0.0]))
        assert SquaredError().hessian_eig_bounds(L2Ball(1.0, 2), data) == (0.0, 2.0)

    def test_zero_feature(self):
        data = Dataset(X=np.zeros((1, 2)), y=np.array([0.0]))
        assert SquaredError().hessian_eig_bounds(L2Ball(1.0, 2), data) == (0.0, 0.0)

    def test_sign_rows(self, rng):
        p = 50
        X = rng.choice([-1.0, 1.0], size=(10, p))
        data = Dataset(X=X, y=np.zeros(10))
        lam_min, lam_max = SquaredError().hessian_eig_bounds(L2Ball(1.0, p), data)
        assert lam_max == pytest.approx(float(p))

    def test_one_dimensional_lambda_min(self):
        data = Dataset(X=np.array([[0.5], [1.0]]), y=np.zeros(2))
        lam_min, lam_max = SquaredError().hessian_eig_bounds(Box(np.array([-1.]), np.array([1.])), data)
        assert lam_min == pytest.approx(0.25) and lam_max == pytest.approx(1.0)


class TestCustomAndRidge:
    def test_custom_requires_constants(self, rng):
        spec = CustomLoss(lambda th, x, y: 0.0, lambda th, x, y: np.zeros(2),
                          constants={})
        data = lasso_dataset(rng, n=4, p=2)
        with pytest.raises(ValueError, match="never inferred"):
            spec.lipschitz_constants(L1Ball(1.0, 2), data)

    def test_ridge_matches_hand_formula(self, rng):
        data = lasso_dataset(rng, n=30, p=3)
        body = L1Ball(1.0, 3)
        spec = SquaredError(ridge=0.5)
        theta = 0.2 * rng.standard_normal(3)
        base = SquaredError()
        assert spec.loss(theta, data) == pytest.approx(
            base.loss(theta, data) + 0.25 * float(theta @ theta))
        assert np.allclose(spec.grad(theta, data),
                           base.grad(theta, data) + 0.5 * theta)
        assert spec.strong_convexity == 0.5
        lam_min, lam_max = spec.hessian_eig_bounds(body, data)
        assert lam_min == pytest.approx(0.5)

    def test_ridge_batch_matches_singles(self, rng):
        data = lasso_dataset(rng, n=12, p=3)
        spec = SquaredError(ridge=0.1)
        theta = 0.1 * rng.standard_normal(3)
        singles = np.mean([spec.grad_single(theta, x, y) for x, y in data.records()],
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
        top = max(float(np.linalg.norm(X[:, s], 2)) ** 2 for s in body._block_slices())
        assert close(SquaredError().curvature_bound(body, data), 4.0 * 1.3 ** 2 * top / n)

    def test_statistics_are_memoised(self, rng):
        data = lasso_dataset(rng, n=50, p=3)
        assert data.gram() is data.gram()
        assert data.row_sq_norms() is data.row_sq_norms()
        assert data.fingerprint() == Dataset(X=data.X.copy(), y=data.y.copy()).fingerprint()
        assert data.fingerprint() != Dataset(X=data.X, y=-data.y).fingerprint()
        body = L1Ball(1.0, 3)
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
        for stat in (data.gram().G, data.gram().b, data.row_sq_norms()):
            with pytest.raises(ValueError):
                stat[0] = 0.5
        with pytest.raises(AttributeError):
            data.X = X

    def test_pickle_round_trip_starts_a_fresh_memo(self, rng):
        data = lasso_dataset(rng, n=30, p=3)
        data.gram()
        again = pickle.loads(pickle.dumps(data))
        assert np.array_equal(again.X, data.X) and np.array_equal(again.y, data.y)
        assert again.fingerprint() == data.fingerprint()
        assert again.gram() is not data.gram()
        with pytest.raises(ValueError):
            again.X[0, 0] = 0.5
