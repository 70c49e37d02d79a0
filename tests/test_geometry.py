import math

import numpy as np
import pytest
from scipy.special import gammaln

from dperm.geometry import (
    ROW_BLOCK,
    Box,
    GroupedL1Ball,
    L1Ball,
    L2Ball,
    Polytope,
    Simplex,
    block_slices,
    body_from_dict,
    body_key,
    gaussian_width_mc,
    memo_by_body,
    row_abs_max,
    sample_feasible,
    symmetric_hull,
)

from conftest import random_small_polytope

TRIANGLE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
CROSS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


class TestContains:
    def test_l1_boundary(self):
        assert L1Ball(1.0, 2).contains([0.5, -0.5])

    def test_simplex_sum_violation(self):
        assert not Simplex(3).contains([0.5, 0.5, 0.1])

    def test_polytope_interior(self):
        # Independent check: (0,0) = (1/3)(1,0) + (1/3)(0,1) + (1/3)(-1,-1).
        w = np.full(3, 1.0 / 3.0)
        assert np.allclose(TRIANGLE.T @ w, [0.0, 0.0])
        assert Polytope(TRIANGLE).contains([0.0, 0.0])

    def test_polytope_exterior(self):
        assert not Polytope(TRIANGLE).contains([2.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            L1Ball(1.0, 2).contains([1.0, 0.0, 0.0])

    def test_symmetric_kinds_negate(self, rng):
        for body in [L1Ball(0.7, 4), L2Ball(2.0, 4), GroupedL1Ball(1.0, 2, 4),
                     Polytope(np.vstack([CROSS, 1.5 * CROSS]))]:
            for _ in range(20):
                x = sample_feasible(body, rng)
                assert body.contains(x) and body.contains(-x)

    def test_lmo_always_feasible(self, rng):
        bodies = [L1Ball(1.0, 4), L2Ball(1.3, 4), Simplex(4),
                  Polytope(TRIANGLE), GroupedL1Ball(1.0, 2, 4),
                  Box(lo=-np.ones(4), hi=np.ones(4))]
        for body in bodies:
            for _ in range(25):
                d = rng.standard_normal(body.dimension)
                assert body.contains(body.lmo(d))


class TestLmo:
    def test_l1_example(self):
        out = L1Ball(1.0, 3).lmo([1.0, -3.0, 2.0])
        assert np.allclose(out, [0.0, 1.0, 0.0])
        assert np.dot(out, [1.0, -3.0, 2.0]) == -3.0

    def test_l2_example(self):
        assert np.allclose(L2Ball(1.0, 2).lmo([3.0, 4.0]), [-0.6, -0.8])

    def test_simplex_example(self):
        assert np.allclose(Simplex(3).lmo([0.2, -0.1, 0.5]), [0.0, 1.0, 0.0])

    def test_nan_direction_rejected(self):
        with pytest.raises(ValueError):
            L1Ball(1.0, 2).lmo([np.nan, 0.0])

    def test_zero_direction_deterministic(self):
        b = L1Ball(1.0, 3)
        out = b.lmo([0.0, 0.0, 0.0])
        assert np.allclose(out, out)
        assert b.contains(out)
        # Lowest-index vertex of the enumeration wins.
        assert np.allclose(out, b.vertices()[0])

    def test_polytope_tie_lowest_index(self):
        V = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = Polytope(V).lmo([0.0, 1.0])
        assert np.allclose(out, V[0])

    def test_lmo_optimality_random_polytopes(self, rng):
        # <d, lmo(d)> <= <d, v> for every vertex (exact) and <= <d, x> for
        # random feasible x (tolerance 1e-9); 1000 directions total.
        n_polytopes = 20
        for _ in range(n_polytopes):
            body = Polytope(random_small_polytope(rng))
            feas = np.array([sample_feasible(body, rng) for _ in range(100)])
            for _ in range(1000 // n_polytopes):
                d = rng.standard_normal(body.dimension)
                best = float(d @ body.lmo(d))
                assert best <= (body.vertex_array @ d).min() + 1e-12
                assert best <= (feas @ d).min() + 1e-9

    def test_lmo_optimality_other_bodies(self, rng):
        for body in [L1Ball(1.4, 5), L2Ball(0.8, 5), Simplex(5),
                     GroupedL1Ball(1.0, 2, 5), Box(lo=-np.ones(5), hi=2 * np.ones(5))]:
            feas = np.array([sample_feasible(body, rng) for _ in range(100)])
            for _ in range(50):
                d = rng.standard_normal(5)
                assert float(d @ body.lmo(d)) <= (feas @ d).min() + 1e-9


class TestMinkowskiNorm:
    def test_l1(self):
        assert L1Ball(1.0, 2).minkowski_norm([0.3, -0.7]) == pytest.approx(1.0)

    def test_l2(self):
        assert L2Ball(2.0, 2).minkowski_norm([3.0, 4.0]) == pytest.approx(2.5)

    def test_cross_polytope_is_l1(self, rng):
        # For the cross-polytope the coefficient program min sum|a| with
        # sum a_i v_i = v separates per coordinate, giving exactly ||v||_1.
        body = Polytope(CROSS)
        assert body.minkowski_norm([1.0, 1.0]) == pytest.approx(2.0, abs=1e-9)
        for _ in range(10):
            v = rng.standard_normal(2)
            assert body.minkowski_norm(v) == pytest.approx(np.abs(v).sum(), abs=1e-8)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Simplex(3).minkowski_norm([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            Polytope(TRIANGLE).minkowski_norm([0.1, 0.1])

    def test_outside_span_rejected(self):
        flat = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            flat.minkowski_norm([0.0, 1.0])

    def test_scaling(self, rng):
        for body in [L1Ball(0.5, 4), L2Ball(2.0, 4), GroupedL1Ball(1.0, 2, 4),
                     Polytope(np.vstack([np.eye(4), -np.eye(4)]))]:
            v = rng.standard_normal(4)
            base = body.minkowski_norm(v)
            for c in [0.25, 3.0]:
                assert body.minkowski_norm(c * v) == pytest.approx(c * base, rel=1e-7)

    def test_holder_duality(self, rng):
        bodies = [L1Ball(1.0, 4), L2Ball(1.5, 4), GroupedL1Ball(1.0, 2, 4),
                  Polytope(np.vstack([CROSS, -CROSS]) @ np.eye(2))]
        for body in bodies:
            p = body.dimension
            for _ in range(50):
                v = rng.standard_normal(p)
                w = rng.standard_normal(p)
                lhs = abs(float(v @ w))
                assert body.minkowski_norm(v) * body.dual_norm(w) >= lhs - 1e-9


class TestDualNorm:
    def test_l1_dual_is_linf(self):
        assert L1Ball(1.0, 3).dual_norm([1.0, -3.0, 2.0]) == pytest.approx(3.0)

    def test_l2_self_dual(self):
        assert L2Ball(1.0, 2).dual_norm([3.0, 4.0]) == pytest.approx(5.0)

    def test_simplex_vertex_enumeration(self):
        v = np.array([0.2, -0.1, 0.5])
        expected = max(abs(float(e @ v)) for e in np.eye(3))
        assert expected == pytest.approx(0.5)
        assert Simplex(3).dual_norm(v) == pytest.approx(0.5)

    def test_matches_lmo_form(self, rng):
        # dual(v) = max(|<v, lmo(v)>|, |<v, lmo(-v)>|) for any body.
        bodies = [L1Ball(1.0, 4), L2Ball(2.0, 4), Simplex(4),
                  Polytope(random_small_polytope(rng)), GroupedL1Ball(1.5, 2, 4),
                  Box(lo=-np.ones(4), hi=3 * np.ones(4))]
        for body in bodies:
            p = body.dimension
            G = rng.standard_normal((25, p))
            rows = body.dual_norms(G)
            assert rows.shape == (25,)
            for v, row in zip(G, rows):
                via_lmo = max(abs(float(v @ body.lmo(v))), abs(float(v @ body.lmo(-v))))
                assert body.dual_norm(v) == pytest.approx(via_lmo, rel=1e-10, abs=1e-12)
                assert row == pytest.approx(via_lmo, rel=1e-10, abs=1e-12)

    def test_box_rows_match_row_loop(self, rng):
        # The vectorised box form sums each row in the same order as the
        # one-row formula it replaced, so the values are equal, not close.
        body = Box(lo=-rng.uniform(0.5, 2.0, 300), hi=rng.uniform(0.5, 2.0, 300))
        G = rng.standard_normal((40, 300))

        def one_row(v):
            hi_val = np.where(v > 0, body.hi * v, body.lo * v).sum()
            lo_val = np.where(v > 0, body.lo * v, body.hi * v).sum()
            return float(max(abs(hi_val), abs(lo_val)))

        assert np.array_equal(body.dual_norms(G), [one_row(v) for v in G])


class TestDiametersAndRadii:
    def test_l2_ball_diameter(self):
        assert L2Ball(1.0, 5).l2_diameter() == pytest.approx(2.0)

    def test_l1_radius(self):
        assert L1Ball(1.0, 5).l1_radius() == pytest.approx(1.0)

    def test_triangle_diameter(self):
        # Enumerate the three vertex pairs by hand.
        pairs = [(0, 1), (0, 2), (1, 2)]
        expected = max(np.linalg.norm(TRIANGLE[i] - TRIANGLE[j]) for i, j in pairs)
        assert expected == pytest.approx(math.sqrt(5.0))
        assert Polytope(TRIANGLE).l2_diameter() == pytest.approx(math.sqrt(5.0))

    def test_polytope_l1_radius_at_vertices(self, rng):
        V = random_small_polytope(rng)
        assert Polytope(V).l1_radius() == pytest.approx(np.abs(V).sum(axis=1).max())

    def test_box(self):
        box = Box(lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 2.0]))
        assert box.l2_diameter() == pytest.approx(math.sqrt(4 + 4))
        assert box.l1_radius() == pytest.approx(3.0)


class TestGaussianWidth:
    def test_singleton_zero(self):
        est = gaussian_width_mc(Polytope(np.zeros((1, 3))), samples=100, seed=0)
        assert est.mean == 0.0

    def test_l2_ball_chi_mean(self):
        # Closed form: E||g||_2 = sqrt(2) Gamma(32.5)/Gamma(32) for p = 64.
        p = 64
        expected = math.sqrt(2.0) * math.exp(gammaln((p + 1) / 2) - gammaln(p / 2))
        est = gaussian_width_mc(L2Ball(1.0, p), samples=100_000, seed=3)
        assert expected == pytest.approx(7.9687, abs=1e-3)
        assert est.mean == pytest.approx(expected, rel=0.01)

    def test_l1_ball_against_independent_mc(self):
        # Independent oracle: legacy MT19937 generator, plain loop over
        # max|g| draws.
        p = 64
        legacy = np.random.RandomState(987654)
        draws = np.abs(legacy.standard_normal((200_000, p))).max(axis=1)
        expected = draws.mean()
        est = gaussian_width_mc(L1Ball(1.0, p), samples=100_000, seed=99)
        assert est.mean == pytest.approx(expected, rel=0.03)

    def test_deterministic_per_seed(self):
        a = gaussian_width_mc(L1Ball(1.0, 16), samples=5000, seed=42)
        b = gaussian_width_mc(L1Ball(1.0, 16), samples=5000, seed=42)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_scaling_exact_at_matched_seed(self):
        base = gaussian_width_mc(L1Ball(1.0, 8), samples=20_000, seed=5)
        scaled = gaussian_width_mc(L1Ball(2.5, 8), samples=20_000, seed=5)
        assert scaled.mean == pytest.approx(2.5 * base.mean, rel=1e-12)
        pv = gaussian_width_mc(Polytope(CROSS), samples=20_000, seed=5)
        pv3 = gaussian_width_mc(Polytope(3.0 * CROSS), samples=20_000, seed=5)
        assert pv3.mean == pytest.approx(3.0 * pv.mean, rel=1e-12)

    def test_l1_width_below_l2_width(self):
        for p in [2, 16, 128]:
            w1 = gaussian_width_mc(L1Ball(1.0, p), samples=10_000, seed=7)
            w2 = gaussian_width_mc(L2Ball(1.0, p), samples=10_000, seed=7)
            assert w1.mean <= w2.mean

    def test_std_error_shrinks(self):
        small = gaussian_width_mc(L2Ball(1.0, 8), samples=1000, seed=1)
        large = gaussian_width_mc(L2Ball(1.0, 8), samples=100_000, seed=1)
        assert large.std_error < small.std_error


class TestEuclideanProject:
    def test_l2_example(self):
        assert np.allclose(L2Ball(1.0, 2).euclidean_project([3.0, 4.0]), [0.6, 0.8])

    def test_simplex_symmetry(self):
        out = Simplex(3).euclidean_project([0.4, 0.4, 0.4])
        assert np.allclose(out, np.full(3, 1.0 / 3.0))

    def test_l1_threshold(self):
        # KKT threshold tau = 0.2, verified by grid search over tau.
        x = np.array([0.9, 0.5, 0.0])
        taus = np.linspace(0.0, 0.9, 10_000)
        norms = np.array([np.maximum(np.abs(x) - t, 0.0).sum() for t in taus])
        tau_star = taus[np.argmin(np.abs(norms - 1.0))]
        assert tau_star == pytest.approx(0.2, abs=1e-3)
        out = L1Ball(1.0, 3).euclidean_project(x)
        assert np.allclose(out, [0.7, 0.3, 0.0], atol=1e-12)

    def test_polytope_unsupported(self):
        with pytest.raises(NotImplementedError):
            Polytope(TRIANGLE).euclidean_project([0.0, 0.0])

    def test_projection_optimality(self, rng):
        bodies = [L1Ball(1.0, 5), L2Ball(1.0, 5), Simplex(5),
                  Box(lo=-np.ones(5), hi=np.ones(5)), GroupedL1Ball(1.0, 2, 5)]
        for body in bodies:
            for _ in range(10):
                x = 3.0 * rng.standard_normal(5)
                proj = body.euclidean_project(x)
                assert body.contains(proj)
                for _ in range(100):
                    theta = sample_feasible(body, rng)
                    assert float((x - proj) @ (theta - proj)) <= 1e-8

    def test_interior_point_unchanged(self, rng):
        for body in [L1Ball(1.0, 4), L2Ball(1.0, 4), Box(lo=-np.ones(4), hi=np.ones(4))]:
            x = sample_feasible(body, rng) * 0.5
            assert np.allclose(body.euclidean_project(x), x)


class TestSymmetricHull:
    def test_simplex_hull_is_l1_ball(self):
        hull = symmetric_hull(Simplex(4))
        assert isinstance(hull, L1Ball) and hull.radius == 1.0

    def test_symmetric_bodies_unchanged(self):
        b = L2Ball(2.0, 3)
        assert symmetric_hull(b) is b

    def test_polytope_hull_contains_negations(self):
        hull = symmetric_hull(Polytope(TRIANGLE))
        for v in TRIANGLE:
            assert hull.contains(v) and hull.contains(-v)

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        """The list of ``geometry.linprog`` calls, with a fresh body memo."""
        import dperm.geometry as geometry

        calls = []
        real = geometry.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "linprog", counting)
        monkeypatch.setattr(geometry, "_body_memo", geometry.Memo())  # as in a fresh process
        return calls

    def test_polytope_symmetry_solves_its_lps_once(self, lp_calls):
        # Symmetric, but the interior point has no negation in the list, so
        # the rows do not pair up and each vertex takes its hull LP.
        V = np.vstack([CROSS, [0.1, 0.2]])
        poly = Polytope(V)
        assert poly.is_symmetric
        assert len(lp_calls) == len(V)  # one hull LP per vertex
        assert poly.is_symmetric
        assert symmetric_hull(poly) is poly
        assert len(lp_calls) == len(V)
        poly.minkowski_norm([0.5, 0.0])
        assert len(lp_calls) == len(V) + 1  # the norm's own coefficient LP
        # Another polytope with the same vertex list reads the memo.
        again = Polytope(V.copy())
        assert again.is_symmetric and symmetric_hull(again) is again
        assert len(lp_calls) == len(V) + 1

    def test_row_paired_vertices_need_no_lp(self, lp_calls):
        # -V is a row permutation of V: symmetric with no LP at all.
        assert Polytope(CROSS).is_symmetric
        assert Polytope(np.vstack([CROSS[::-1], [[0.3, -0.2], [-0.3, 0.2]]])).is_symmetric
        assert lp_calls == []
        # An asymmetric list falls back to the LPs and still fails.
        assert not Polytope(TRIANGLE).is_symmetric
        assert len(lp_calls) >= 1


class TestBodyKey:
    def test_equal_bodies_share_a_key(self):
        assert body_key(L1Ball(1.0, 3)) == body_key(body_from_dict(L1Ball(1.0, 3).to_dict()))
        assert body_key(L1Ball(1.0, 3)) != body_key(L1Ball(2.0, 3))
        assert body_key(Polytope(CROSS)) != body_key(Polytope(-CROSS))

    def test_body_without_a_document_is_not_memoised(self):
        class Bare(L2Ball):
            def to_dict(self):
                raise NotImplementedError

        calls = []
        body = Bare(1.0, 2)
        assert body_key(body) is None
        for _ in range(2):
            assert memo_by_body(body, "test", lambda: calls.append(1) or 7) == 7
        assert len(calls) == 2

    def test_row_abs_max_matches_abs_max(self, rng):
        # Three blocks of rows, the last one short.
        G = rng.standard_normal((2 * ROW_BLOCK + 5, 3))
        G[3] = 0.0
        G[-1] = -2.0
        assert np.array_equal(row_abs_max(G), np.abs(G).max(axis=1))
        assert row_abs_max(G[:0]).shape == (0,)


class TestBlockSlices:
    def test_contiguous_blocks_with_a_short_last_one(self):
        assert block_slices(10, 4) == [slice(0, 4), slice(4, 8), slice(8, 10)]
        assert block_slices(6, 3) == [slice(0, 3), slice(3, 6)]
        assert block_slices(5, 5) == [slice(0, 5)]


class TestSerialization:
    def test_round_trip(self):
        bodies = [L1Ball(1.5, 3), L2Ball(0.5, 2), Simplex(4), Polytope(TRIANGLE),
                  GroupedL1Ball(1.0, 2, 6), Box(lo=-np.ones(2), hi=np.ones(2))]
        for body in bodies:
            again = body_from_dict(body.to_dict())
            assert type(again) is type(body)
            assert again.dimension == body.dimension

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            body_from_dict({"kind": "moebius"})


class TestValidation:
    def test_bad_radius(self):
        with pytest.raises(ValueError):
            L2Ball(-1.0, 3)

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            Polytope(np.zeros((10_001, 2)))

    def test_width_estimate_fields(self):
        est = gaussian_width_mc(L2Ball(1.0, 4), samples=10, seed=0)
        assert est.samples == 10 and est.mean >= 0 and est.std_error >= 0
