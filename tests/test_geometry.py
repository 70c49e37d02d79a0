import itertools
import json
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
    body_from_dict,
    body_key,
    gaussian_width_mc,
    memo_by_body,
    row_abs_max,
    symmetric_hull,
)

from conftest import random_small_polytope
from reference import gauge, project_l1_sorted, project_simplex_sorted, sample_feasible

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


class TestLmoTies:
    @pytest.mark.parametrize("direction,index", [
        ([-1.0, -1.0, 1.0], 0),   # +e_1, +e_2 and -e_3 tie
        ([2.0, 0.0, -2.0], 2),    # +e_3 and -e_1 tie
        ([1.0, 1.0, 1.0], 3),     # the three -e_i tie
    ])
    def test_l1_ball_ties_go_to_the_lowest_vertex_index(self, direction, index):
        body = L1Ball(0.5, 3)
        V = body.vertices()
        assert int(np.argmin(V @ np.asarray(direction))) == index
        assert np.array_equal(body.lmo(direction), V[index])


class TestVertexScores:
    @pytest.mark.parametrize("body", [
        L1Ball(1.0, 7), L1Ball(0.3, 7), L1Ball(2.5, 1), Simplex(7), Simplex(1),
        Polytope(np.random.default_rng(5).standard_normal((9, 7))),
    ], ids=["l1", "l1_small", "l1_p1", "simplex", "simplex_p1", "polytope"])
    def test_equal_to_the_vertex_product(self, rng, body):
        p = body.dimension
        directions = [rng.standard_normal(p) for _ in range(50)]
        directions += [np.zeros(p), np.ones(p), -np.ones(p), 1e-300 * rng.standard_normal(p),
                       1e300 * rng.standard_normal(p)]
        for g in directions:
            scores = body.vertex_scores(g)
            assert scores.shape == (body.vertices().shape[0],)
            assert np.array_equal(scores, body.vertices() @ g)


class TestMinkowskiNorm:
    def test_holder_duality(self, rng):
        bodies = [L1Ball(1.0, 4), L2Ball(1.5, 4), GroupedL1Ball(1.0, 2, 4),
                  Polytope(np.vstack([CROSS, -CROSS]) @ np.eye(2))]
        for body in bodies:
            p = body.dimension
            for _ in range(50):
                v = rng.standard_normal(p)
                w = rng.standard_normal(p)
                lhs = abs(float(v @ w))
                assert gauge(body, v) * body.dual_norms(w[None, :])[0] >= lhs - 1e-9


class TestDualNorm:
    def test_l1_dual_is_linf(self):
        assert L1Ball(1.0, 3).dual_norms(np.array([[1.0, -3.0, 2.0]]))[0] == pytest.approx(3.0)

    def test_l2_self_dual(self):
        assert L2Ball(1.0, 2).dual_norms(np.array([[3.0, 4.0]]))[0] == pytest.approx(5.0)

    def test_simplex_vertex_enumeration(self):
        v = np.array([0.2, -0.1, 0.5])
        expected = max(abs(float(e @ v)) for e in np.eye(3))
        assert expected == pytest.approx(0.5)
        assert Simplex(3).dual_norms(v[None, :])[0] == pytest.approx(0.5)

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
                assert body.dual_norms(v[None, :])[0] == pytest.approx(via_lmo, rel=1e-10,
                                                                       abs=1e-12)
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
        assert L1Ball(1.0, 5).max_norm(1) == pytest.approx(1.0)

    def test_triangle_diameter(self):
        # Enumerate the three vertex pairs by hand.
        pairs = [(0, 1), (0, 2), (1, 2)]
        expected = max(np.linalg.norm(TRIANGLE[i] - TRIANGLE[j]) for i, j in pairs)
        assert expected == pytest.approx(math.sqrt(5.0))
        assert Polytope(TRIANGLE).l2_diameter() == pytest.approx(math.sqrt(5.0))

    def test_polytope_l1_radius_at_vertices(self, rng):
        V = random_small_polytope(rng)
        assert Polytope(V).max_norm(1) == pytest.approx(np.abs(V).sum(axis=1).max())

    def test_box(self):
        box = Box(lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 2.0]))
        assert box.l2_diameter() == pytest.approx(math.sqrt(4 + 4))
        assert box.max_norm(1) == pytest.approx(3.0)


NORM_ORDERS = (1, 2, math.inf)


def unit(p: int, i: int = 0) -> np.ndarray:
    return np.eye(p)[i]


class TestMaxNorm:
    """``max_norm(q)``, max over C of ||theta||_q, for every body kind."""

    @pytest.mark.parametrize("body", [L1Ball(0.7, 5), Simplex(4), Polytope(TRIANGLE),
                                      Polytope(2.5 * CROSS)],
                             ids=["l1_ball", "simplex", "triangle", "cross"])
    def test_vertex_bodies_take_the_largest_vertex_norm(self, body):
        for q in NORM_ORDERS:
            expected = max(float(np.linalg.norm(v, q)) for v in body.vertices())
            assert body.max_norm(q) == pytest.approx(expected, rel=1e-15)

    def test_random_polytopes(self, rng):
        for _ in range(20):
            V = random_small_polytope(rng)
            for q in NORM_ORDERS:
                expected = max(float(np.linalg.norm(v, q)) for v in V)
                assert Polytope(V).max_norm(q) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("lo,hi", [
        ([-1.0], [2.0]),
        ([-3.0, -1.0], [1.0, 3.0]),
        ([-2.0, -2.0, -2.0], [2.0, 2.0, 2.0]),
        ([0.5, -4.0, -1.0, 0.0], [1.0, 1.0, 3.0, 0.25]),
    ], ids=["p1", "p2-asymmetric", "p3-symmetric", "p4-asymmetric"])
    def test_box_is_its_farthest_corner(self, lo, hi):
        box = Box(lo=np.array(lo), hi=np.array(hi))
        corners = [np.array(c) for c in itertools.product(*zip(lo, hi))]
        assert len(corners) == 2 ** len(lo)
        for q in NORM_ORDERS:
            expected = max(float(np.linalg.norm(c, q)) for c in corners)
            assert box.max_norm(q) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("body,attained", [
        (L2Ball(1.5, 6), {1: np.full(6, 1.5 / math.sqrt(6)), 2: 1.5 * unit(6),
                          math.inf: 1.5 * unit(6)}),
        # Blocks of 3, 3 and 1 coordinates: the l1 maximum spreads over a
        # full block, not the short last one.
        (GroupedL1Ball(1.5, 3, 7), {1: np.r_[np.full(3, 1.5 / math.sqrt(3)), np.zeros(4)],
                                    2: 1.5 * unit(7, 6), math.inf: 1.5 * unit(7, 3)}),
    ], ids=["l2_ball", "grouped_l1_ball"])
    def test_balls_attain_it_and_no_point_exceeds_it(self, rng, body, attained):
        points = np.array([body.euclidean_project(x)
                           for x in 3.0 * rng.standard_normal((10_000, body.dimension))])
        for q in NORM_ORDERS:
            bound = body.max_norm(q)
            assert body.contains(attained[q])
            assert float(np.linalg.norm(attained[q], q)) == pytest.approx(bound, rel=1e-15)
            assert np.linalg.norm(points, q, axis=1).max() <= bound * (1 + 1e-12)


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


class TestProjectionBits:
    """The l1-ball and simplex projections return the same bits as the
    sort-based rule in ``reference``, signed zeros included."""

    @staticmethod
    def same_bits(a, b) -> bool:
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    @staticmethod
    def cases(rng, p):
        out = [3.0 * rng.standard_normal(p) for _ in range(40)]   # mostly outside
        out += [0.05 * rng.standard_normal(p) for _ in range(10)]  # inside
        tied = np.round(2.0 * rng.standard_normal(p))              # many equal magnitudes
        out += [tied, np.abs(tied), np.full(p, 0.7), -np.full(p, 0.7), np.zeros(p)]
        spread = rng.standard_normal(p)
        out.append(spread / np.abs(spread).sum())                  # on the boundary
        unit = np.zeros(p)
        unit[p // 2] = -1.0                                        # a vertex
        signed_zero = 3.0 * rng.standard_normal(p)
        signed_zero[0] = -0.0
        out += [unit, signed_zero]
        return out

    @pytest.mark.parametrize("p", [1, 2, 5, 50])
    @pytest.mark.parametrize("radius", [1.0, 0.3])
    def test_l1_ball(self, rng, p, radius):
        body = L1Ball(radius, p)
        for x in self.cases(rng, p):
            for v in (x, radius * x):
                assert self.same_bits(body.euclidean_project(v), project_l1_sorted(v, radius))

    @pytest.mark.parametrize("p", [1, 2, 5, 50])
    def test_simplex(self, rng, p):
        body = Simplex(p)
        for x in self.cases(rng, p) + [np.full(p, 1.0 / p), -self.cases(rng, p)[-2]]:
            assert self.same_bits(body.euclidean_project(x), project_simplex_sorted(x, 1.0))

    def test_input_is_not_written(self, rng):
        x = 3.0 * rng.standard_normal(6)
        before = x.copy()
        L1Ball(1.0, 6).euclidean_project(x)
        Simplex(6).euclidean_project(x)
        assert np.array_equal(x, before)


class TestSymmetricHull:
    def test_simplex_hull_is_l1_ball(self):
        hull = symmetric_hull(Simplex(4))
        assert isinstance(hull, L1Ball) and hull.radius == 1.0

    def test_symmetric_bodies_unchanged(self):
        b = L2Ball(2.0, 3)
        assert symmetric_hull(b) is b

    def test_box_hull_is_the_farthest_corner_box(self):
        hull = symmetric_hull(Box(lo=np.array([-1.0, -3.0]), hi=np.array([2.0, 1.0])))
        assert np.array_equal(hull.lo, [-2.0, -3.0]) and np.array_equal(hull.hi, [2.0, 3.0])
        # A box within allclose's tolerance of symmetric is not taken as its own hull.
        hull = symmetric_hull(Box(lo=np.full(2, -5.00004), hi=np.full(2, 5.0)))
        assert np.array_equal(hull.lo, -hull.hi) and np.array_equal(hull.hi, [5.00004] * 2)

    def test_polytope_hull_contains_negations(self):
        hull = symmetric_hull(Polytope(TRIANGLE))
        for v in TRIANGLE:
            assert hull.contains(v) and hull.contains(-v)

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        """The list of ``scipy.optimize.linprog`` calls, the name that
        ``Polytope.contains`` imports when it runs."""
        import scipy.optimize

        calls = []
        real = scipy.optimize.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting)
        return calls

    def test_hull_adds_only_the_missing_negations(self, lp_calls):
        # The interior point has no negation in the list, so only its
        # negation is appended; the cross already holds its own.
        V = np.vstack([CROSS, [0.1, 0.2]])
        hull = symmetric_hull(Polytope(V))
        assert np.array_equal(hull.vertex_array, np.vstack([V, [[-0.1, -0.2]]]))
        # Without a shared row, V followed by all of -V.
        assert np.array_equal(symmetric_hull(Polytope(TRIANGLE)).vertex_array,
                              np.vstack([TRIANGLE, -TRIANGLE]))
        assert lp_calls == []

    def test_row_paired_vertices_need_no_lp(self, lp_calls):
        # -V is a row permutation of V: the polytope is its own hull.
        for V in (CROSS, np.vstack([CROSS[::-1], [[0.3, -0.2], [-0.3, 0.2]]]),
                  np.array([[0.0, 1.0], [0.0, -1.0]])):  # -V's -0.0 pairs with 0.0
            poly = Polytope(V)
            assert symmetric_hull(poly) is poly
        assert lp_calls == []


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
            assert memo_by_body(body, ("test",), lambda: calls.append(1) or 7) == 7
        assert len(calls) == 2

    def test_row_abs_max_matches_abs_max(self, rng):
        # Three blocks of rows, the last one short.
        G = rng.standard_normal((2 * ROW_BLOCK + 5, 3))
        G[3] = 0.0
        G[-1] = -2.0
        assert np.array_equal(row_abs_max(G), np.abs(G).max(axis=1))
        assert row_abs_max(G[:0]).shape == (0,)


class TestBlockLayout:
    @pytest.mark.parametrize("p,g", [(10, 4), (7, 3), (5, 5), (6, 1)])
    def test_blocks_round_trip_with_zero_padding(self, rng, p, g):
        ball = GroupedL1Ball(1.0, g, p)
        m = -(-p // g)
        for shape in ((p,), (3, p)):
            v = rng.standard_normal(shape)
            B = ball.blocks(v)
            assert B.shape == shape[:-1] + (m, g)
            assert np.array_equal(ball.unblock(B), v)
            # Block j holds coordinates j*g .. j*g + g - 1; the rest is padding.
            flat = B.reshape(shape[:-1] + (m * g,))
            assert np.array_equal(flat[..., :p], v)
            assert np.all(flat[..., p:] == 0.0)


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

    @pytest.mark.parametrize("build", [
        lambda: L1Ball(math.nan, 3), lambda: L2Ball(math.inf, 3),
        lambda: GroupedL1Ball(math.nan, 1, 3),
        lambda: Box(lo=np.array([-1.0, math.nan]), hi=np.ones(2)),
        lambda: Box(lo=-np.ones(2), hi=np.array([1.0, math.inf])),
        lambda: Polytope(np.array([[0.0, 1.0], [math.nan, 0.0]])),
    ], ids=["l1_nan", "l2_inf", "grouped_nan", "box_lo_nan", "box_hi_inf", "polytope_nan"])
    def test_non_finite_parameters_are_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_nan_radius_from_json_fails_before_a_run(self):
        doc = json.loads('{"kind": "l1_ball", "radius": NaN, "dimension": 3}')
        with pytest.raises(ValueError, match="l1_ball body 'radius' must be a finite number"):
            body_from_dict(doc)

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            Polytope(np.zeros((10_001, 2)))

    def test_width_estimate_fields(self):
        est = gaussian_width_mc(L2Ball(1.0, 4), samples=10, seed=0)
        assert est.samples == 10 and est.mean >= 0 and est.std_error >= 0
