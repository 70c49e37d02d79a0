import math

import numpy as np
import pytest

from dperm.geometry import (
    GroupedL1Ball,
    L1Ball,
    L2Ball,
    Polytope,
    Simplex,
    block_slices,
    sample_feasible,
    symmetric_hull,
)
from dperm.potentials import (
    GroupedL1,
    NegativeEntropy,
    PolytopeQNorm,
    SquaredL2,
    default_q_exponent,
    potential_from_dict,
)

CROSS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def make_cases(rng):
    """(potential, feasible body for iterates, Q body for the declared norm)."""
    hull_poly = Polytope(np.vstack([np.eye(3), -np.eye(3)]) * 1.3)
    qpot = PolytopeQNorm(hull_poly)
    return [
        (SquaredL2(4), L2Ball(1.0, 4), L2Ball(1.0, 4)),
        (NegativeEntropy(4), Simplex(4), L1Ball(1.0, 4)),
        (GroupedL1(8, 2), GroupedL1Ball(1.0, 2, 8), GroupedL1Ball(1.0, 2, 8)),
        (qpot, qpot.iterate_body(hull_poly), symmetric_hull(hull_poly)),
    ]


class TestValueGrad:
    def test_squared_l2_example(self):
        pot = SquaredL2(2)
        assert pot.value([3.0, 4.0]) == pytest.approx(12.5)
        assert np.allclose(pot.grad([3.0, 4.0]), [3.0, 4.0])

    def test_entropy_example(self):
        # Raw entropy sum is -ln 2; the potential carries a +ln p shift so it
        # is nonnegative on the simplex.
        pot = NegativeEntropy(2)
        raw = pot.value([0.5, 0.5]) - math.log(2)
        assert raw == pytest.approx(-0.693147, abs=1e-6)
        assert pot.value([0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)

    def test_entropy_rejects_negative(self):
        with pytest.raises(ValueError):
            NegativeEntropy(2).value([-0.5, 1.5])

    def test_gradient_finite_differences(self, rng):
        eps = 1e-6
        for pot, body, _ in make_cases(rng):
            for _ in range(10):
                x = sample_feasible(body, rng)
                # Keep strictly inside so one-sided kinks cannot bite.
                x = 0.5 * x + 0.5 * body.canonical_point()
                g = pot.grad(x)
                for i in range(0, x.size, 2):
                    e = np.zeros_like(x)
                    e[i] = eps
                    fd = (pot.value(x + e) - pot.value(x - e)) / (2 * eps)
                    assert abs(fd - g[i]) <= 1e-5


class TestBregman:
    def test_squared_l2_half_distance(self):
        pot = SquaredL2(2)
        assert pot.bregman([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_self_divergence_zero(self, rng):
        for pot, body, _ in make_cases(rng):
            x = sample_feasible(body, rng)
            assert pot.bregman(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_entropy_is_kl(self):
        pot = NegativeEntropy(2)
        a, b = np.array([0.5, 0.5]), np.array([0.9, 0.1])
        kl = float(np.sum(a * np.log(a / b)))
        assert kl == pytest.approx(0.510826, abs=1e-6)
        assert pot.bregman(a, b) == pytest.approx(kl, abs=1e-9)

    def test_nonnegative(self, rng):
        for pot, body, _ in make_cases(rng):
            for _ in range(50):
                a = sample_feasible(body, rng)
                b = sample_feasible(body, rng)
                assert pot.bregman(a, b) >= -1e-9


class TestMirrorStep:
    def test_squared_l2_is_projected_gradient(self, rng):
        pot = SquaredL2(5)
        body = L1Ball(1.0, 5)
        for _ in range(20):
            x = sample_feasible(body, rng)
            g = rng.standard_normal(5)
            eta = float(rng.uniform(0.01, 1.0))
            out = pot.mirror_step(body, x, g, eta)
            ref = body.euclidean_project(x - eta * g)
            assert np.abs(out - ref).max() <= 1e-10

    def test_entropy_multiplicative_weights_example(self):
        pot = NegativeEntropy(2)
        out = pot.mirror_step(Simplex(2), [0.5, 0.5], [math.log(2.0), 0.0], 1.0)
        assert np.allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)

    def test_zero_gradient_fixed_point(self, rng):
        for pot, body, _ in make_cases(rng):
            x = sample_feasible(body, rng)
            out = pot.mirror_step(body, x, np.zeros_like(x), 0.7)
            assert np.abs(out - x).max() <= 1e-8

    def test_variational_inequality(self, rng):
        for pot, body, _ in make_cases(rng):
            for _ in range(5):
                x = sample_feasible(body, rng)
                g = rng.standard_normal(x.size)
                eta = 0.2
                res = pot.mirror_step(body, x, g, eta)
                assert body.contains(res)
                direction = eta * g + pot.grad(res) - pot.grad(x)
                for _ in range(40):
                    theta = sample_feasible(body, rng)
                    assert float(direction @ (theta - res)) >= -1e-6

    def test_monotone_against_gradient(self, rng):
        for pot, body, _ in make_cases(rng):
            for _ in range(10):
                x = 0.5 * sample_feasible(body, rng) + 0.5 * body.canonical_point()
                g = rng.standard_normal(x.size)
                res = pot.mirror_step(body, x, g, 0.1)
                assert float(g @ (res - x)) <= 1e-10

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            SquaredL2(2).mirror_step(L2Ball(1.0, 2), [0.0, 0.0], [1.0, 0.0], 0.0)

    def test_nan_gradient_rejected(self):
        with pytest.raises(ValueError):
            SquaredL2(2).mirror_step(L2Ball(1.0, 2), [0.0, 0.0], [np.nan, 0.0], 0.1)


def qnorm_step_200(pot, x, g, eta):
    """The q-norm prox step with exactly 200 halvings, written out."""
    c = eta * g - pot.grad(x)
    q = pot.q
    expo = 1.0 / (q - 1.0)

    def beta(lam):
        return np.maximum(lam - c, 0.0) ** expo

    def gee(lam):
        b = beta(lam)
        total = b.sum()
        if total == 0.0:
            return 0.0
        nq = float(np.sum(b ** q)) ** (1.0 / q)
        return 2.0 * (q - 1.0) * nq ** (q - 2.0) * total

    lo = float(c.min())
    hi = lo + max(float(c.max() - c.min()), 1.0)
    while gee(hi) < 1.0:
        hi = lo + 2.0 * (hi - lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gee(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    b = beta(hi)
    return b / b.sum()


def grouped_step_200(pot, body, x, g, eta):
    """The grouped prox step with exactly 200 halvings, written out.

    Returns the step and whether it bisected (the unconstrained block
    norms summed above the radius).
    """
    c = eta * g - pot.grad(x)
    slices = block_slices(pot.dimension, pot.group_size)
    a = np.array([np.linalg.norm(c[s]) for s in slices])
    M, xi = pot.exponent, pot.scale_xi

    def norms_at(lam):
        return (xi * np.maximum(a - lam, 0.0)) ** (1.0 / (M - 1.0))

    t = norms_at(0.0)
    bisected = bool(t.sum() > body.radius)
    if bisected:
        lo, hi = 0.0, float(a.max())
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if norms_at(mid).sum() > body.radius:
                lo = mid
            else:
                hi = mid
        t = norms_at(hi)
    out = np.zeros_like(x)
    for s, aj, tj in zip(slices, a, t):
        if aj > 0.0 and tj > 0.0:
            out[s] = -(tj / aj) * c[s]
    return out, bisected


class TestProxRoot:
    """The prox steps solve their multiplier by Brent's method; the outputs
    match a fixed 200 halvings to rounding level and stay feasible."""

    def test_qnorm_steps_match_200_halvings(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 49))
            p = int(rng.integers(1, 8))
            pot = PolytopeQNorm(Polytope(rng.standard_normal((k, p))))
            x = rng.dirichlet(np.ones(k))
            g = rng.standard_normal(k) * 10.0 ** rng.uniform(-2, 2)
            eta = float(10.0 ** rng.uniform(-2, 1))
            body = pot.iterate_body(pot.polytope)
            out = pot.mirror_step(body, x, g, eta)
            ref = qnorm_step_200(pot, x, g, eta)
            assert np.max(np.abs(out - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))
            assert out.min() >= 0.0 and abs(out.sum() - 1.0) <= 1e-14

    def test_grouped_steps_match_200_halvings(self, rng):
        # Run until 200 steps have hit the radius; the others stay inside the ball.
        hit = steps = 0
        while hit < 200 and steps < 1000:
            steps += 1
            p = int(rng.integers(1, 13))
            gs = int(rng.integers(1, p + 1))
            body = GroupedL1Ball(float(rng.uniform(0.2, 3.0)), gs, p)
            pot = GroupedL1(p, gs)
            x = sample_feasible(body, rng)
            g = rng.standard_normal(p) * 10.0 ** rng.uniform(-2, 2)
            eta = float(10.0 ** rng.uniform(-2, 1))
            ref, did = grouped_step_200(pot, body, x, g, eta)
            hit += did
            out = pot.mirror_step(body, x, g, eta)
            assert np.max(np.abs(out - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))
            if did:
                norms = sum(np.linalg.norm(out[s]) for s in block_slices(p, gs))
                assert abs(norms - body.radius) <= 1e-12 * body.radius
        assert hit == 200


class TestMaxOverDomain:
    def test_squared_l2_on_unit_ball(self):
        assert SquaredL2(3).max_over_domain(L2Ball(1.0, 3)) == pytest.approx(2.0)

    def test_entropy_ln_p(self):
        assert NegativeEntropy(4).max_over_domain(Simplex(4)) == pytest.approx(math.log(4))

    def test_qnorm_default_bound(self, rng):
        # k = 16: closed-form bound 1/(4(q-1)) = (ln 16 - 1)/4, below the
        # O(log k) ceiling log(16)/4.
        V = rng.standard_normal((16, 6))
        pot = PolytopeQNorm(Polytope(V))
        bound = pot.max_over_domain(Polytope(V))
        assert bound == pytest.approx((math.log(16) - 1) / 4)
        assert bound <= math.log(16) / 4 + 1e-12
        # Numeric verification on random hull points of random vertex sets.
        for _ in range(3):
            W = rng.standard_normal((16, 5))
            wpot = PolytopeQNorm(Polytope(W))
            wb = wpot.max_over_domain(Polytope(W))
            for _ in range(50):
                a = rng.dirichlet(np.ones(16))
                assert wpot.value(a) <= wb + 1e-9

    def test_grouped_bound(self, rng):
        pot = GroupedL1(8, 2)
        body = GroupedL1Ball(1.0, 2, 8)
        bound = pot.max_over_domain(body)
        for _ in range(200):
            x = sample_feasible(body, rng)
            assert pot.value(x) <= bound + 1e-9

    def test_unsupported_pair(self):
        with pytest.raises(ValueError):
            NegativeEntropy(3).max_over_domain(L2Ball(1.0, 3))


class TestStrongConvexity:
    def test_spot_check_declared_modulus(self, rng):
        for pot, body, q_body in make_cases(rng):
            mod = pot.strong_convexity_modulus
            assert mod > 0
            trials = 250 if isinstance(q_body, Polytope) else 1000
            for _ in range(trials):
                a = sample_feasible(body, rng)
                b = sample_feasible(body, rng)
                al = float(rng.random())
                lhs = pot.value(al * a + (1 - al) * b)
                diff = pot.to_point(a) - pot.to_point(b)
                nrm = q_body.minkowski_norm(diff)
                rhs = (al * pot.value(a) + (1 - al) * pot.value(b)
                       - mod * al * (1 - al) / 2.0 * nrm ** 2)
                assert lhs <= rhs + 1e-8

    def test_default_q_exponent(self):
        assert default_q_exponent(16) == pytest.approx(math.log(16) / (math.log(16) - 1))
        assert default_q_exponent(4) == 2.0
        assert 1.0 < default_q_exponent(10 ** 6) <= 2.0


class TestQNormPotentialPlumbing:
    def test_coefficient_mapping(self, rng):
        V = rng.standard_normal((8, 3))
        pot = PolytopeQNorm(Polytope(V))
        a = rng.dirichlet(np.ones(8))
        assert np.allclose(pot.to_point(a), V.T @ a)
        g = rng.standard_normal(3)
        assert np.allclose(pot.pull_back(g), V @ g)
        assert isinstance(pot.iterate_body(Polytope(V)), Simplex)


class TestConfig:
    def test_from_dict_round_trip(self, rng):
        body = Simplex(3)
        pot = potential_from_dict({"kind": "negative_entropy"}, body)
        assert isinstance(pot, NegativeEntropy)
        body2 = Polytope(CROSS)
        pot2 = potential_from_dict({"kind": "polytope_q_norm"}, body2)
        assert isinstance(pot2, PolytopeQNorm) and pot2.q == default_q_exponent(4)
        pot3 = potential_from_dict({"kind": "squared_l2"}, L2Ball(1.0, 2))
        assert isinstance(pot3, SquaredL2)
        pot4 = potential_from_dict({"kind": "grouped_l1", "group_size": 2},
                                   GroupedL1Ball(1.0, 2, 4))
        assert isinstance(pot4, GroupedL1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            potential_from_dict({"kind": "unheard_of"}, Simplex(2))

    def test_qnorm_requires_polytope(self):
        with pytest.raises(ValueError):
            potential_from_dict({"kind": "polytope_q_norm"}, L2Ball(1.0, 2))
