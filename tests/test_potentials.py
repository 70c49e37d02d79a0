import math

import numpy as np
import pytest

from dperm.geometry import (
    GroupedL1Ball,
    L1Ball,
    L2Ball,
    Polytope,
    Simplex,
    symmetric_hull,
)
from dperm.losses import SquaredError
from dperm.potentials import (
    ROOT_RTOL,
    ROOT_XTOL,
    GroupedL1,
    NegativeEntropy,
    PolytopeQNorm,
    SquaredL2,
    _brent,
    default_q_exponent,
    grouped_exponents,
    potential_from_dict,
)
from dperm.privacy import PrivacyBudget
from dperm.solvers import SolverConfig

from reference import (block_slices, bregman, entropy_step_out_of_place, gauge, potential_grad,
                       potential_value, sample_feasible, strong_convexity_modulus)

CROSS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def make_cases(rng):
    """(potential, feasible body for iterates, Q body for the declared norm,
    the map of an iterate to its point): the iterate body and the map are
    the ``iterate_space`` of the body the potential runs on."""
    hull_poly = Polytope(np.vstack([np.eye(3), -np.eye(3)]) * 1.3)
    cases = []
    for pot, body, q_body in [
        (SquaredL2(), L2Ball(1.0, 4), L2Ball(1.0, 4)),
        (NegativeEntropy(), Simplex(4), L1Ball(1.0, 4)),
        (GroupedL1(), GroupedL1Ball(1.0, 2, 8), GroupedL1Ball(1.0, 2, 8)),
        (PolytopeQNorm(), hull_poly, symmetric_hull(hull_poly)),
    ]:
        it_body, point_of, _ = body.iterate_space()
        cases.append((pot, it_body, q_body, point_of))
    return cases


class TestValueGrad:
    def test_squared_l2_example(self):
        pot, body = SquaredL2(), L2Ball(5.0, 2)
        assert potential_value(pot, body, [3.0, 4.0]) == pytest.approx(12.5)
        assert np.allclose(potential_grad(pot, body, [3.0, 4.0]), [3.0, 4.0])

    def test_entropy_example(self):
        # Raw entropy sum is -ln 2; the potential carries a +ln p shift so it
        # is nonnegative on the simplex.
        pot, body = NegativeEntropy(), Simplex(2)
        raw = potential_value(pot, body, [0.5, 0.5]) - math.log(2)
        assert raw == pytest.approx(-0.693147, abs=1e-6)
        assert potential_value(pot, body, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)

    def test_entropy_rejects_negative(self):
        with pytest.raises(ValueError):
            potential_value(NegativeEntropy(), Simplex(2), [-0.5, 1.5])

    def test_gradient_finite_differences(self, rng):
        eps = 1e-6
        for pot, body, *_ in make_cases(rng):
            for _ in range(10):
                x = sample_feasible(body, rng)
                # Keep strictly inside so one-sided kinks cannot bite.
                x = 0.5 * x + 0.5 * body.canonical_point()
                g = potential_grad(pot, body, x)
                for i in range(0, x.size, 2):
                    e = np.zeros_like(x)
                    e[i] = eps
                    fd = (potential_value(pot, body, x + e)
                          - potential_value(pot, body, x - e)) / (2 * eps)
                    assert abs(fd - g[i]) <= 1e-5

    def test_grouped_grad_is_zero_on_a_zero_block(self, rng):
        # p = 12, g = 2: M = 1 + 1/ln 6 < 2, so ||x_j||^(M-2) diverges at 0.
        body = GroupedL1Ball(1.0, 2, 12)
        M, xi = grouped_exponents(body)
        assert M < 2.0
        x = 0.1 * rng.standard_normal(12)
        x[4:6] = 0.0
        with np.errstate(all="raise"):
            g = GroupedL1().grad(body, x)
        assert np.all(g[4:6] == 0.0)
        for s in block_slices(12, 2):
            if s.start != 4:
                nrm = float(np.linalg.norm(x[s]))
                assert np.allclose(g[s], nrm ** (M - 2.0) / xi * x[s], rtol=1e-14, atol=0.0)


class TestBregman:
    def test_squared_l2_half_distance(self):
        assert bregman(SquaredL2(), L2Ball(1.0, 2), [1.0, 0.0], [0.0, 1.0]) \
            == pytest.approx(1.0)

    def test_self_divergence_zero(self, rng):
        for pot, body, *_ in make_cases(rng):
            x = sample_feasible(body, rng)
            assert bregman(pot, body, x, x) == pytest.approx(0.0, abs=1e-9)

    def test_entropy_is_kl(self):
        a, b = np.array([0.5, 0.5]), np.array([0.9, 0.1])
        kl = float(np.sum(a * np.log(a / b)))
        assert kl == pytest.approx(0.510826, abs=1e-6)
        assert bregman(NegativeEntropy(), Simplex(2), a, b) == pytest.approx(kl, abs=1e-9)

    def test_nonnegative(self, rng):
        for pot, body, *_ in make_cases(rng):
            for _ in range(50):
                a = sample_feasible(body, rng)
                b = sample_feasible(body, rng)
                assert bregman(pot, body, a, b) >= -1e-9


class TestMirrorStep:
    def test_squared_l2_is_projected_gradient(self, rng):
        pot = SquaredL2()
        body = L1Ball(1.0, 5)
        for _ in range(20):
            x = sample_feasible(body, rng)
            g = rng.standard_normal(5)
            eta = float(rng.uniform(0.01, 1.0))
            out = pot.mirror_step(body, x, g, eta)
            ref = body.euclidean_project(x - eta * g)
            assert np.abs(out - ref).max() <= 1e-10

    def test_entropy_multiplicative_weights_example(self):
        pot = NegativeEntropy()
        out = pot.mirror_step(Simplex(2), [0.5, 0.5], [math.log(2.0), 0.0], 1.0)
        assert np.allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)

    def test_zero_gradient_fixed_point(self, rng):
        for pot, body, *_ in make_cases(rng):
            x = sample_feasible(body, rng)
            out = pot.mirror_step(body, x, np.zeros_like(x), 0.7)
            assert np.abs(out - x).max() <= 1e-8

    def test_variational_inequality(self, rng):
        for pot, body, *_ in make_cases(rng):
            for _ in range(5):
                x = sample_feasible(body, rng)
                g = rng.standard_normal(x.size)
                eta = 0.2
                res = pot.mirror_step(body, x, g, eta)
                assert body.contains(res)
                direction = (eta * g + potential_grad(pot, body, res)
                             - potential_grad(pot, body, x))
                for _ in range(40):
                    theta = sample_feasible(body, rng)
                    assert float(direction @ (theta - res)) >= -1e-6

    def test_monotone_against_gradient(self, rng):
        for pot, body, *_ in make_cases(rng):
            for _ in range(10):
                x = 0.5 * sample_feasible(body, rng) + 0.5 * body.canonical_point()
                g = rng.standard_normal(x.size)
                res = pot.mirror_step(body, x, g, 0.1)
                assert float(g @ (res - x)) <= 1e-10

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            SquaredL2().mirror_step(L2Ball(1.0, 2), [0.0, 0.0], [1.0, 0.0], 0.0)

    def test_nan_gradient_rejected(self):
        with pytest.raises(ValueError):
            SquaredL2().mirror_step(L2Ball(1.0, 2), [0.0, 0.0], [np.nan, 0.0], 0.1)


def qnorm_step_200(pot, body, x, g, eta):
    """The q-norm prox step with exactly 200 halvings, written out."""
    c = eta * g - pot.grad(body, x)
    q = default_q_exponent(body.dimension)
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
    c = eta * g - pot.grad(body, x)
    slices = block_slices(body.dimension, body.group_size)
    a = np.array([np.linalg.norm(c[s]) for s in slices])
    M, xi = grouped_exponents(body)

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
            pot = PolytopeQNorm()
            body = Polytope(rng.standard_normal((k, p))).iterate_space()[0]
            x = rng.dirichlet(np.ones(k))
            g = rng.standard_normal(k) * 10.0 ** rng.uniform(-2, 2)
            eta = float(10.0 ** rng.uniform(-2, 1))
            out = pot.mirror_step(body, x, g, eta)
            ref = qnorm_step_200(pot, body, x, g, eta)
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
            pot = GroupedL1()
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


def monotone_panel(rng, count: int):
    """(f, a, b): seeded monotone functions with a sign change on [a, b],
    some increasing and some decreasing, smooth, kinked and steep."""
    panel = []
    for i in range(count):
        r = float(rng.uniform(-5.0, 5.0))
        a = r - float(10.0 ** rng.uniform(-3, 2))
        b = r + float(10.0 ** rng.uniform(-3, 2))
        kind = i % 5
        if kind == 0:
            c3, c1 = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 3.0))

            def f(x, r=r, c3=c3, c1=c1):
                return c3 * (x - r) ** 3 + c1 * (x - r)
        elif kind == 1:
            k = float(10.0 ** rng.uniform(-1, 1)) / (b - a)  # exp stays below e^10

            def f(x, r=r, k=k):
                return math.exp(k * (x - r)) - 1.0
        elif kind == 2:
            # The shape of the prox multipliers: a sum of powers of (x - c)_+.
            cs = np.sort(rng.uniform(a, r, size=int(rng.integers(1, 9))))
            e = float(rng.uniform(0.3, 3.0))
            level = float(np.sum((r - cs) ** e))

            def f(x, cs=cs, e=e, level=level):
                return float(np.sum(np.maximum(x - cs, 0.0) ** e)) - level
        elif kind == 3:
            k = float(10.0 ** rng.uniform(-1, 2))

            def f(x, r=r, k=k):
                return -math.atan(k * (x - r))
        else:
            s = float(rng.uniform(0.1, 2.0))

            def f(x, r=r, s=s):
                return math.copysign(abs(x - r) ** s, r - x) + 1e-3 * (r - x)
        panel.append((f, a, b))
    return panel


class TestBrent:
    """``_brent`` is scipy's ``brentq`` in Python: the same float on the same
    function and bracket.  The tests import scipy; the library does not."""

    def test_same_root_as_scipy_brentq(self, rng):
        from scipy.optimize import brentq

        for f, a, b in monotone_panel(rng, 3000):
            ours = _brent(f, a, b, f(a), f(b))
            theirs = brentq(f, a, b, xtol=ROOT_XTOL, rtol=ROOT_RTOL)
            assert ours == theirs, (a, b, ours, theirs)

    def test_bracket_ends_that_are_roots(self):
        def f(x):
            return x - 1.0

        assert _brent(f, 1.0, 3.0, 0.0, 2.0) == 1.0
        assert _brent(f, -1.0, 1.0, -2.0, 0.0) == 1.0

    @pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -0.5), (math.nan, 1.0)])
    def test_bracket_without_sign_change_raises(self, fa, fb):
        with pytest.raises(ValueError, match="do not bracket a root"):
            _brent(lambda x: x, 0.0, 1.0, fa, fb)


class TestEntropyStep:
    def test_in_place_step_gives_the_out_of_place_bits(self, rng):
        for _ in range(500):
            p = int(rng.integers(1, 40))
            x = rng.dirichlet(np.full(p, float(rng.uniform(0.05, 2.0))))
            x[rng.random(p) < 0.2] = 0.0  # the floor
            g = rng.standard_normal(p) * 10.0 ** rng.uniform(-2, 3)
            eta = float(10.0 ** rng.uniform(-3, 1))
            out = NegativeEntropy().mirror_step(Simplex(p), x, g, eta)
            assert np.array_equal(out, entropy_step_out_of_place(x, g, eta))


class TestMaxOverDomain:
    def test_squared_l2_on_unit_ball(self):
        assert SquaredL2().max_over_domain(L2Ball(1.0, 3)) == pytest.approx(2.0)

    def test_entropy_ln_p(self):
        assert NegativeEntropy().max_over_domain(Simplex(4)) == pytest.approx(math.log(4))

    def test_qnorm_default_bound(self, rng):
        # k = 16: closed-form bound 1/(4(q-1)) = (ln 16 - 1)/4, below the
        # O(log k) ceiling log(16)/4.
        V = rng.standard_normal((16, 6))
        pot = PolytopeQNorm()
        bound = pot.max_over_domain(Polytope(V))
        assert bound == pytest.approx((math.log(16) - 1) / 4)
        assert bound <= math.log(16) / 4 + 1e-12
        # Numeric verification on random hull points of random vertex sets.
        for _ in range(3):
            W = rng.standard_normal((16, 5))
            wbody = Polytope(W)
            wb = pot.max_over_domain(wbody)
            for _ in range(50):
                a = rng.dirichlet(np.ones(16))
                assert potential_value(pot, wbody.iterate_space()[0], a) <= wb + 1e-9

    def test_grouped_bound(self, rng):
        pot = GroupedL1()
        body = GroupedL1Ball(1.0, 2, 8)
        bound = pot.max_over_domain(body)
        for _ in range(200):
            x = sample_feasible(body, rng)
            assert potential_value(pot, body, x) <= bound + 1e-9

    def test_unsupported_pair(self):
        # Each potential refuses the bodies it has no constants or step for.
        for pot, body, message in [
            (NegativeEntropy(), L2Ball(1.0, 3), "only defined on the simplex"),
            (GroupedL1(), L1Ball(1.0, 4), "requires a grouped-l1 ball"),
            (PolytopeQNorm(), L2Ball(1.0, 2), "requires a polytope body"),
            (SquaredL2(), Polytope(CROSS), "euclidean projection is not supported"),
        ]:
            with pytest.raises(ValueError, match=message):
                pot.natural_q(body)


class TestStrongConvexity:
    def test_spot_check_declared_modulus(self, rng):
        for pot, body, q_body, point_of in make_cases(rng):
            mod = strong_convexity_modulus(pot, body)
            assert mod > 0
            trials = 250 if isinstance(q_body, Polytope) else 1000
            for _ in range(trials):
                a = sample_feasible(body, rng)
                b = sample_feasible(body, rng)
                al = float(rng.random())
                lhs = potential_value(pot, body, al * a + (1 - al) * b)
                diff = point_of(a) - point_of(b)
                nrm = gauge(q_body, diff)
                rhs = (al * potential_value(pot, body, a)
                       + (1 - al) * potential_value(pot, body, b)
                       - mod * al * (1 - al) / 2.0 * nrm ** 2)
                assert lhs <= rhs + 1e-8

    def test_default_q_exponent(self):
        assert default_q_exponent(16) == pytest.approx(math.log(16) / (math.log(16) - 1))
        assert default_q_exponent(4) == 2.0
        assert 1.0 < default_q_exponent(10 ** 6) <= 2.0


class TestQNormPotentialPlumbing:
    def test_coefficient_mapping(self, rng):
        # A polytope's iterate space is its coefficient simplex; any other
        # body is its own, with identity maps.
        V = rng.standard_normal((8, 3))
        body, point_of, pullback = Polytope(V).iterate_space()
        a = rng.dirichlet(np.ones(8))
        assert np.allclose(point_of(a), V.T @ a)
        g = rng.standard_normal(3)
        assert np.allclose(pullback(g), V @ g)
        assert isinstance(body, Simplex) and body.dimension == 8
        ball = L1Ball(1.0, 3)
        body, point_of, pullback = ball.iterate_space()
        assert body is ball and point_of(g) is g and pullback(g) is g


class TestConfig:
    def test_from_dict_round_trip(self, rng):
        body = Simplex(3)
        pot = potential_from_dict({"kind": "negative_entropy"}, body)
        assert isinstance(pot, NegativeEntropy)
        body2 = Polytope(CROSS)
        pot2 = potential_from_dict({"kind": "polytope_q_norm"}, body2)
        assert isinstance(pot2, PolytopeQNorm)
        assert pot2.max_over_domain(body2) == 1.0 / (4.0 * (default_q_exponent(4) - 1.0))
        pot3 = potential_from_dict({"kind": "squared_l2"}, L2Ball(1.0, 2))
        assert isinstance(pot3, SquaredL2)
        pot4 = potential_from_dict({"kind": "grouped_l1", "group_size": 2},
                                   GroupedL1Ball(1.0, 2, 4))
        assert isinstance(pot4, GroupedL1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            potential_from_dict({"kind": "unheard_of"}, Simplex(2))

    def test_qnorm_hull_above_the_vertex_cap_fails_in_the_config(self, rng):
        # 6 000 asymmetric rows make a 12 000-vertex symmetric hull; the
        # config names both counts when it is built.
        V = rng.standard_normal((6000, 3))
        kwargs = dict(algorithm="noisy_md", loss=SquaredError(),
                      budget=PrivacyBudget(1.0, 1e-6), potential=PolytopeQNorm())
        with pytest.raises(ValueError, match="polytope with 6000 vertices has 12000"):
            SolverConfig(body=Polytope(V), **kwargs)
        # -W is a row permutation of W, so W is its own hull.
        W = np.vstack([V[:3000], -V[:3000]])
        SolverConfig(body=Polytope(W), **kwargs)

    def test_qnorm_requires_polytope(self):
        doc = {"algorithm": "noisy_md", "body": {"kind": "l2_ball", "radius": 1.0, "dimension": 2},
               "loss": {"kind": "squared_error"}, "budget": {"epsilon": 1.0},
               "potential": {"kind": "polytope_q_norm"}}
        with pytest.raises(ValueError, match="polytope_q_norm requires a polytope body"):
            SolverConfig.from_dict(doc)
