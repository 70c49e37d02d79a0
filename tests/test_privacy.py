import math

import numpy as np
import pytest

from dperm.privacy import (
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


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=1.0)
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=0.0)

    def test_non_private_sentinel(self):
        b = PrivacyBudget(math.inf)
        assert not b.is_private
        assert PrivacyBudget(1.0, 1e-6).is_private

    def test_from_dict_inf(self):
        assert not PrivacyBudget.from_dict({"epsilon": "inf"}).is_private
        assert PrivacyBudget.from_dict({"epsilon": 2.0, "delta": 1e-5}).epsilon == 2.0

    @pytest.mark.parametrize("doc,message", [
        ({}, "budget document has no 'epsilon' key"),
        ({"eps": 1.0}, r"unknown budget key\(s\) \['eps'\]"),
        ({"epsilon": 1, "delt": 1e-3}, r"unknown budget key\(s\) \['delt'\]"),
        ({"epsilon": None}, 'must be a finite number or "inf"'),
        ({"epsilon": "infinity"}, 'must be a finite number or "inf"'),
        ({"epsilon": math.inf}, 'must be a finite number or "inf"'),
        ({"epsilon": True}, 'must be a finite number or "inf"'),
        ({"epsilon": 1.0, "delta": "1e-5"}, "budget 'delta' must be a finite number"),
        ({"epsilon": 1.0, "delta": math.nan}, "budget 'delta' must be a finite number"),
    ])
    def test_from_dict_rejects_a_budget_that_is_not_the_one_configured(self, doc, message):
        # Each of these documents used to run without noise or with a delta
        # other than the one written.
        with pytest.raises(ValueError, match=message):
            PrivacyBudget.from_dict(doc)


class TestMdSigma:
    def test_worked_example(self):
        # sigma^2 = 3200 ln^2(1e8) / 1e6, evaluated independently.
        expected = math.sqrt(3200.0 * math.log(1e8) ** 2 / 1e6)
        assert expected == pytest.approx(1.04202, abs=1e-4)
        got = md_sigma(1.0, 100, PrivacyBudget(1.0, 1e-6), 1000)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_non_private_zero(self):
        assert md_sigma(1.0, 100, PrivacyBudget(math.inf), 1000) == 0.0

    def test_doubling_n_quarters_variance(self):
        b = PrivacyBudget(1.0, 1e-6)
        s1 = md_sigma(1.0, 50, b, 500)
        s2 = md_sigma(1.0, 50, b, 1000)
        assert s2 ** 2 == pytest.approx(s1 ** 2 / 4.0, rel=1e-12)

    def test_degenerate_log_rejected(self):
        # T/delta <= 1 is unreachable for integer T >= 1 and delta < 1, but
        # the guard must still catch degenerate fractional inputs.
        with pytest.raises(ValueError):
            md_sigma(1.0, 0.5, PrivacyBudget(1.0, delta=0.9), 100)


class TestFwLaplaceScale:
    def test_worked_example(self):
        expected = math.sqrt(8.0 * 64.0 * math.log(1e6)) / 1e4
        assert expected == pytest.approx(8.410e-3, abs=2e-6)
        got = fw_laplace_scale(1.0, 1.0, 64, PrivacyBudget(1.0, 1e-6), 10 ** 4)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_steps_rejected(self):
        # As for the Gaussian scales: no run has T = 0.
        with pytest.raises(ValueError, match="T must be positive"):
            fw_laplace_scale(1.0, 1.0, 0, PrivacyBudget(1.0, 1e-6), 100)

    def test_linear_in_l1_and_radius(self):
        b = PrivacyBudget(0.5, 1e-5)
        base = fw_laplace_scale(1.0, 1.0, 16, b, 100)
        assert fw_laplace_scale(3.0, 1.0, 16, b, 100) == pytest.approx(3 * base)
        assert fw_laplace_scale(1.0, 2.0, 16, b, 100) == pytest.approx(2 * base)


class TestObjPertPlan:
    def test_worked_example(self):
        sigma, zeta = objpert_plan(1.0, 1.0, 0.0, PrivacyBudget(1.0, 1e-6), 1000)
        assert sigma == pytest.approx(math.sqrt(2 * math.log(1e6)) / 1000, rel=1e-12)
        assert sigma == pytest.approx(5.2565e-3, abs=1e-6)
        assert zeta == pytest.approx(2e-3, rel=1e-12)

    def test_zeta_clamped_at_zero(self):
        _, zeta = objpert_plan(1.0, 1.0, 0.5, PrivacyBudget(1.0, 1e-6), 1000)
        assert zeta == 0.0

    def test_non_private(self):
        assert objpert_plan(1.0, 1.0, 0.0, PrivacyBudget(math.inf), 10) == (0.0, 0.0)

    def test_lambda_order(self):
        with pytest.raises(ValueError):
            objpert_plan(1.0, 0.0, 1.0, PrivacyBudget(1.0, 1e-6), 10)


class TestFormulaExactness:
    def test_against_independent_arithmetic(self, rng):
        # 1000 random parameter draws; every calibration formula must match
        # a freestanding arithmetic evaluation to 1e-12 relative.
        for _ in range(1000):
            L = float(rng.uniform(0.05, 20.0))
            T = int(rng.integers(1, 10 ** 6))
            eps = float(rng.uniform(0.05, 8.0))
            delta = 10.0 ** float(-rng.uniform(2.0, 9.0))
            n = int(rng.integers(10, 10 ** 6))
            r = float(rng.uniform(0.1, 5.0))
            lam_hi = float(rng.uniform(0.0, 10.0))
            lam_lo = float(rng.uniform(0.0, lam_hi)) if lam_hi > 0 else 0.0
            b = PrivacyBudget(eps, delta)

            got = md_sigma(L, T, b, n)
            ref = (32 * L * L * T) ** 0.5 / (eps * n) * math.log(T / delta)
            assert got == pytest.approx(ref, rel=1e-12)

            got = fw_laplace_scale(L, r, T, b, n)
            ref = L * r * (8 * T * math.log(1 / delta)) ** 0.5 / (n * eps)
            assert got == pytest.approx(ref, rel=1e-12)

            got_s, got_z = objpert_plan(L, lam_hi, lam_lo, b, n)
            assert got_s == pytest.approx(L * (2 * math.log(1 / delta)) ** 0.5 / (n * eps),
                                          rel=1e-12)
            assert got_z == pytest.approx(max(2 * lam_hi / (n * eps) - lam_lo, 0.0),
                                          rel=1e-12, abs=1e-300)

            got = fw_gaussian_sigma(L, T, b, n)
            ref = (32 * L * T) ** 0.5 / (n * eps) * math.log(n / delta)
            assert got == pytest.approx(ref, rel=1e-12)


class TestSamplers:
    def test_zero_sigma_leaves_generator_untouched(self):
        g1 = np.random.default_rng(5)
        g2 = np.random.default_rng(5)
        out = sample_gaussian_vec(7, 0.0, g1)
        assert np.array_equal(out, np.zeros(7))
        assert np.array_equal(g1.standard_normal(3), g2.standard_normal(3))

    def test_gaussian_empirical_variance(self):
        rng = np.random.default_rng(11)
        draws = sample_gaussian_vec(10 ** 6, 2.5, rng)
        assert draws.var() == pytest.approx(2.5 ** 2, rel=0.01)

    def test_laplace_mean_abs(self):
        rng = np.random.default_rng(13)
        draws = sample_laplace(0.7, rng, size=10 ** 6)
        assert np.abs(draws).mean() == pytest.approx(0.7, rel=0.01)

    def test_laplace_zero_scale(self):
        rng = np.random.default_rng(1)
        assert np.array_equal(sample_laplace(0.0, rng, size=4), np.zeros(4))

    def test_laplace_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            sample_laplace(-1.0, np.random.default_rng(0), size=1)

    def test_block_draws_equal_consecutive_single_draws(self):
        m, k, p = 9, 5, 7
        block_rng, step_rng = spawn_rng(3, 0), spawn_rng(3, 0)
        laplace = sample_laplace(0.8, block_rng, size=(m, k))
        gauss = sample_gaussian_vec((m, p), 1.3, block_rng)
        assert np.array_equal(laplace, [sample_laplace(0.8, step_rng, size=k) for _ in range(m)])
        assert np.array_equal(gauss, [sample_gaussian_vec(p, 1.3, step_rng) for _ in range(m)])

    def test_zero_scale_blocks_leave_generator_untouched(self):
        g = spawn_rng(3, 0)
        state = g.bit_generator.state
        assert np.array_equal(sample_laplace(0.0, g, size=(4, 3)), np.zeros((4, 3)))
        assert np.array_equal(sample_gaussian_vec((4, 3), 0.0, g), np.zeros((4, 3)))
        assert g.bit_generator.state == state

    def test_deterministic_streams(self):
        a = sample_laplace(1.0, spawn_rng(99, 0), size=32)
        b = sample_laplace(1.0, spawn_rng(99, 0), size=32)
        assert np.array_equal(a, b)

    def test_distinct_streams_uncorrelated(self):
        x = spawn_rng(7, 0).standard_normal(10 ** 5)
        y = spawn_rng(7, 1).standard_normal(10 ** 5)
        rho = float(np.corrcoef(x, y)[0, 1])
        assert abs(rho) < 0.01


class TestReportNoisyMin:
    def test_exact_argmin_at_zero_scale(self, rng):
        g = np.random.default_rng(0)
        for _ in range(200):
            scores = rng.standard_normal(int(rng.integers(1, 20)))
            noise = sample_laplace(0.0, g, size=scores.size)
            assert report_noisy_min(scores, noise) == int(np.argmin(scores))

    def test_tie_breaks_to_lowest_index(self):
        g = np.random.default_rng(0)
        assert report_noisy_min([3.0, 1.0, 2.0], sample_laplace(0.0, g, size=3)) == 1
        assert report_noisy_min([1.0, 1.0, 2.0], sample_laplace(0.0, g, size=3)) == 0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            report_noisy_min([0.0, np.nan], np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_noisy_min([], np.zeros(0))

    def test_large_margin_rarely_flipped(self):
        # P[Lap1 - Lap2 > 10] = e^(-10)(2 + 10)/4 = 3 e^(-10) ~ 1.4e-4 by the
        # Laplace-difference tail, so picking index 0 has frequency >= 0.99.
        analytic_flip = math.exp(-10.0) * (2.0 + 10.0) / 4.0
        assert analytic_flip < 0.01
        g = np.random.default_rng(21)
        wins = sum(report_noisy_min([0.0, 10.0], sample_laplace(1.0, g, size=2)) == 0
                   for _ in range(10 ** 4))
        assert wins / 10 ** 4 >= 0.99


class TestNoisePlan:
    def test_trace_and_serialization(self):
        plan = NoisePlan(mechanism="gaussian_per_step", steps=10, sigma=0.5)
        plan.log("sigma = ... = 0.5")
        doc = plan.to_dict()
        assert doc["mechanism"] == "gaussian_per_step"
        assert doc["trace"] == ["sigma = ... = 0.5"]

    def test_negative_scales_rejected(self):
        with pytest.raises(ValueError):
            NoisePlan(mechanism="gaussian_per_step", steps=1, sigma=-0.1)
