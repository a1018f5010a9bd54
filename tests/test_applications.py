"""Tests for the regression and self-normalized application layer."""

import json
import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import binom

from martkit.applications import (ConfidenceInterval, RegressionData,
                                  _first_crossing,
                                  least_squares, regression_ci,
                                  regression_coverage, regression_envelope,
                                  regression_epsilons,
                                  regression_reduction_check,
                                  regression_report, self_norm_envelope,
                                  self_norm_report, self_norm_statistic,
                                  standardized_error, wang_jing_bound)
from martkit.bounds import (BernsteinParams, BoundConstant, ConstantKind,
                            breve_x, cramer_ratio_band, eps_log_eps,
                            nonuniform_be_envelope)
from martkit.errors import ConfigError, DomainError
from martkit.gaussian import std_normal_sf
from martkit.martingales import (NoiseFamily, RegressionModel,
                                 ScaledRademacher, SelfNormalized,
                                 noise_bernstein_constant)
from martkit import montecarlo
from martkit.montecarlo import SimulationConfig, calibrate_constant


def rademacher_model(n=1000, theta=2.0, a=1.0, b=1.0, sigma=1.0):
    return RegressionModel(theta=theta, n=n, covariate_low=a,
                           covariate_high=b, sigma=sigma,
                           noise=NoiseFamily.RADEMACHER_SCALED)


def random_data(rng, n=50, phi_scale=1.0, theta=None, sigma=1.0):
    theta = rng.normal() if theta is None else theta
    phi = phi_scale * rng.uniform(0.5, 2.0, n)
    eps = sigma * rng.choice([-1.0, 1.0], n)
    return RegressionData(tuple(phi), tuple(theta * phi + eps), sigma), theta


class TestRegressionData:
    def test_field_validation(self):
        with pytest.raises(DomainError):
            RegressionData((), ())
        with pytest.raises(DomainError):
            RegressionData((1.0, 2.0), (1.0,))
        with pytest.raises(DomainError):
            RegressionData((1.0, math.nan), (0.0, 0.0))
        with pytest.raises(DomainError):
            RegressionData((1.0,), (0.0,), sigma=0.0)
        with pytest.raises(DomainError):
            RegressionData((0.0, 0.0), (1.0, 1.0))

    def test_energy_and_length(self):
        d = RegressionData((3.0, 4.0), (1.0, 2.0))
        assert d.n == 2 and d.covariate_energy == 25.0

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("phi,x\n1.0,2.5\n-0.5,0.25\n", encoding="utf-8")
        d = RegressionData.from_csv(p, sigma=2.0)
        assert d.covariates == (1.0, -0.5)
        assert d.responses == (2.5, 0.25)
        assert d.sigma == 2.0

    def test_csv_header_is_mandatory(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,phi\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            RegressionData.from_csv(p)
        p.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError):
            RegressionData.from_csv(p)

    def test_csv_malformed_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("phi,x\n1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            RegressionData.from_csv(p)
        p.write_text("phi,x\n1.0,two\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            RegressionData.from_csv(p)


class TestLeastSquares:
    def test_two_point_oracle(self):
        assert least_squares(RegressionData((1.0, 1.0), (2.0, 0.0))) == 1.0

    def test_noiseless_recovery(self):
        phi = (0.5, -1.25, 3.0, 2.0)
        d = RegressionData(phi, tuple(2.0 * p for p in phi))
        assert least_squares(d) == 2.0

    def test_estimator_concentrates(self):
        rng = np.random.default_rng(77)
        n = 10000
        phi = rng.uniform(1.0, 2.0, n)
        noise = rng.choice([-1.0, 1.0], n)
        d = RegressionData(tuple(phi), tuple(0.7 * phi + noise))
        energy = d.covariate_energy
        assert abs(least_squares(d) - 0.7) <= 5.0 / math.sqrt(energy)

    def test_reduction_residual_is_rounding_only(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d, theta = random_data(rng)
            lhs = standardized_error(d, theta)
            assert regression_reduction_check(d, theta) <= 1e-12 * max(
                1.0, abs(lhs))

    def test_reduction_residual_large_magnitude(self):
        # |phi| ~ 1e8 makes X - theta*phi lose ~8 digits reconstructing
        # the noise, so the two float routes drift apart at the 1e-8
        # level; the identity itself is exact algebra
        rng = np.random.default_rng(11)
        d, theta = random_data(rng, phi_scale=1e8)
        lhs = standardized_error(d, theta)
        residual = regression_reduction_check(d, theta)
        assert residual <= 1e-6 * max(1.0, abs(lhs))

    def test_noiseless_reduction_is_exact_zero(self):
        phi = (1.0, 2.0, 4.0)
        d = RegressionData(phi, tuple(3.0 * p for p in phi))
        assert regression_reduction_check(d, 3.0) == 0.0


class TestEpsilons:
    def test_constant_design(self):
        d = RegressionData((2.0,) * 25, (0.0,) * 25)
        split = regression_epsilons(d, noise=NoiseFamily.RADEMACHER_SCALED)
        assert split.eps1 == pytest.approx(0.2, rel=1e-15)
        assert split.eps2 == noise_bernstein_constant(
            NoiseFamily.RADEMACHER_SCALED, 1.0)
        assert split.eps == pytest.approx(split.eps1 * split.eps2, rel=1e-15)

    def test_model_worst_case_bounds_data(self):
        model = rademacher_model(n=100, a=1.0, b=2.0)
        m_split = regression_epsilons(model)
        rng = np.random.default_rng(3)
        phi = rng.uniform(1.0, 2.0, 100)
        d = RegressionData(tuple(phi), tuple(phi))
        d_split = regression_epsilons(d, noise=model.noise)
        assert d_split.eps1 <= m_split.eps1
        assert d_split.eps2 == m_split.eps2

    def test_eps_is_sigma_free(self):
        # eps2 scales with sigma and eps divides it back out
        lo = rademacher_model(sigma=1.0)
        hi = rademacher_model(sigma=5.0)
        assert regression_epsilons(lo).eps == pytest.approx(
            regression_epsilons(hi).eps, rel=1e-12)

    def test_requires_noise_for_data(self):
        d = RegressionData((1.0,), (1.0,))
        with pytest.raises(ConfigError):
            regression_epsilons(d)
        with pytest.raises(ConfigError):
            regression_epsilons("nonsense")


class TestEnvelopes:
    def test_origin_oracle(self):
        env = regression_envelope(0.0, 0.1)
        assert abs(env.nonuniform.value - 0.2302585) < 5e-8
        assert env.uniform == env.nonuniform.value  # breve_x(0) = 0
        pair = self_norm_envelope(0.0, 0.1)
        assert pair.envelope.value == env.nonuniform.value

    def test_matches_general_envelope_modulo_deformation(self):
        eps = 0.05
        params = BernsteinParams(eps)
        for x in (0.5, 1.0, 2.0, 3.5):
            be = nonuniform_be_envelope(x, params)
            swap = be.value * math.exp(
                0.5 * (be.xhat ** 2 - breve_x(x, eps) ** 2))
            assert regression_envelope(x, eps).nonuniform.value \
                == pytest.approx(swap, rel=1e-12)

    def test_vanishes_with_eps(self):
        assert regression_envelope(2.0, 0.0).nonuniform.value == 0.0
        assert self_norm_envelope(2.0, 0.0).envelope.value == 0.0
        assert regression_envelope(2.0, 1e-4).nonuniform.value \
            < regression_envelope(2.0, 1e-2).nonuniform.value

    def test_self_norm_exponent_is_undeformed(self):
        eps = 0.1
        for x in (0.5, 1.5, 3.0):
            pair = self_norm_envelope(x, eps)
            flat = (1.0 + x * x) * eps_log_eps(eps)
            assert pair.envelope.value \
                == pytest.approx(flat * math.exp(-0.5 * x * x), rel=1e-14)

    def test_symmetry(self):
        for x in (0.3, 1.7):
            assert regression_envelope(x, 0.2).nonuniform.value \
                == regression_envelope(-x, 0.2).nonuniform.value
            assert self_norm_envelope(x, 0.2).envelope.value \
                == self_norm_envelope(-x, 0.2).envelope.value

    def test_band_reuses_general_form(self):
        assert regression_envelope(1.2, 0.1).band \
            == cramer_ratio_band(1.2, BernsteinParams(0.1))

    def test_out_of_range_eps_flags(self):
        env = regression_envelope(1.0, 0.7)
        assert not env.eps_valid and not env.band.valid
        pair = self_norm_envelope(1.0, 0.7)
        assert not pair.eps_valid
        with pytest.raises(DomainError):
            regression_envelope(1.0, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_are_refused(self, bad):
        for call in (lambda: regression_envelope(bad, 0.1),
                     lambda: self_norm_envelope(bad, 0.1),
                     lambda: wang_jing_bound(bad, 0.1, 0.0)):
            with pytest.raises(DomainError, match="x must be finite"):
                call()
        with pytest.raises(DomainError, match="l3n must be finite"):
            wang_jing_bound(1.0, bad, 0.0)
        with pytest.raises(DomainError, match="tail_prob_sum must be finite"):
            wang_jing_bound(1.0, 0.1, bad)

    def test_negative_wang_jing_inputs_are_refused(self):
        with pytest.raises(DomainError, match="l3n must be >= 0"):
            wang_jing_bound(1.0, -0.1, 0.0)
        with pytest.raises(DomainError, match="tail_prob_sum must be >= 0"):
            wang_jing_bound(1.0, 0.1, -0.1)

    def test_float32_inputs_are_numbers_like_any_other(self):
        # 1.5, 0.125 and 0.25 are exact in float32
        x, l3n, tail = np.float32(1.5), np.float32(0.125), np.float32(0.25)
        assert regression_envelope(x, 0.1) == regression_envelope(1.5, 0.1)
        assert self_norm_envelope(x, 0.1) == self_norm_envelope(1.5, 0.1)
        assert wang_jing_bound(x, l3n, tail) == wang_jing_bound(1.5, 0.125,
                                                                0.25)

    def test_constant_kind_guard(self):
        cd = BoundConstant(1.0, ConstantKind.C_DELTA)
        with pytest.raises(DomainError):
            regression_envelope(1.0, 0.1, cd)
        with pytest.raises(DomainError):
            self_norm_envelope(1.0, 0.1, cd)
        with pytest.raises(DomainError):
            wang_jing_bound(1.0, 0.1, 0.0, cd)


class TestConfidenceInterval:
    D = RegressionData((1.0, -2.0, 3.0), (0.5, -1.0, 2.0))

    def test_zero_constant_collapses_to_gaussian(self):
        for level in (0.9, 0.95, 0.99):
            ci = regression_ci(self.D, 0.01, level, BoundConstant(0.0))
            assert abs(ci.x_star - ndtri(0.5 * (1.0 + level))) <= 1e-9
            assert ci.valid

    def test_reference_point(self):
        ci = regression_ci(self.D, 0.01, 0.95, BoundConstant(1.0))
        assert ci.x_star == pytest.approx(2.12475980889669, abs=1e-9)
        assert ci.x_star > ndtri(0.975)

    def test_width_monotone_in_level_and_constant(self):
        widths = [regression_ci(self.D, 0.01, lv).width
                  for lv in (0.8, 0.9, 0.95, 0.99)]
        assert all(a < b for a, b in zip(widths, widths[1:]))
        by_c = [regression_ci(self.D, 0.01, 0.95, BoundConstant(c)).width
                for c in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(by_c, by_c[1:]))

    def test_envelope_route_is_wider_here(self):
        band = regression_ci(self.D, 0.01, 0.95)
        env = regression_ci(self.D, 0.01, 0.95, use_envelope=True)
        assert env.method == "envelope" and band.method == "ratio_band"
        assert env.x_star > band.x_star

    def test_interval_centered_at_estimate(self):
        ci = regression_ci(self.D, 0.02, 0.9)
        theta_hat = least_squares(self.D)
        assert ci.lo < theta_hat < ci.hi
        assert (ci.lo + ci.hi) / 2.0 == pytest.approx(theta_hat, rel=1e-12)

    def test_crossing_beyond_trust_range_is_flagged(self):
        # eps = 0.4: the band is only trusted to x ~ 1.36, below any
        # useful quantile
        ci = regression_ci(self.D, 0.4, 0.95)
        assert not ci.valid and ci.x_star > 0.4 ** (-1.0 / 3.0)

    def test_no_crossing_returns_the_cap_flagged(self):
        # a constant of 1e12 keeps the envelope route above 1 - level on
        # the whole scan [0, 20] at eps = 1/2, so x* falls back to the cap
        ci = regression_ci(self.D, 0.5, 0.95, BoundConstant(1e12),
                           use_envelope=True)
        assert ci.x_star == 20.0 and not ci.valid
        half = 20.0 * self.D.sigma / math.sqrt(self.D.covariate_energy)
        assert (ci.lo, ci.hi) == (least_squares(self.D) - half,
                                  least_squares(self.D) + half)
        assert _first_crossing(lambda x: 1.0, 0.05, 3.0) is None

    def test_input_validation(self):
        for bad_level in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                regression_ci(self.D, 0.01, bad_level)
        for bad_eps in (-0.01, math.nan, math.inf):
            with pytest.raises(DomainError):
                regression_ci(self.D, bad_eps, 0.95)

    def test_serialization(self):
        ci = regression_ci(self.D, 0.01, 0.95)
        restored = json.loads(json.dumps(ci.to_dict()))
        assert restored["x_star"] == ci.x_star
        assert restored["method"] == "ratio_band"

    @pytest.mark.parametrize("use_envelope", [False, True],
                             ids=["ratio_band", "envelope"])
    @pytest.mark.parametrize("c", [0.0, 0.1, 1.0, 5.0])
    def test_x_star_is_the_first_double_at_the_level(self, c, use_envelope):
        # g restated from the public formulas: x* is the smallest double
        # whose two-sided bound is at most 1 - level, so the double just
        # below it is still above
        def g(x, eps):
            rate = eps_log_eps(eps)
            if use_envelope:
                env = c * (1.0 + x * x) * rate \
                    * math.exp(-0.5 * breve_x(x, eps) ** 2)
                return 2.0 * (std_normal_sf(x) + env)
            return 2.0 * std_normal_sf(x) * (1.0 + c * (1.0 + x ** 3) * rate)

        checked = 0
        for eps in (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5):
            for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.999999):
                ci = regression_ci(self.D, eps, level, BoundConstant(c),
                                   use_envelope=use_envelope)
                if not ci.valid:
                    continue
                alpha = 1.0 - level
                below = math.nextafter(ci.x_star, 0.0)
                assert g(ci.x_star, eps) <= alpha < g(below, eps), \
                    (eps, level, ci.x_star)
                checked += 1
        assert checked >= 20


class TestReports:
    def test_regression_report_contract(self):
        rng = np.random.default_rng(1)
        d, theta = random_data(rng)
        rep = regression_report(d, NoiseFamily.RADEMACHER_SCALED,
                                theta=theta, x_grid=(0.0, 1.0, 2.0))
        assert rep.theta_hat == least_squares(d)
        assert rep.standardized_error == standardized_error(d, theta)
        assert set(rep.envelope_at) == {0.0, 1.0, 2.0}
        assert rep.eps == pytest.approx(rep.eps1 * rep.eps2 / d.sigma)
        assert rep.eps_valid
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["theta_hat"] == rep.theta_hat
        assert len(blob["envelope"]) == 3

    def test_regression_report_without_truth(self):
        d = RegressionData((1.0, 2.0), (1.0, 2.0))
        rep = regression_report(d, NoiseFamily.TRUNCATED_SYMMETRIC)
        assert rep.standardized_error is None

    def test_self_norm_report_contract(self):
        sample = (1.0, -1.0, 1.0, 2.0)
        rep = self_norm_report(sample, x_grid=(0.0, 1.0))
        assert rep.statistic == self_norm_statistic(sample)
        assert rep.n == 4
        assert rep.eps == pytest.approx(2.0 / math.sqrt(7.0), rel=1e-15)
        assert set(rep.envelope_at) == {0.0, 1.0}
        lo, hi, valid = rep.band_at[1.0]
        assert lo <= 1.0 <= hi
        json.dumps(rep.to_dict())

    def test_self_norm_report_eps_override(self):
        rep = self_norm_report((1.0,) * 100, eps=0.1)
        assert rep.eps == 0.1 and rep.eps_valid


class TestSelfNormStatistic:
    def test_three_point_oracle(self):
        assert self_norm_statistic((1.0, -1.0, 1.0)) \
            == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)

    def test_scale_invariance_exact_for_clean_factors(self):
        base = (1.0, -3.0, 2.0, 5.0)
        s = self_norm_statistic(base)
        for factor in (2.0, 7.0, 0.25, 1024.0):
            scaled = tuple(factor * v for v in base)
            assert self_norm_statistic(scaled) == s

    def test_scale_invariance_near_exact_generally(self):
        rng = np.random.default_rng(8)
        sample = tuple(rng.normal(size=20))
        s = self_norm_statistic(sample)
        for factor in (math.pi, 1e-7, 3.7e9):
            scaled = tuple(factor * v for v in sample)
            assert self_norm_statistic(scaled) == pytest.approx(s, rel=1e-14)

    def test_cauchy_schwarz_extremes(self):
        assert self_norm_statistic((2.5,) * 16) == pytest.approx(4.0,
                                                                 rel=1e-15)
        n = 30
        rng = np.random.default_rng(2)
        stat = self_norm_statistic(tuple(rng.normal(size=n)))
        assert abs(stat) <= math.sqrt(n) * (1.0 + 1e-12)

    def test_degenerate_samples(self):
        with pytest.raises(DomainError):
            self_norm_statistic(())
        with pytest.raises(DomainError):
            self_norm_statistic((0.0, 0.0))
        with pytest.raises(DomainError):
            self_norm_statistic((1.0, math.inf))


class TestWangJing:
    def test_frozen_oracles(self):
        # x = 1 falls outside |x| <= (5 l3n^(1/3))^(-1) ~ 0.431: the
        # moment-free branch applies
        assert wang_jing_bound(1.0, 0.1, 0.0) \
            == pytest.approx(0.8485013842317768, rel=1e-14)
        assert wang_jing_bound(0.4, 0.1, 0.0) \
            == pytest.approx(0.10708149618084975, rel=1e-14)

    def test_degenerate_l3n(self):
        for x in (0.0, 0.7, 2.0):
            assert wang_jing_bound(x, 0.0, 0.3) \
                == pytest.approx(0.3 * math.exp(-0.5 * x * x), rel=1e-15)

    def test_constant_scales_inner_branch_only(self):
        c2 = BoundConstant(2.0)
        assert wang_jing_bound(0.4, 0.1, 0.05, c2) \
            == pytest.approx(2.0 * wang_jing_bound(0.4, 0.1, 0.05), rel=1e-15)
        assert wang_jing_bound(1.0, 0.1, 0.0, c2) \
            == wang_jing_bound(1.0, 0.1, 0.0)

    def test_branch_switch_is_discontinuous(self):
        thr = 1.0 / (5.0 * 0.1 ** (1.0 / 3.0))
        inner = wang_jing_bound(thr * (1.0 - 1e-9), 0.1, 0.0)
        outer = wang_jing_bound(thr * (1.0 + 1e-9), 0.1, 0.0)
        # the two branches do not meet; the jump is documented behavior
        assert abs(inner - outer) > 0.1

    def test_outer_branch_ignores_moments(self):
        assert wang_jing_bound(2.0, 0.1, 0.0) \
            == wang_jing_bound(2.0, 0.2, 5.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            wang_jing_bound(math.nan, 0.1, 0.0)
        with pytest.raises(DomainError):
            wang_jing_bound(1.0, -0.1, 0.0)
        with pytest.raises(DomainError):
            wang_jing_bound(1.0, 0.1, -0.2)


class TestCoverage:
    def test_matches_exact_binomial_law(self):
        # constant design + sign noise: the standardized error is a
        # scaled binomial, so coverage has a closed form
        model = rademacher_model(n=1000)
        res = regression_coverage(model, 0.95, 10000, seed=42)
        k = math.floor((res.x_star * math.sqrt(1000) + 1000) / 2.0)
        exact = binom.cdf(k, 1000, 0.5) - binom.cdf(1000 - k - 1, 1000, 0.5)
        se = math.sqrt(exact * (1.0 - exact) / 10000.0)
        assert abs(res.rate - exact) <= 4.0 * se
        assert res.valid

    def test_meets_nominal_level(self):
        model = rademacher_model(n=1000)
        res = regression_coverage(model, 0.95, 10000, seed=42)
        assert res.rate >= 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / 10000.0)

    def test_three_point_noise_and_random_design(self):
        model = RegressionModel(theta=-1.0, n=2000, covariate_low=1.0,
                                covariate_high=2.0, sigma=0.5,
                                noise=NoiseFamily.TRUNCATED_SYMMETRIC)
        res = regression_coverage(model, 0.95, 5000, seed=9)
        assert res.rate >= 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / 5000.0)

    @pytest.mark.parametrize("model, level, replications, seed, covered", [
        (RegressionModel(-1.0, 2000, 1.0, 2.0, 0.5,
                         NoiseFamily.TRUNCATED_SYMMETRIC), 0.95, 5000, 9, 4897),
        (rademacher_model(n=300, theta=0.3, a=0.5, b=2.0, sigma=1.3),
         0.9, 20000, 5, 19309),
        (RegressionModel(0.0, 100, 1.0, 1.0, 1.0,
                         NoiseFamily.TRUNCATED_SYMMETRIC), 0.9, 20000, 5, 19320),
    ], ids=["three-point-random-design", "rademacher-random-design",
            "three-point-constant-design"])
    def test_matrix_drawn_counts(self, model, level, replications, seed,
                                 covered):
        # each dataset is one path of the model: a uniform design matrix,
        # then one 16-bit lane per step for the noise
        for workers in (1, 2):
            res = regression_coverage(model, level, replications, seed,
                                      workers=workers)
            assert res.covered == covered

    def test_constant_design_draws_one_binomial_per_replication(
            self, monkeypatch):
        # a constant design with sign noise is the binomial shortcut of
        # the chunk kernel: no (rows, n) matrix is ever requested
        requested = []
        keyed = montecarlo.generator_for

        class Recorder:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    out = getattr(self.rng, name)(*args, **kwargs)
                    requested.append((name, np.shape(out)))
                    return out
                return draw

        monkeypatch.setattr(montecarlo, "generator_for",
                            lambda *key: Recorder(keyed(*key)))
        res = regression_coverage(rademacher_model(n=1000), 0.95, 10000,
                                  seed=42)
        assert requested == [("binomial", (1024,))] * 9 \
            + [("binomial", (784,))]
        assert res.covered == 9682

    def test_worker_invariance(self):
        model = rademacher_model(n=200)
        runs = [regression_coverage(model, 0.9, 6000, seed=3, workers=w)
                for w in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]

    def test_requires_regression_model(self):
        with pytest.raises(ConfigError):
            regression_coverage(ScaledRademacher.equal_weights(8), 0.9,
                                100, seed=1)

    def test_serialization(self):
        model = rademacher_model(n=100)
        res = regression_coverage(model, 0.9, 500, seed=1)
        blob = json.loads(json.dumps(res.to_dict()))
        assert blob["covered"] == res.covered
        assert blob["rate"] == pytest.approx(res.rate)


class TestEnvelopeDomination:
    @pytest.mark.parametrize("n", [250, 1000])
    def test_calibrated_envelope_dominates_empirical_distance(self, n):
        # ties the application formula to the calibration units: the
        # envelope at the calibrated constant must sit on or above every
        # empirical CDF distance used to fit it
        model = SelfNormalized(n=n, magnitude_low=1.0, magnitude_high=1.0)
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        config = SimulationConfig(model, paths=40000, seed=6,
                                  exhaustive=False)
        cal = calibrate_constant(config, "thm33", grid)
        c_hat = BoundConstant(cal.c_hat)
        eps = model.bernstein_params().epsilon
        for x, emp, unit in zip(cal.xs, cal.empirical, cal.units):
            env = self_norm_envelope(x, eps, c_hat).envelope.value
            assert env == pytest.approx(cal.c_hat * unit, rel=1e-12)
            assert env >= emp - 1e-12
