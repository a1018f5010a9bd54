"""Tests for the closed-form bound evaluators.

Numeric reference values are frozen from 60-digit mpmath evaluations of
the stated formulas; property tests check the algebraic identities,
orderings, symmetries, and limiting cases the formulas must satisfy.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from martkit.bounds import (BernsteinParams, BoundConstant, ClassicalEnvelopes,
                            ConstantKind, EnvelopeSource, MomentSummary,
                            breve_x, classical_envelopes, corollary_envelope,
                            corollary_uniform_bound, cramer_ratio_band,
                            de_la_pena_bennett, de_la_pena_bernstein,
                            eps_log_eps, lambda_bar, mourrat_envelope,
                            nonuniform_be_envelope, strengthened_tail_envelope,
                            tail_bound_sq, uniform_be_bound, xhat)
from martkit.errors import DomainError
from martkit.gaussian import std_normal_sf

params_strategy = st.builds(
    BernsteinParams,
    epsilon=st.floats(1e-6, 0.5),
    delta=st.floats(0.0, 1.0),
)


class TestParams:
    def test_valid_range(self):
        p = BernsteinParams(0.5, 1.0)
        assert p.v == 2.0

    def test_epsilon_zero_needs_permissive(self):
        with pytest.raises(DomainError):
            BernsteinParams(0.0)
        p = BernsteinParams(0.0, 0.0, permissive=True)
        assert p.epsilon == 0.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            BernsteinParams(0.9)
        with pytest.raises(DomainError):
            BernsteinParams(-0.1)
        with pytest.raises(DomainError):
            BernsteinParams(0.1, 1.5)
        with pytest.raises(DomainError):
            BernsteinParams(0.1, -0.5)

    def test_constant_validation(self):
        with pytest.raises(DomainError):
            BoundConstant(-1.0)
        with pytest.raises(DomainError):
            BoundConstant(1.0, ConstantKind.C_P)  # missing p
        with pytest.raises(DomainError):
            BoundConstant(1.0, ConstantKind.C_P, 0.5)
        with pytest.raises(DomainError):
            BoundConstant(1.0, ConstantKind.ABSOLUTE_C, 2.0)  # stray p


class TestDeformations:
    def test_xhat_trivial(self):
        p = BernsteinParams(0.1, 0.2)
        assert xhat(0.0, p) == 0.0
        free = BernsteinParams(0.0, 0.0, permissive=True)
        assert xhat(3.0, free) == 3.0

    def test_xhat_frozen(self):
        # (2/sqrt(1.04))/(1+sqrt(1+0.2/1.04)) = 0.93748969847447418418
        assert xhat(1.0, BernsteinParams(0.1, 0.2)) == pytest.approx(
            0.9374896984744742, rel=1e-14)

    def test_xhat_below_abs_x(self):
        p = BernsteinParams(0.3, 0.7)
        for x in (0.1, 1.0, 7.0, 50.0):
            assert 0.0 <= xhat(x, p) <= x
            assert xhat(-x, p) == xhat(x, p)

    def test_breve_trivial_and_frozen(self):
        assert breve_x(0.0, 0.3) == 0.0
        assert breve_x(2.0, 0.0) == 2.0
        # 4/(1+sqrt(2)) = 1.6568542494923801952
        assert breve_x(2.0, 0.25) == pytest.approx(1.6568542494923802, rel=1e-15)

    def test_breve_matches_xhat_at_delta_zero(self):
        p = BernsteinParams(0.17)
        for x in (0.0, 0.4, 2.2, 31.0):
            assert breve_x(x, 0.17) == pytest.approx(xhat(x, p), rel=1e-15)

    def test_lambda_bar_trivial(self):
        p = BernsteinParams(0.1, 0.2)
        assert lambda_bar(0.0, p) == 0.0
        # Gaussian limit: the optimal tilt for level x is x/(1+delta^2)
        free = BernsteinParams(0.0, 0.0, permissive=True)
        assert lambda_bar(1.0, free) == 1.0

    def test_lambda_bar_frozen(self):
        # (2/1.04)/(1+0.192307...+sqrt(1.192307...)) = 0.84189060220749034369
        lb = lambda_bar(1.0, BernsteinParams(0.1, 0.2))
        assert lb == pytest.approx(0.8418906022074903, rel=1e-14)
        assert lb < 10.0  # 1/eps

    def test_lambda_bar_rejects_negative(self):
        with pytest.raises(DomainError):
            lambda_bar(-0.5, BernsteinParams(0.1))

    @given(st.floats(0.0, 100.0), params_strategy)
    def test_residual_identity(self, x, p):
        lb = lambda_bar(x, p)
        eps = p.epsilon
        assert lb * eps < 1.0
        resid = (lb - 0.5 * lb * lb * eps) / (1.0 - lb * eps) ** 2 - x / p.v
        assert abs(resid) / max(1.0, x) <= 1e-10

    @given(st.floats(0.0, 100.0), params_strategy)
    def test_xhat_tilt_identity(self, x, p):
        lb = lambda_bar(x, p)
        xh = xhat(x, p)
        rhs = lb * math.sqrt(p.v) / (1.0 - lb * p.epsilon)
        assert abs(xh - rhs) <= 1e-12 * max(1.0, abs(xh))

    def test_monotonicity_grids(self):
        xs = np.arange(0.0, 20.0, 0.25)
        p = BernsteinParams(0.2, 0.5)
        xh = [xhat(float(x), p) for x in xs]
        lb = [lambda_bar(float(x), p) for x in xs]
        assert all(b >= a for a, b in zip(xh, xh[1:]))
        assert all(b >= a for a, b in zip(lb, lb[1:]))
        # xhat shrinks as either parameter grows
        for eps in (0.01, 0.1, 0.3, 0.5):
            for d1, d2 in ((0.0, 0.5), (0.5, 1.0)):
                assert xhat(3.0, BernsteinParams(eps, d2)) <= xhat(
                    3.0, BernsteinParams(eps, d1))
        for e1, e2 in ((0.01, 0.1), (0.1, 0.5)):
            assert xhat(3.0, BernsteinParams(e2)) <= xhat(3.0, BernsteinParams(e1))

    def test_rejects_non_finite(self):
        p = BernsteinParams(0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                xhat(bad, p)
            with pytest.raises(DomainError):
                breve_x(bad, 0.1)


class TestExponentialBounds:
    def test_bennett_frozen(self):
        env = de_la_pena_bennett(1.0, 1.0, 0.1)
        # exp(-1/(1.1 + sqrt(1.2))) = 0.63413811645863945596
        assert env.value == pytest.approx(0.6341381164586395, rel=1e-14)
        assert env.source is EnvelopeSource.BENNETT
        assert de_la_pena_bennett(0.0, 1.0, 0.1).value == 1.0

    def test_bernstein_frozen(self):
        env = de_la_pena_bernstein(1.0, 1.0, 0.1)
        # exp(-1/2.2) = 0.63473641894028185533
        assert env.value == pytest.approx(0.6347364189402819, rel=1e-14)
        assert de_la_pena_bernstein(0.0, 1.0, 0.1).value == 1.0

    def test_as_printed_differs_for_v_not_one(self):
        # the printed denominator v^2 + sqrt(1 + 2x eps/v^2) + x eps drops
        # the v^2 of the middle term; the bound keeps it, so the two part
        # at v != 1, where the printed form claims a smaller tail, and
        # coincide at v = 1
        def bennett(x, v, eps, middle):
            v2 = v * v
            root = math.sqrt(1.0 + 2.0 * x * eps / v2)
            return math.exp(-x * x / (v2 + middle(v2) * root + x * eps))

        def full(v2):
            return v2

        def printed(v2):
            return 1.0

        env = de_la_pena_bennett(1.0, 2.0, 0.1)
        assert env.value == pytest.approx(bennett(1.0, 2.0, 0.1, full),
                                          rel=1e-14)
        assert env.value > bennett(1.0, 2.0, 0.1, printed) * (1.0 + 1e-2)
        assert de_la_pena_bennett(1.0, 1.0, 0.1).value == \
            pytest.approx(bennett(1.0, 1.0, 0.1, printed), rel=1e-14)

    @given(st.floats(0.0, 60.0), st.floats(0.1, 3.0), st.floats(0.0, 0.5))
    @example(x=3.375, v=1.0, eps=2**-52)
    def test_ordering(self, x, v, eps):
        bennett = de_la_pena_bennett(x, v, eps)
        bernstein = de_la_pena_bernstein(x, v, eps)
        assert bennett.value <= bernstein.value * (1.0 + 1e-15)
        assert bernstein.value <= 1.0

    @given(st.floats(0.0, 60.0), params_strategy)
    def test_bennett_matches_tail_sq_at_matched_variance(self, x, p):
        v = math.sqrt(p.v)
        env = de_la_pena_bennett(x, v, p.epsilon)
        sq = tail_bound_sq(x, p)
        assert env.log_value == pytest.approx(sq.log_value, rel=1e-12, abs=1e-12)

    def test_tail_sq_frozen(self):
        p = BernsteinParams(0.1, 0.2)
        env = tail_bound_sq(1.0, p)
        # exp(-0.93748969847447418^2/2) = 0.64439494812127092632
        assert env.value == pytest.approx(0.6443949481212709, rel=1e-13)
        assert env.log_value == -0.5 * env.xhat ** 2
        free = BernsteinParams(0.0, 0.0, permissive=True)
        assert tail_bound_sq(2.0, free).value == pytest.approx(
            math.exp(-2.0), rel=1e-15)

    def test_log_domain_survives_underflow(self):
        p = BernsteinParams(1e-4)
        env = tail_bound_sq(80.0, p)
        assert env.value == 0.0 or env.value < 1e-300
        assert math.isfinite(env.log_value)

    def test_v_must_be_positive(self):
        with pytest.raises(DomainError):
            de_la_pena_bennett(1.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            de_la_pena_bernstein(1.0, -1.0, 0.1)


class TestStrengthenedEnvelope:
    def test_frozen_at_zero(self):
        env = strengthened_tail_envelope(0.0, BernsteinParams(0.25))
        # 0.5 (1 + 0.25 log 4) = 0.67328679513998632735
        assert env.value == pytest.approx(0.6732867951399863, rel=1e-14)
        assert env.lambda_bar == 0.0
        assert env.xhat == 0.0

    def test_frozen_regression_point(self):
        env = strengthened_tail_envelope(1.0, BernsteinParams(0.1, 0.2))
        # 60-digit chained evaluation
        assert env.value == pytest.approx(0.3548134647710514, rel=1e-13)

    def test_gaussian_limit(self):
        free = BernsteinParams(0.0, 0.0, permissive=True)
        env = strengthened_tail_envelope(1.7, free, BoundConstant(42.0))
        assert env.value == pytest.approx(std_normal_sf(1.7), rel=1e-14)

    def test_bad_kind(self):
        p = BernsteinParams(0.1)
        with pytest.raises(DomainError):
            strengthened_tail_envelope(
                1.0, p, BoundConstant(1.0, ConstantKind.C_P, 2.0))


class TestNonuniformEnvelope:
    def test_frozen_at_zero(self):
        env = nonuniform_be_envelope(0.0, BernsteinParams(0.1, 0.1))
        # 0.1 |log 0.1| + 0.1 = 0.3302585092994045684
        assert env.value == pytest.approx(0.3302585092994046, rel=1e-14)

    def test_frozen_chained(self):
        env = nonuniform_be_envelope(2.0, BernsteinParams(0.05))
        # 5 * 0.05 log 20 * exp(-xhat(2)^2/2) = 0.12110956386273862554
        assert env.value == pytest.approx(0.1211095638627386, rel=1e-13)

    @given(st.floats(0.0, 50.0), params_strategy)
    def test_symmetric(self, x, p):
        assert nonuniform_be_envelope(x, p).value == \
            nonuniform_be_envelope(-x, p).value

    def test_gaussian_limit_vanishes(self):
        free = BernsteinParams(0.0, 0.0, permissive=True)
        env = nonuniform_be_envelope(1.5, free)
        assert env.value == 0.0
        assert env.log_value == -math.inf


class TestCramerBand:
    def test_collapse_at_gaussian_limit(self):
        free = BernsteinParams(0.0, 0.0, permissive=True)
        band = cramer_ratio_band(2.0, free)
        assert band == (1.0, 1.0, True)

    def test_frozen(self):
        band = cramer_ratio_band(0.0, BernsteinParams(0.1))
        assert band.lo == pytest.approx(1.0 - 0.2302585092994046, rel=1e-13)
        assert band.hi == pytest.approx(1.0 + 0.2302585092994046, rel=1e-13)
        assert band.valid

    def test_validity_range(self):
        assert not cramer_ratio_band(10.0, BernsteinParams(0.1)).valid
        assert cramer_ratio_band(2.0, BernsteinParams(0.1)).valid
        # delta = 0 imposes no cap beyond the epsilon one
        assert cramer_ratio_band(2.1, BernsteinParams(0.1, 0.0)).valid
        assert not cramer_ratio_band(2.1, BernsteinParams(0.1, 0.5)).valid

    def test_lo_clamped(self):
        band = cramer_ratio_band(4.0, BernsteinParams(0.5, 1.0))
        assert band.lo == 0.0


class TestCorollaryEnvelope:
    def test_frozen(self):
        env = corollary_envelope(0.0, 0.1, 0.0)
        # 0.230258509... + 0.215443469... = 0.445701978...
        assert env.value == pytest.approx(0.4457019783025929, rel=1e-13)

    def test_decays_in_tail(self):
        vals = [corollary_envelope(float(x), 0.1, 0.01).value
                for x in np.arange(3.0, 20.0, 0.5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_uniform_variant_frozen(self):
        # 0.001^{1/3} + 0.1^{2/3} = 0.1 + 0.21544346900318837218
        assert corollary_uniform_bound(0.001, 0.1) == pytest.approx(
            0.3154434690031884, rel=1e-14)


class TestMourrat:
    def test_reduces_to_cube_root_form_at_p_one(self):
        c1 = BoundConstant(1.0, ConstantKind.C_P, 1.0)
        assert mourrat_envelope(1.0, 0.001, 0.1, c1) == pytest.approx(
            corollary_uniform_bound(0.001, 0.1), rel=1e-14)

    def test_frozen(self):
        c2 = BoundConstant(1.0, ConstantKind.C_P, 2.0)
        # 0.1^{4/5} = 0.15848931924611134852
        assert mourrat_envelope(2.0, 0.0, 0.1, c2) == pytest.approx(
            0.1584893192461113, rel=1e-14)
        c3 = BoundConstant(1.0, ConstantKind.C_P, 3.0)
        assert mourrat_envelope(3.0, 1e-6, 0.0, c3) == pytest.approx(
            1e-6 ** (1.0 / 7.0), rel=1e-14)

    def test_constant_kind_enforced(self):
        with pytest.raises(DomainError):
            mourrat_envelope(2.0, 0.0, 0.1, BoundConstant(1.0))
        with pytest.raises(DomainError):
            mourrat_envelope(0.5, 0.0, 0.1,
                             BoundConstant(1.0, ConstantKind.C_P, 1.0))
        with pytest.raises(DomainError):
            # p mismatch between argument and constant
            mourrat_envelope(2.0, 0.0, 0.1,
                             BoundConstant(1.0, ConstantKind.C_P, 3.0))


class TestUniformBound:
    def test_frozen(self):
        # 0.5 log 2 = 0.34657359027997265471
        assert uniform_be_bound(BernsteinParams(0.5)) == pytest.approx(
            0.3465735902799727, rel=1e-14)

    def test_delta_dominates_small_eps(self):
        val = uniform_be_bound(BernsteinParams(1e-9, 1.0))
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_inverse_log_scale_accepted(self):
        # 1/e is inside (0, 1/2] and evaluates to eps|log eps| = 1/e
        val = uniform_be_bound(BernsteinParams(1.0 / math.e))
        assert val == pytest.approx(1.0 / math.e, rel=1e-14)


class TestClassicalEnvelopes:
    def test_zero_moments(self):
        out = classical_envelopes(1.3, MomentSummary(), 0.5)
        assert out == ClassicalEnvelopes(0.0, 0.0, 0.0)

    def test_bikelis_frozen(self):
        m = MomentSummary(third_moments_sum=0.2)
        assert classical_envelopes(0.0, m, 1.0).bikelis == pytest.approx(0.2)
        # i.i.d. +-1/sqrt(n), n = 16: sum E|xi|^3 = 16/64 = 0.25
        m16 = MomentSummary(third_moments_sum=0.25)
        assert classical_envelopes(1.0, m16, 1.0).bikelis == pytest.approx(
            0.03125, rel=1e-15)

    def test_chen_shao_and_hj(self):
        m = MomentSummary(third_moments_sum=0.25, truncated_second=0.0,
                          truncated_third=0.25, qc_deviation_moment=0.0)
        out = classical_envelopes(1.0, m, 1.0)
        assert out.chen_shao == pytest.approx(0.25 / 8.0, rel=1e-15)
        assert out.haeusler_joos == pytest.approx(
            0.25 ** 0.25 / 2.0, rel=1e-15)

    def test_moment_order_range(self):
        m = MomentSummary(third_moments_sum=0.1)
        for bad in (0.0, 1.5, -0.2):
            with pytest.raises(DomainError):
                classical_envelopes(1.0, m, bad)

    def test_moment_summary_validation(self):
        with pytest.raises(DomainError):
            MomentSummary(third_moments_sum=-0.1)


class TestEpsLogEps:
    def test_values(self):
        assert eps_log_eps(0.0) == 0.0
        assert eps_log_eps(0.5) == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
        assert eps_log_eps(0.1) == pytest.approx(0.2302585092994046, rel=1e-14)

    @given(st.floats(1e-12, 0.5))
    def test_positive_on_range(self, e):
        assert eps_log_eps(e) > 0.0
