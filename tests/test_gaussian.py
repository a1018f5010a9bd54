"""Tests for the standard normal primitives.

Reference values are frozen from a 60-digit complementary-error-function
evaluation (mpmath); a live 50-digit oracle is also consulted on coarse
grids, and scipy's log_ndtr serves as an independent second route for the
log survival function.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, strategies as st

from martkit.errors import DomainError
from martkit.gaussian import (mills_sandwich, std_normal_cdf,
                              std_normal_log_sf, std_normal_sf)

mp.mp.dps = 50


def mp_sf(x):
    return mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2


class TestCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_frozen_at_one(self):
        # 0.84134474606854294859... at 60 digits
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-16)

    def test_far_tail_saturates(self):
        assert std_normal_cdf(40.0) == 1.0
        assert std_normal_sf(40.0) < 1e-300
        assert math.isfinite(std_normal_log_sf(40.0))

    def test_absolute_error_core(self):
        for x in np.linspace(-8.0, 8.0, 1601):
            exact = float(mp.erfc(-mp.mpf(float(x)) / mp.sqrt(2)) / 2)
            assert abs(std_normal_cdf(float(x)) - exact) <= 1e-15

    def test_sf_relative_error_tail(self):
        for x in np.arange(8.0, 37.5, 0.5):
            exact = mp_sf(float(x))
            got = std_normal_sf(float(x))
            assert abs(got - float(exact)) / float(exact) <= 1e-12

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                std_normal_cdf(bad)
            with pytest.raises(DomainError):
                std_normal_sf(bad)
            with pytest.raises(DomainError):
                std_normal_log_sf(bad)


class TestLogSf:
    def test_matches_log_of_sf_when_representable(self):
        for x in np.arange(-5.0, 30.0, 0.25):
            sf = std_normal_sf(float(x))
            assert std_normal_log_sf(float(x)) == pytest.approx(math.log(sf), rel=1e-13)

    def test_frozen_deep_tail(self):
        # log sf(10) + 50 = -3.2312851505124705783... at 60 digits
        assert std_normal_log_sf(10.0) + 50.0 == pytest.approx(
            -3.2312851505124706, rel=1e-12)

    def test_against_scipy_route(self):
        xs = np.arange(0.0, 40.0001, 0.01)
        ours = np.array([std_normal_log_sf(float(x)) for x in xs])
        other = sp.log_ndtr(-xs)
        assert np.max(np.abs(ours - other) / np.abs(other).clip(min=1.0)) < 5e-14

    def test_strictly_decreasing_far_tail(self):
        vals = [std_normal_log_sf(x) for x in np.arange(30.0, 200.0, 2.5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_against_high_precision_oracle(self):
        for x in np.arange(0.0, 40.5, 0.5):
            exact = float(mp.log(mp_sf(float(x))))
            assert std_normal_log_sf(float(x)) == pytest.approx(exact, rel=1e-13)


class TestNormalEval:
    def test_cdf_plus_sf_within_one_ulp(self):
        for x in np.linspace(-8.0, 8.0, 1601):
            total = std_normal_cdf(float(x)) + std_normal_sf(float(x))
            assert abs(total - 1.0) <= math.ulp(1.0)

    @given(st.floats(-35.0, 35.0), st.floats(-35.0, 35.0))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert std_normal_cdf(lo) <= std_normal_cdf(hi)
        assert std_normal_sf(lo) >= std_normal_sf(hi)

    @given(st.floats(0.0, 8.0))
    def test_symmetry(self, x):
        # Phi(-x) = 1 - Phi(x) to <= 2 ulp at scale 1 (the subtraction from 1
        # alone carries ulp(1)/2 of absolute error, for any implementation)
        lhs = std_normal_cdf(-x)
        rhs = 1.0 - std_normal_cdf(x)
        assert abs(lhs - rhs) <= 2 * math.ulp(1.0)


class TestMillsSandwich:
    def test_frozen_at_zero(self):
        lo, hi = mills_sandwich(0.0)
        assert lo == pytest.approx(0.3989422804014327, abs=1e-16)
        assert hi == pytest.approx(0.5641895835477563, abs=1e-16)
        assert lo < 0.5 < hi

    def test_brackets_at_one(self):
        lo, hi = mills_sandwich(1.0)
        mid = float(mp_sf(1) * mp.e ** mp.mpf("0.5"))  # 0.26157829186512337
        assert lo < mid < hi

    def test_brackets_at_ten_log_domain(self):
        lo, hi = mills_sandwich(10.0)
        log_mid = std_normal_log_sf(10.0) + 50.0
        assert math.log(lo) < log_mid < math.log(hi)

    def test_log_domain_grid(self):
        for x in np.arange(0.0, 40.0001, 0.01):
            lo, hi = mills_sandwich(float(x))
            log_mid = std_normal_log_sf(float(x)) + 0.5 * x * x
            assert math.log(lo) <= log_mid <= math.log(hi)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            mills_sandwich(-0.1)
