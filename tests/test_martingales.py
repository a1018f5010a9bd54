"""Tests for the martingale families and per-path conjugate objects."""

import dataclasses
import io
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from martkit import martingales
from martkit.bounds import BernsteinParams
from martkit.errors import DomainError, UnsupportedModelError
from martkit.martingales import (ConjugatePathStats, NoiseFamily, PathSample,
                                 RegressionModel, ScaledRademacher,
                                 SelfNormalized, VarianceSwitch,
                                 bolthausen_augment, conjugate_stats,
                                 generator_for, lemma_checks, model_id,
                                 model_to_dict, noise_bernstein_constant,
                                 path_to_csv, simulate_path,
                                 simulate_tilted_path, verify_A1, verify_A2)
from martkit.martingales import (_MARGIN, _band_values, _expit,
                                 _lemma_ceilings,
                                 _three_point_drift_factor,
                                 _three_point_outcomes, _three_point_psi,
                                 _two_point_steps, _WordReader)

SR4 = ScaledRademacher.equal_weights(4)

ALL_MODELS = [
    SR4,
    ScaledRademacher(weights=(0.5, 0.5, 0.5, 0.25, math.sqrt(0.1875))),
    VarianceSwitch(n=64, delta=0.5),
    SelfNormalized(n=64, magnitude_low=1.0, magnitude_high=2.5),
    RegressionModel(theta=2.0, n=64, covariate_low=1.0, covariate_high=2.0,
                    sigma=0.7, noise=NoiseFamily.RADEMACHER_SCALED),
    RegressionModel(theta=-1.0, n=64, covariate_low=0.5, covariate_high=1.5,
                    sigma=1.3, noise=NoiseFamily.TRUNCATED_SYMMETRIC),
]


class TestModelValidation:
    def test_weights_must_normalize(self):
        with pytest.raises(DomainError):
            ScaledRademacher(weights=(0.5, 0.5))
        with pytest.raises(DomainError):
            ScaledRademacher(weights=())
        with pytest.raises(DomainError):
            ScaledRademacher(weights=(1.0,))  # max weight above 1/2
        with pytest.raises(DomainError):
            ScaledRademacher(weights=(-0.5, 0.5, 0.5, 0.5))

    def test_equal_weights(self):
        m = ScaledRademacher.equal_weights(16)
        assert m.n == 16
        assert m.bernstein_params().epsilon == 0.25
        with pytest.raises(DomainError):
            ScaledRademacher.equal_weights(3)

    def test_variance_switch_ranges(self):
        with pytest.raises(DomainError):
            VarianceSwitch(n=0, delta=0.5)
        with pytest.raises(DomainError):
            VarianceSwitch(n=10, delta=1.5)
        with pytest.raises(DomainError):
            VarianceSwitch(n=4, delta=1.0).bernstein_params()  # scale > 1/2

    def test_band_models(self):
        with pytest.raises(DomainError):
            SelfNormalized(n=10, magnitude_low=2.0, magnitude_high=1.0)
        with pytest.raises(DomainError):
            SelfNormalized(n=10, magnitude_low=0.0, magnitude_high=1.0)
        with pytest.raises(DomainError):
            SelfNormalized(n=4, magnitude_low=1.0, magnitude_high=3.0) \
                .bernstein_params()
        with pytest.raises(DomainError):
            RegressionModel(theta=0.0, n=10, covariate_low=1.0,
                            covariate_high=2.0, sigma=0.0,
                            noise=NoiseFamily.RADEMACHER_SCALED)

    def test_noise_coercion_and_rejection(self):
        m = RegressionModel(theta=0.0, n=10, covariate_low=1.0,
                            covariate_high=2.0, sigma=1.0,
                            noise="rademacher_scaled")
        assert m.noise is NoiseFamily.RADEMACHER_SCALED
        with pytest.raises(ValueError):
            RegressionModel(theta=0.0, n=10, covariate_low=1.0,
                            covariate_high=2.0, sigma=1.0, noise="gaussian")


class TestDeclaredScales:
    def test_per_family_values(self):
        assert SR4.bernstein_params().epsilon == 0.5
        vs = VarianceSwitch(n=100, delta=0.3)
        assert vs.bernstein_params().epsilon == pytest.approx(
            math.sqrt(1.09 / 100), rel=1e-15)
        assert vs.bernstein_params().delta == 0.3
        sn = SelfNormalized(n=100, magnitude_low=1.0, magnitude_high=2.0)
        assert sn.bernstein_params().epsilon == pytest.approx(0.2, rel=1e-15)
        reg = RegressionModel(theta=0.0, n=100, covariate_low=1.0,
                              covariate_high=2.0, sigma=0.7,
                              noise=NoiseFamily.RADEMACHER_SCALED)
        assert reg.bernstein_params().epsilon == pytest.approx(
            0.2 / math.sqrt(12), rel=1e-14)

    @pytest.mark.parametrize("model", ALL_MODELS + [
        RegressionModel(theta=0.0, n=32, covariate_low=a, covariate_high=b,
                        sigma=sigma, noise=noise)
        for a, b, sigma in ((1.0, 2.0, 1.0), (0.5, 2.0, 1.3), (1.0, 3.0, 0.2))
        for noise in NoiseFamily], ids=lambda m: model_id(m)[:32])
    def test_checked_tilts_keep_t_below_two_root_three(self, model):
        # every tilt is below 1/eps, so t = lam*c stays below the largest
        # step over eps; the three-point helpers use the direct cosh form,
        # which needs t far below the overflow near 710
        law = model._law()
        eps = model.bernstein_params().epsilon
        assert max(law.worst_scales) / eps <= 2.0 * math.sqrt(3.0) * (
            1.0 + 1e-12)

    def test_noise_constants(self):
        # order-4 moment binds for both laws; factorial growth wins beyond
        assert noise_bernstein_constant(
            NoiseFamily.RADEMACHER_SCALED, 2.0) == pytest.approx(
                2.0 / math.sqrt(12), rel=1e-14)
        assert noise_bernstein_constant(
            NoiseFamily.TRUNCATED_SYMMETRIC, 2.0) == pytest.approx(
                2.0 / math.sqrt(3), rel=1e-14)
        with pytest.raises(DomainError):
            noise_bernstein_constant(NoiseFamily.RADEMACHER_SCALED, 0.0)


class TestSimulatePath:
    def test_deterministic(self):
        for model in ALL_MODELS:
            a = simulate_path(model, 97)
            b = simulate_path(model, 97)
            assert np.array_equal(a.differences, b.differences)
            assert a.sq_bracket == b.sq_bracket
            c = simulate_path(model, 97, path_index=1)
            assert not np.array_equal(a.differences, c.differences)

    def test_rademacher_support(self):
        finals = {simulate_path(SR4, s).final for s in range(128)}
        assert finals == {-2.0, -1.0, 0.0, 1.0, 2.0}

    @pytest.mark.parametrize("model", ALL_MODELS,
                             ids=lambda m: model_id(m)[:24])
    def test_path_invariants(self, model):
        p = simulate_path(model, 1234)
        assert p.partial_sums[0] == 0.0
        for k in range(1, p.n + 1):
            assert p.partial_sums[k] == p.partial_sums[k - 1] \
                + p.differences[k - 1]
        assert np.all(np.diff(p.qc) >= 0.0)
        assert p.sq_bracket == math.fsum(
            v * v for v in p.differences.tolist())
        assert p.model_id == model_id(model)
        assert p.seed == 1234

    def test_variance_switch_qc_band(self):
        vs = VarianceSwitch(n=50, delta=0.6)
        for seed in range(40):
            q = simulate_path(vs, seed).qc[-1]
            assert 1.0 - 0.36 - 1e-12 <= q <= 1.0 + 0.36 + 1e-12

    def test_variance_switch_delta_zero_matches_equal_weights(self):
        vs = VarianceSwitch(n=100, delta=0.0)
        sr = ScaledRademacher.equal_weights(100)
        a = simulate_path(vs, 5)
        b = simulate_path(sr, 5)
        # same uniforms, same sign rule; scales agree to rounding
        assert np.array_equal(np.sign(a.differences), np.sign(b.differences))
        np.testing.assert_allclose(a.differences, b.differences, rtol=1e-15)

    def test_normalized_families(self):
        p = simulate_path(SelfNormalized(n=30, magnitude_low=1.0,
                                         magnitude_high=3.0), 8)
        assert p.qc[-1] == 1.0
        assert p.sq_bracket == pytest.approx(1.0, abs=1e-12)
        assert abs(p.final) <= math.sqrt(30)
        r = simulate_path(
            RegressionModel(theta=0.0, n=30, covariate_low=1.0,
                            covariate_high=2.0, sigma=1.0,
                            noise=NoiseFamily.TRUNCATED_SYMMETRIC), 8)
        assert r.qc[-1] == 1.0
        # zero outcomes occur with probability 3/4 per step
        assert np.any(r.differences == 0.0)
        # nonzero outcomes sit on the +-2 sqrt(variance increment) lattice
        support = 2.0 * np.sqrt(np.diff(r.qc))
        nz = r.differences != 0.0
        np.testing.assert_allclose(np.abs(r.differences[nz]), support[nz],
                                   rtol=1e-12)

    def test_rejects_foreign_objects(self):
        with pytest.raises(UnsupportedModelError):
            simulate_path(object(), 1)


class TestTiltedSampling:
    def test_zero_tilt_bit_identity(self):
        for model in ALL_MODELS:
            a = simulate_path(model, 31)
            b = simulate_tilted_path(model, 0.0, 31)
            assert np.array_equal(a.differences, b.differences)

    def test_domain(self):
        with pytest.raises(DomainError):
            simulate_tilted_path(SR4, 2.0, 1)  # 1/eps = 2
        with pytest.raises(DomainError):
            simulate_tilted_path(SR4, -0.1, 1)
        with pytest.raises(DomainError):
            simulate_tilted_path(SR4, math.inf, 1)

    def test_up_frequency(self):
        m = ScaledRademacher.equal_weights(16)
        lam = 2.0  # lam * eps = 0.5
        p_up = math.exp(2.0 * lam * 0.25) / (math.exp(2.0 * lam * 0.25) + 1.0)
        hits = total = 0
        for seed in range(400):
            d = simulate_tilted_path(m, lam, seed).differences
            hits += int(np.sum(d > 0))
            total += d.size
        se = math.sqrt(p_up * (1.0 - p_up) / total)
        assert abs(hits / total - p_up) <= 4.0 * se

    def test_monotone_coupling(self):
        # shared uniforms: raising the tilt can only flip steps upward
        for seed in range(20):
            lo = simulate_tilted_path(SR4, 0.3, seed).differences
            hi = simulate_tilted_path(SR4, 1.5, seed).differences
            assert np.all(hi >= lo)


class TestScalarExpit:
    """The pure-Python logistic against scipy.special.expit, bit for bit."""

    @staticmethod
    def assert_bits_equal(xs):
        from scipy.special import expit
        ours = np.array([_expit(x) for x in xs])
        assert ours.tobytes() == expit(np.array(xs)).tobytes()
        assert [_expit(x) for x in xs[::97]] == [float(expit(x))
                                                for x in xs[::97]]

    def test_dense_points(self):
        rng = np.random.default_rng(2016)
        self.assert_bits_equal(rng.uniform(-40.0, 40.0, 400_000).tolist()
                               + np.linspace(0.0, 745.0, 20_000).tolist())

    def test_readme_model_tilts(self):
        # every threshold 2*lam*scale at lam = f/eps, f the default verify
        # fractions, on the command-line examples' scalar-threshold models
        xs = []
        for model in (ScaledRademacher.equal_weights(400),
                      ScaledRademacher.equal_weights(1000),
                      VarianceSwitch(n=64, delta=0.5)):
            law = model._law()
            scales = law.switch or (law.constant_scale,)
            eps = model.bernstein_params().epsilon
            for f in (0.1, 0.5, 0.9):
                lam = f / eps
                xs.extend(2.0 * lam * s for s in scales)
        assert len(xs) == 12
        self.assert_bits_equal(xs)


def _words_and_uniforms(size, index=0):
    """Raw Philox words and the uniforms Generator.random makes of them."""
    words = generator_for(31, 0, index).bit_generator.random_raw(size)
    return words, generator_for(31, 0, index).random(size)


class TestWordThresholds:
    """Decisions on raw words equal the decisions on their uniforms."""

    def test_words_are_the_uniforms_stream(self):
        words, u = _words_and_uniforms(1000)
        assert ((words >> 11) * 2.0 ** -53).tobytes() == u.tobytes()

    def test_integer_comparison_matches_the_uniform_one(self):
        words, u = _words_and_uniforms(20_000)
        m = words >> 11
        ps = [0.5, 0.125, 0.875, 2.0 ** -53, 1.0 - 2.0 ** -53]
        # p on the 2^-53 grid, at and beside drawn values of m
        ps += [float(k) * 2.0 ** -53 for v in m[:50].tolist()
               for k in (v - 1, v, v + 1)]
        ps += np.random.default_rng(3).random(200).tolist()
        for p in ps:
            assert np.array_equal(m < p * 2.0 ** 53, u < p)

    @pytest.mark.parametrize("band", [(1.0, 2.5), (1.0, 2.0), (0.5, 1.5),
                                      (1.5, 1.5), (3.0, 3.0 + 1e-9)])
    def test_band_values_match_the_uniform_formula(self, band):
        low, high = band
        words, u = _words_and_uniforms(20_000, 1)
        got = _band_values(band, words)
        assert got.tobytes() == (low + (high - low) * u).tobytes()

    def test_top_bit_sign_matches_the_half_threshold(self):
        # at lam = 0 a lane goes up iff its top bit is clear: then
        # (v + u') 2^-16 < 1/2 whatever u' in [0, 1) is, so none is read
        v = _untilted_lanes(20_000, 2, (1 << 15) - 1, 1 << 15)
        c = np.random.default_rng(4).uniform(0.01, 0.3, 20_000)
        xi, e = _two_point_steps(v, 0.0, c, c.shape)
        assert e is None
        for u in (0.0, 1.0 - 2.0 ** -53):
            up = u < 0.5 * 2.0 ** 16 - v
            assert xi.tobytes() == ((2.0 * up - 1.0) * c).tobytes()
        assert np.sign(xi[-2:]).tolist() == [1.0, -1.0]

    def test_tilted_signs_match_expit(self):
        from scipy.special import expit
        lam = 2.7
        c = np.random.default_rng(5).uniform(0.01, 0.3, (200, 100))
        bound = expit(c * (2.0 * lam)) * 2.0 ** 16
        v, refine, read = _lanes_and_refinements(c.shape, 3, bound)
        xi, e = _two_point_steps(v, lam, c, c.shape, read=read)
        u = (refine >> np.uint64(11)) * 2.0 ** -53
        want = np.where(u < bound - v, c, -c)
        assert xi.tobytes() == want.tobytes()
        assert e.tobytes() == np.exp(c * (-2.0 * lam)).tobytes()
        # the refinement words read are exactly the tied lanes'
        tied = (bound - v > 0.0) & (bound - v < 1.0)
        assert tied.sum() >= 1000
        assert sorted(read.offsets) == _block_offsets(tied)

    def test_fallback_decides_lanes_on_the_libm_threshold(self, monkeypatch):
        # numpy's exp and libm's can disagree by an ulp, moving the fast
        # threshold 2^16/(1 + exp(-x)) off 2^16 expit(x); tied lanes whose
        # refinement uniform falls between the two must follow scipy's
        # expit.  Whether numpy's exp disagrees depends on the CPU kernel
        # it dispatches to, so the test hands the sampler an exp one ulp
        # below libm's on every input
        from scipy.special import expit
        lam = 1.0
        c = np.random.default_rng(6).uniform(0.0, 1.0, 200_000)
        fast = 2.0 ** 16 / (1.0 + _exp_below_libm(c * (-2.0 * lam)))
        exact = expit(c * (2.0 * lam)) * 2.0 ** 16
        assert np.abs(fast - exact).max() <= 2.0 ** -36 < _MARGIN
        split = (fast != exact) & (np.floor(fast) == np.floor(exact))
        assert split.sum() >= 100
        c, fast, exact = c[split], fast[split], exact[split]
        v = np.floor(exact)
        # u' just at or above the lower of the two: the two rules differ
        low = np.minimum(fast, exact) - v
        m = np.ceil(low * 2.0 ** 53)
        assert np.all(m * 2.0 ** -53 < np.maximum(fast, exact) - v)
        low_bits = np.random.default_rng(7).integers(0, 1 << 11, c.size,
                                                     dtype=np.uint64)
        refine = (m.astype(np.uint64) << np.uint64(11)) | low_bits
        read = _Reader(refine[:, None])
        shape = (c.size, 1)
        monkeypatch.setattr(martingales, "np", _NumpyExp(_exp_below_libm))
        xi, _ = _two_point_steps(v.astype(np.uint16)[:, None], lam,
                                 c[:, None], shape, read=read)
        u = m * 2.0 ** -53
        want = np.where(u < exact - v, c, -c)
        assert xi[:, 0].tobytes() == want.tobytes()
        # the fast threshold alone decides some of these lanes wrongly
        assert np.any((u < fast - v) != (u < exact - v))

    def test_margin_decides_a_fast_threshold_past_an_integer(
            self, monkeypatch):
        # where numpy's fast threshold reaches an integer K that libm's
        # 2^16 expit stays below, lane K - 1 ties: a refinement uniform
        # above expit's fraction sends the step down, though T - v >= 1.
        # An exp one ulp below libm's raises T on every input, whatever
        # numpy's own exp does on this CPU
        from scipy.special import expit
        lam = 1.0
        found = []
        for k in range(33000, 57000, 97):
            p = k / 2.0 ** 16
            root = math.log(p / (1.0 - p)) / (2.0 * lam)
            c = root + np.arange(-3000, 3000) * np.spacing(root)
            fast = 2.0 ** 16 / (1.0 + _exp_below_libm(c * (-2.0 * lam)))
            exact = expit(c * (2.0 * lam)) * 2.0 ** 16
            found.extend(c[(fast >= k) & (exact < k)].tolist())
        assert len(found) >= 3
        c = np.array(found)[:, None]
        lanes = (np.floor(expit(c * (2.0 * lam)) * 2.0 ** 16)
                 ).astype(np.uint16)
        refine = np.full(c.shape, (1 << 64) - 1, dtype=np.uint64)
        monkeypatch.setattr(martingales, "np", _NumpyExp(_exp_below_libm))
        xi, _ = _two_point_steps(lanes, lam, c, c.shape,
                                 read=_Reader(refine))
        assert np.array_equal(xi, -c)

    @pytest.mark.parametrize("lam", [0.0, 0.4, 3.0])
    def test_three_point_outcomes_match_the_uniform_rule(self, lam):
        c = np.random.default_rng(8).uniform(0.01, 0.6, (201, 100))
        t = lam * c
        up_w, down_w = 0.125 * np.exp(t), 0.125 * np.exp(-t)
        total = up_w + 0.75 + down_w
        hi = up_w / total
        mid = hi + 0.75 / total
        if lam > 0.0:
            # (v + u') 2^-16 against each threshold, with ties at both
            hi, mid = hi * 2.0 ** 16, mid * 2.0 ** 16
            v, refine, read = _lanes_and_refinements(c.shape, 4, hi, mid)
            u = (refine >> np.uint64(11)) * 2.0 ** -53
            want = np.subtract(u < hi - v, ~(u < mid - v), dtype=float)
            got = _three_point_outcomes(v, lam, c, read=read)
            assert np.array_equal(got, want)
            tied = (v == np.floor(hi)) | (v == np.floor(mid))
            assert tied.sum() >= 1000
            assert sorted(read.offsets) == _block_offsets(tied)
            return
        # at lam = 0 both thresholds are integers on the lane scale,
        # 2^13 and 7 * 2^13, so the lane alone decides
        hi, mid = hi * 2.0 ** 16, mid * 2.0 ** 16
        assert np.all(hi == 1 << 13) and np.all(mid == 7 << 13)
        v = _untilted_lanes(c.size, 4, (1 << 13) - 1, 1 << 13,
                            (7 << 13) - 1, 7 << 13).reshape(c.shape)
        got = _three_point_outcomes(v, lam, c)
        for u in (0.0, 1.0 - 2.0 ** -53):
            want = np.subtract(u < hi - v, ~(u < mid - v), dtype=float)
            assert np.array_equal(got, want)
        assert got.ravel()[-4:].tolist() == [1, 0, 0, -1]


def _exp_below_libm(x, out=None):
    """The double just below libm's exp(x), elementwise: a fast exp that
    disagrees with ``_expit``'s by one ulp on every input."""
    libm = np.array([math.exp(v) for v in np.ravel(x).tolist()])
    return np.nextafter(libm.reshape(np.shape(x)), -np.inf, out=out)


class _NumpyExp:
    """numpy with ``exp`` replaced, to stand in for the sampler's numpy."""

    def __init__(self, exp):
        self.exp = exp

    def __getattr__(self, name):
        return getattr(np, name)


class _Reader:
    """Refinement words of a step-major (n, k) block, by block offset
    r*n + i, recording the offsets read."""

    def __init__(self, refine):
        self.refine, self.offsets = refine, []

    def __call__(self, at):
        self.offsets.extend(np.asarray(at).tolist())
        row, step = np.divmod(at, self.refine.shape[0])
        return self.refine[step, row]


def _block_offsets(mask) -> list:
    """Block offsets r*n + i of the set entries of a step-major mask."""
    step, row = np.nonzero(mask)
    return sorted((row * mask.shape[0] + step).tolist())


def _untilted_lanes(size, index, *edges):
    """Random 16-bit lanes, the last ones set to ``edges``."""
    bits = generator_for(31, 0, index).bit_generator
    lanes = (bits.random_raw(size) >> np.uint64(48)).astype(np.uint16)
    lanes[size - len(edges):] = edges
    return lanes


def _lanes_and_refinements(shape, index, *bounds):
    """(lanes, refinement words, reader) of a step-major block: random
    16-bit lanes, every third set to the floor of one of ``bounds`` so
    that it ties, and random refinement words."""
    bits = generator_for(31, 0, index).bit_generator
    lanes = bits.random_raw(shape) >> np.uint64(48)
    for j, bound in enumerate(bounds):
        pick = np.zeros(shape, dtype=bool)
        pick.ravel()[j::3] = True
        lanes[pick] = np.floor(bound[pick]).astype(np.uint64)
    refine = bits.random_raw(shape)
    return lanes.astype(np.uint16), refine, _Reader(refine)


class TestWordReader:
    """Refinement words read by offset, as one straight draw reads them."""

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 777 * 31 + 777 * 8])
    def test_reader_matches_one_straight_draw(self, start):
        stream = generator_for(9, 3, 11).bit_generator.random_raw(
            start + 4000)
        rng = np.random.default_rng(start)
        # offsets of every residue mod 4, unsorted, with repeats, a jump
        # past several counter steps and, in the second call, offsets
        # behind the first call's last
        first = np.concatenate((rng.permutation(np.arange(40)),
                                rng.integers(0, 4000, 30), [3999, 5, 5]))
        second = rng.integers(0, 4000, 25)
        bits = generator_for(9, 3, 11).bit_generator
        bits.random_raw(17)   # the chunk's own draws do not move the reader
        read = _WordReader(bits, start)
        for offsets in (first, second, second[::-1]):
            got = read(offsets)
            assert got.dtype == np.uint64
            assert got.tolist() == stream[start + offsets].tolist()
        assert read(np.array([], dtype=np.int64)).size == 0

    @pytest.mark.parametrize("start", [0, 3])
    def test_reader_reaches_far_offsets(self, start):
        # words past 2^34 (counter steps past 2^32), against a fresh
        # Philox advanced to each word's counter step
        bits = generator_for(9, 3, 11).bit_generator
        offsets = np.array([(1 << 34) + 5, 1 << 40, (1 << 34) + 2, 7])
        got = _WordReader(bits, start)(offsets)
        for at, word in zip((offsets + start).tolist(), got.tolist()):
            fresh = np.random.Philox(key=bits.state["state"]["key"])
            fresh.advance(at // 4)
            assert word == int(fresh.random_raw(at % 4 + 1)[-1])


class TestConjugateStats:
    def test_frozen_example(self):
        p = simulate_path(SR4, 7)
        st = conjugate_stats(p, SR4, 1.0)
        # 4 log cosh(1/2) and 4 * (1/2) tanh(1/2)
        assert st.psi == pytest.approx(0.4804580278331101, rel=1e-14)
        assert st.b_drift == pytest.approx(0.9242343145200195, rel=1e-14)

    def test_exact_identities(self):
        for model in ALL_MODELS:
            eps = model.bernstein_params().epsilon
            for seed in (1, 2, 3):
                p = simulate_path(model, seed)
                for lam in (0.0, 0.4 / eps, 0.9 / eps):
                    st = conjugate_stats(p, model, lam)
                    assert st.y == p.final - st.b_drift
                    assert st.log_z == lam * p.final - st.psi
                    assert st.z == math.exp(st.log_z)

    def test_zero_tilt_degenerate(self):
        p = simulate_path(SR4, 3)
        st = conjugate_stats(p, SR4, 0.0)
        assert st.z == 1.0 and st.psi == 0.0 and st.b_drift == 0.0
        assert st.y == p.final

    def test_domain_and_mismatch(self):
        p = simulate_path(SR4, 3)
        with pytest.raises(DomainError):
            conjugate_stats(p, SR4, 2.0)
        other = ScaledRademacher.equal_weights(16)
        with pytest.raises(DomainError):
            conjugate_stats(p, other, 0.5)

    def test_half_cosh_flag_scope(self):
        vs = VarianceSwitch(n=16, delta=0.4)
        st = conjugate_stats(simulate_path(vs, 1), vs, 0.5)
        assert not st.half_cosh_applicable
        reg3 = RegressionModel(theta=0.0, n=30, covariate_low=1.0,
                               covariate_high=2.0, sigma=1.0,
                               noise=NoiseFamily.TRUNCATED_SYMMETRIC)
        assert not conjugate_stats(simulate_path(reg3, 1), reg3,
                                   0.5).half_cosh_applicable
        sn = SelfNormalized(n=30, magnitude_low=1.0, magnitude_high=2.0)
        assert conjugate_stats(simulate_path(sn, 1), sn,
                               0.5).half_cosh_applicable

    def test_three_point_helpers_match_direct_formula(self):
        t = np.array([0.0, 1e-3, 0.5, 3.0, 31.9, 32.1, 50.0, 700.0])
        # math.cosh(700) is finite, so the direct formula covers every t
        direct = np.array([math.log(0.75 + 0.25 * math.cosh(v)) for v in t])
        np.testing.assert_allclose(_three_point_psi(t), direct, rtol=1e-13)
        drift = _three_point_drift_factor(t)
        for v, d in zip(t, drift):
            assert d == pytest.approx(
                math.sinh(v) / (3.0 + math.cosh(v)), rel=1e-13)
        assert drift[-1] == pytest.approx(1.0, rel=1e-15)
        assert np.all(np.diff(drift) >= 0.0)

    def test_three_point_helper_bytes_do_not_depend_on_array_length(self):
        t = np.linspace(0.0, 31.9, 257)
        with_large = np.append(t, 40.0)   # one entry longer
        for helper in (_three_point_psi, _three_point_drift_factor):
            assert helper(t).tobytes() == helper(with_large)[:-1].tobytes()


class TestVerifyA1:
    @pytest.mark.parametrize("model", ALL_MODELS,
                             ids=lambda m: model_id(m)[:24])
    def test_all_families_pass_to_order_12(self, model):
        rep = verify_A1(model)
        assert rep.passed
        assert rep.binding_eps <= rep.declared_eps + 1e-12

    def test_binding_value_two_point(self):
        # order 4 binds: eps_min = scale / sqrt(12)
        rep = verify_A1(ScaledRademacher.equal_weights(16))
        assert rep.binding_eps == pytest.approx(0.25 / math.sqrt(12),
                                                rel=1e-13)

    def test_order_two_trivial(self):
        rep = verify_A1(SR4)
        assert rep.passed
        assert rep.orders == (2, 4, 6, 8, 10, 12)
        assert rep.margins.shape == (4, len(rep.orders))
        np.testing.assert_allclose(rep.margins[:, 0], 0.0, atol=1e-15)

    def test_regression_order_four_is_tight(self):
        reg = RegressionModel(theta=0.0, n=100, covariate_low=1.0,
                              covariate_high=1.0, sigma=1.0,
                              noise=NoiseFamily.RADEMACHER_SCALED)
        rep = verify_A1(reg)
        j = rep.orders.index(4)
        assert abs(rep.margins[0, j]) <= 1e-12

    def test_bad_inputs(self):
        with pytest.raises(UnsupportedModelError):
            verify_A1("rademacher")


class TestVerifyA2:
    def test_values(self):
        assert verify_A2(SR4) == (0.0, True)
        assert verify_A2(VarianceSwitch(n=10, delta=0.3)) == \
            pytest.approx((0.09, True))
        assert verify_A2(SelfNormalized(n=10, magnitude_low=1.0,
                                        magnitude_high=2.0)) == (0.0, True)
        assert verify_A2(RegressionModel(
            theta=0.0, n=10, covariate_low=1.0, covariate_high=2.0,
            sigma=1.0, noise=NoiseFamily.RADEMACHER_SCALED)) == (0.0, True)


class TestLemmaChecks:
    def test_zero_tilt_equalities(self):
        p = simulate_path(SR4, 5)
        rep = lemma_checks(conjugate_stats(p, SR4, 0.0),
                           SR4.bernstein_params())
        assert rep.passed
        assert rep.b_value == rep.b_bound == 0.0
        assert rep.psi_value == rep.psi_bound == 0.0

    def test_frozen_example(self):
        p = simulate_path(SR4, 7)
        rep = lemma_checks(conjugate_stats(p, SR4, 1.0),
                           SR4.bernstein_params())
        assert rep.passed
        # (1 - 0.25) / 0.25 and 1 / (2 * 0.5)
        assert rep.b_bound == pytest.approx(3.0, rel=1e-15)
        assert rep.psi_bound == pytest.approx(1.0, rel=1e-15)
        assert rep.half_cosh_bound == 0.5
        assert rep.half_cosh_worst == pytest.approx(0.4804580278331101,
                                                    rel=1e-13)

    def test_sweep_all_families(self):
        for model in ALL_MODELS:
            params = model.bernstein_params()
            for seed in range(8):
                p = simulate_path(model, seed)
                for frac in (0.1, 0.5, 0.9):
                    st = conjugate_stats(p, model, frac / params.epsilon)
                    assert lemma_checks(st, params).passed

    def test_violation_reported_not_raised(self):
        p = simulate_path(SR4, 7)
        st = conjugate_stats(p, SR4, 1.0)
        doctored = ConjugatePathStats(
            lam=st.lam, z=st.z, log_z=st.log_z, psi=st.psi,
            b_drift=st.b_drift + 10.0, y=st.y, per_step_b=st.per_step_b,
            per_step_psi=st.per_step_psi,
            half_cosh_applicable=st.half_cosh_applicable)
        rep = lemma_checks(doctored, SR4.bernstein_params())
        assert not rep.passed
        assert any("drift" in v for v in rep.violations)

    def test_each_ceiling_reports_its_own_violation(self):
        # forged objects one double above the drift and log-MGF ceilings
        # are reported with their values; at the ceilings nothing is
        params = SR4.bernstein_params()
        (b_bound, b_top), (psi_bound, psi_top), _ = _lemma_ceilings(1.0,
                                                                    params)
        b, psi = (math.nextafter(v, math.inf) for v in (b_top, psi_top))
        stats = ConjugatePathStats(
            lam=1.0, z=1.0, log_z=0.0, psi=psi, b_drift=b, y=0.0,
            per_step_b=np.zeros(4), per_step_psi=np.zeros(4),
            half_cosh_applicable=False)
        assert lemma_checks(stats, params).violations == (
            f"drift bound: B = {b!r} > {b_bound!r}",
            f"log-MGF bound: Psi = {psi!r} > {psi_bound!r}")
        at_top = dataclasses.replace(stats, psi=psi_top, b_drift=b_top)
        assert lemma_checks(at_top, params).passed

    @pytest.mark.parametrize("lam", [math.nan, -0.5, math.inf])
    def test_bad_tilt_refused(self, lam):
        stats = ConjugatePathStats(
            lam=lam, z=1.0, log_z=0.0, psi=5.0, b_drift=5.0, y=0.0,
            per_step_b=[5.0], per_step_psi=[5.0], half_cosh_applicable=True)
        with pytest.raises(DomainError):
            lemma_checks(stats, BernsteinParams(0.1, 0.0))

    def test_lower_slack_reported(self):
        p = simulate_path(SR4, 7)
        rep = lemma_checks(conjugate_stats(p, SR4, 1.0),
                           SR4.bernstein_params())
        # B = 2 tanh(1/2) < lam = 1, so some positive c is needed
        expect = (1.0 - rep.b_value) / 0.5
        assert rep.lower_c_required == pytest.approx(expect, rel=1e-13)


class TestBolthausen:
    def test_already_full_characteristic(self):
        p = simulate_path(SR4, 21)
        aug = bolthausen_augment(p, 0.5, 99)
        assert aug.n == 4 + 4 + 1
        assert aug.qc[-1] == 1.0
        assert aug.final == p.final
        np.testing.assert_array_equal(aug.differences[:4], p.differences)
        assert np.all(aug.differences[4:] == 0.0)

    def test_forced_deficit_adds_one_step(self):
        # dyadic delta keeps 1 - delta^2 exact, so the traced construction
        # lands on r = 1 with a zero-size closing step
        delta = 0.25
        qc = np.array([0.0, 1.0 - delta ** 2])
        path = PathSample(np.array([0.1]), np.array([0.0, 0.1]), qc,
                          0.01, 0, "handmade")
        aug = bolthausen_augment(path, delta, 17)
        assert abs(aug.differences[1]) == delta       # one Rademacher step
        assert aug.differences[2] == 0.0              # closing step size 0
        assert aug.qc[-1] == 1.0

    def test_variance_switch_batch(self):
        vs = VarianceSwitch(n=40, delta=0.5)
        eps = vs.bernstein_params().epsilon
        want_n = 40 + math.floor(1.0 / eps ** 2) + 1
        for seed in range(200):
            aug = bolthausen_augment(simulate_path(vs, seed), eps, seed)
            assert aug.n == want_n
            assert abs(aug.qc[-1] - 1.0) <= 1e-12
            assert np.all(np.diff(aug.qc) >= -1e-16)
            assert aug.sq_bracket == math.fsum(
                v * v for v in aug.differences.tolist())

    def test_epsilon_domain(self):
        p = simulate_path(SR4, 1)
        with pytest.raises(DomainError):
            bolthausen_augment(p, 0.0, 1)
        with pytest.raises(DomainError):
            bolthausen_augment(p, -0.5, 1)

    def test_oversized_padding_is_refused_before_allocating(self):
        # eps = 1e-6 would pad with 10^12 steps, terabytes of floats: the
        # call must refuse it without drawing or allocating anything
        p = simulate_path(SR4, 1)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="2\\^20"):
                bolthausen_augment(p, 1e-6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


    def test_padding_at_the_cap_holds_little_besides_its_path(self):
        # at eps = 2^-10 a path with no variance of its own takes all
        # 2^20 padding steps; the returned path keeps 24 MiB, and
        # sq_bracket sums the squares a slice at a time, never as one
        # float list of the padding (32 MiB on its own)
        path = PathSample(np.zeros(16), np.zeros(17), np.zeros(17), 0.0, 0,
                          "handmade")
        tracemalloc.start()
        try:
            aug = bolthausen_augment(path, 2.0 ** -10, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert aug.n == 16 + 2 ** 20 + 1
        assert aug.sq_bracket == math.fsum(
            v * v for v in aug.differences.tolist())
        assert peak < 44 << 20

    def test_cap_sits_at_two_to_the_minus_ten(self):
        # the cap is on eps itself: the first double below 2^-10 is
        # refused, while 2^-8 pads a path with no variance of its own,
        # the worst case, with all floor(1/eps^2) = 2^16 steps of size eps
        path = PathSample(np.array([0.0]), np.array([0.0, 0.0]),
                          np.array([0.0, 0.0]), 0.0, 0, "handmade")
        with pytest.raises(DomainError, match="2\\^-10"):
            bolthausen_augment(path, math.nextafter(2.0 ** -10, 0.0), 1)
        eps = 2.0 ** -8
        aug = bolthausen_augment(path, eps, 1)
        assert aug.n == 1 + 2 ** 16 + 1
        assert np.all(np.abs(aug.differences[1:2 ** 16 + 1]) == eps)
        assert aug.differences[-1] == 0.0
        assert abs(aug.qc[-1] - 1.0) <= 1e-12


class TestZMartingale:
    def test_mean_one_within_4se(self):
        m = SR4
        lam = 1.0  # lam * eps = 0.5
        zs = np.empty(5000)
        for seed in range(zs.size):
            zs[seed] = conjugate_stats(simulate_path(m, seed), m, lam).z
        se = zs.std(ddof=1) / math.sqrt(zs.size)
        assert abs(zs.mean() - 1.0) <= 4.0 * se


def _model_from_document(doc):
    """The model a ``model_to_dict`` document describes: JSON lists back
    to tuples; the regression model takes its noise family by value."""
    cls = {c.kind: c for c in (ScaledRademacher, VarianceSwitch,
                               SelfNormalized, RegressionModel)}[doc["kind"]]
    values = {k: tuple(v) if isinstance(v, list) else v
              for k, v in doc.items() if k != "kind"}
    return cls(**values)


class TestSerialization:
    @pytest.mark.parametrize("model", ALL_MODELS,
                             ids=lambda m: model_id(m)[:24])
    def test_round_trip(self, model):
        # model_id digests the canonical document, so the document must
        # hold every field: the model rebuilt from it, after a strict JSON
        # round trip, is the same model under the same id
        text = json.dumps(model_to_dict(model), allow_nan=False)
        back = _model_from_document(json.loads(text))
        assert back == model
        assert model_id(back) == model_id(model)
        assert list(model_to_dict(model)) == \
            ["kind"] + [f.name for f in fields(model)]

    def test_identities_pinned(self):
        # model_id is carried by every PathSample and VerificationReport
        pinned = [
            ("scaled_rademacher-832917e7b507",
             '{"kind": "scaled_rademacher", "weights": [0.5, 0.5, 0.5, 0.5]}'),
            ("scaled_rademacher-4e0e78a4d5bc",
             '{"kind": "scaled_rademacher", "weights": '
             '[0.5, 0.5, 0.5, 0.25, 0.4330127018922193]}'),
            ("variance_switch-b4a0c90995f9",
             '{"delta": 0.5, "kind": "variance_switch", "n": 64}'),
            ("self_normalized-e25aeb3456c8",
             '{"kind": "self_normalized", "magnitude_high": 2.5, '
             '"magnitude_low": 1.0, "n": 64}'),
            ("regression-8d10c6f5a630",
             '{"covariate_high": 2.0, "covariate_low": 1.0, "kind": '
             '"regression", "n": 64, "noise": "rademacher_scaled", '
             '"sigma": 0.7, "theta": 2.0}'),
            ("regression-d10f23382eac",
             '{"covariate_high": 1.5, "covariate_low": 0.5, "kind": '
             '"regression", "n": 64, "noise": "truncated_symmetric", '
             '"sigma": 1.3, "theta": -1.0}'),
        ]
        assert [(model_id(m), json.dumps(model_to_dict(m), sort_keys=True))
                for m in ALL_MODELS] == pinned

    def test_model_id_stable_and_distinct(self):
        ids = {model_id(m) for m in ALL_MODELS}
        assert len(ids) == len(ALL_MODELS)
        assert model_id(SR4) == model_id(ScaledRademacher.equal_weights(4))
        assert model_id(SR4).startswith("scaled_rademacher-")


class TestCsvDump:
    def test_layout_and_round_trip(self):
        p = simulate_path(SR4, 42)
        buf = io.StringIO()
        path_to_csv(p, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "step,xi,s,qc"
        assert len(lines) == 1 + 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == ""
        for k, line in enumerate(lines[2:], start=1):
            cells = line.split(",")
            assert float(cells[1]) == p.differences[k - 1]
            assert float(cells[2]) == p.partial_sums[k]
            assert float(cells[3]) == p.qc[k]


class TestGeneratorKeying:
    def test_streams_and_indices_separate(self):
        a = generator_for(9, 0, 0).random(4)
        b = generator_for(9, 1, 0).random(4)
        c = generator_for(9, 0, 1).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(a, generator_for(9, 0, 0).random(4))

    def test_rejects_bad_keys(self):
        with pytest.raises(DomainError):
            generator_for(-1, 0, 0)
        with pytest.raises(DomainError):
            generator_for(1, 300, 0)
        with pytest.raises(DomainError):
            generator_for(1, 0, 1 << 56)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 64 - 1),
       st.lists(st.floats(0.05, 1.0), min_size=4, max_size=12))
def test_random_weight_models_keep_invariants(seed, raw):
    w = np.sqrt(np.asarray(raw) / np.sum(raw))
    if w.max() > 0.5:
        return
    model = ScaledRademacher(weights=tuple(w))
    p = simulate_path(model, seed)
    assert np.all(np.abs(np.abs(p.differences) - w) < 1e-15)
    assert p.qc[-1] == pytest.approx(1.0, abs=1e-12)
    st_ = conjugate_stats(p, model, 0.5 / w.max())
    assert st_.log_z == st_.lam * p.final - st_.psi
    assert lemma_checks(st_, model.bernstein_params()).passed
