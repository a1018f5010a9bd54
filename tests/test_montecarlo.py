"""Monte Carlo engine tests: enumeration oracles, estimator contracts,
worker determinism, and the hard-assertion suite."""

import hashlib
import itertools
import math
import operator
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from statistics import NormalDist
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.special import expit, ndtri
from scipy.stats import beta, binom

import martkit
from martkit import martingales, montecarlo
from martkit.bounds import lambda_bar
from martkit.errors import ConfigError, DomainError, UnsupportedModelError
from martkit.gaussian import std_normal_cdf
from martkit.martingales import (STREAM_MC, STREAM_MC_TILTED, STREAM_PATH,
                                 NoiseFamily, RegressionModel,
                                 ScaledRademacher, SelfNormalized,
                                 VarianceSwitch, _BLOCK_ELEMENTS,
                                 _z_variance_bound, conjugate_stats,
                                 generator_for, simulate_path,
                                 simulate_tilted_path)
from martkit.montecarlo import (CALIBRATION_ENVELOPES, EstimateMethod,
                                SimulationConfig, _chunk_layout,
                                _clopper_pearson_ends, _dkw_band,
                                _enumeration_atoms, _fold, _map_chunks,
                                _minimal_constant, _Request, _simulate_chunk,
                                calibrate_constant, conjugate_clt_check,
                                enumeration_support, estimate_be_distance,
                                estimate_tail_is, estimate_tail_plain,
                                estimate_tail_plain_grid,
                                run_verification_suite)

SR4 = ScaledRademacher.equal_weights(4)
SR16 = ScaledRademacher.equal_weights(16)
VS12 = VarianceSwitch(n=12, delta=0.5)
SN_EQ16 = SelfNormalized(n=16, magnitude_low=2.0, magnitude_high=2.0)
SN32 = SelfNormalized(n=32, magnitude_low=1.0, magnitude_high=2.0)
REG3_N10 = RegressionModel(theta=0.0, n=10, covariate_low=1.0,
                           covariate_high=1.0, sigma=1.0,
                           noise=NoiseFamily.TRUNCATED_SYMMETRIC)

UNEQ_W = (0.5, 0.45, 0.4, 0.35, 0.3,
          math.sqrt(1.0 - 0.25 - 0.2025 - 0.16 - 0.1225 - 0.09))
SR_UNEQ = ScaledRademacher(UNEQ_W)


def cfg(model, paths=1000, seed=7, **kw):
    return SimulationConfig(model, paths=paths, seed=seed, **kw)


CP_GRID = [(n, hits, level) for n in (1, 2, 7, 100, 1000, 1 << 20)
           for hits in sorted({h for h in (0, 1, 2, n // 3, n // 2, n - 1, n)
                               if h <= n})
           for level in (0.5, 0.95, 0.99, 0.999999)]


def _clopper_pearson(hits, n, level):
    lo, hi = _clopper_pearson_ends([hits], n, level)
    return lo[0], hi[0]


def _hits_solved_together(n):
    return [0, 1, 2, 4, 41, 196, 748, 2187, n // 6, n // 3, n // 2,
            n - 2, n - 1, n]


def _binomial_root_error(end, k, n, a, at_least):
    """Relative distance of ``end`` from the root x of P(Bin(n, x) >= k) = a
    (``at_least``) or of P(Bin(n, x) <= k) = a: one Newton step at 40
    digits, which is exact to first order, with the pmf from log-gamma and
    the tail summed outward from k to a 1e-45 relative remainder."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(end))
        q = 1 - x
        pmf = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                         - mpmath.loggamma(n - k + 1) + k * mpmath.log(x)
                         + (n - k) * mpmath.log(q))
        total = term = mpmath.mpf(1)
        j, cut = k, mpmath.mpf(10) ** -45
        while (j < n if at_least else j > 0) and term >= cut * total:
            if at_least:
                term *= mpmath.mpf(n - j) / (j + 1) * x / q
                j += 1
            else:
                term *= mpmath.mpf(j) / (n - j + 1) * q / x
                j -= 1
            total += term
        slope = pmf * (k / x if at_least else -(n - k) / q)
        return float((pmf * total - a) / slope / x)


class TestSimulationConfig:
    def test_defaults(self):
        c = cfg(SR4)
        assert c.chunk_size == 8192
        assert c.confidence_level == 0.99
        assert c.workers == 1
        assert c.exhaustive is None

    @pytest.mark.parametrize("kw", [
        {"paths": 0}, {"paths": -5}, {"chunk_size": 0},
        {"confidence_level": 0.0}, {"confidence_level": 1.0},
        {"confidence_level": 1.2}, {"workers": 0}, {"seed": -1},
        {"seed": 1 << 64},
    ])
    def test_rejects_bad_fields(self, kw):
        base = dict(model=SR4, paths=10, seed=1)
        base.update(kw)
        with pytest.raises(ConfigError):
            SimulationConfig(**base)

    def test_pool_is_capped_at_chunks_and_cpus(self, monkeypatch):
        # a recording stand-in for the executor: no thread is started
        pools = []

        class Recording:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)

        def kernel(chunk, rows):
            return chunk, rows

        def run(paths, workers):
            return _map_chunks(cfg(SR4, paths=paths, chunk_size=10,
                                   workers=workers), kernel)

        assert run(25, 1000) == [(0, 10), (1, 10), (2, 5)]
        assert run(100, 1000) == [(c, 10) for c in range(10)]
        assert run(100, 2) == [(c, 10) for c in range(10)]
        assert pools == [3, 4, 2]
        assert run(5, 8) == [(0, 5)]           # one chunk runs inline
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert run(100, 8) == [(c, 10) for c in range(10)]
        assert pools == [3, 4, 2]

    def test_threads_hold_a_few_chunks_at_a_time(self, monkeypatch):
        # handing every chunk to the pool at once held one future per
        # chunk: 100 MiB at 2^16 chunks, against 1 MiB inline
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        config = cfg(SR4, paths=1 << 16, chunk_size=1, workers=2)
        tracemalloc.start()
        try:
            out = _map_chunks(config, lambda chunk, rows: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == [None] * (1 << 16)
        assert peak < 8 << 20

    def test_accepts_numpy_integer_paths(self):
        c = SimulationConfig(SR4, paths=np.int64(100), seed=1)
        assert c.paths == 100 and type(c.paths) is int

    def test_accepts_numpy_unsigned_seed(self):
        c = SimulationConfig(SR4, paths=10, seed=np.uint64(5))
        assert c.seed == 5 and type(c.seed) is int
        top = SimulationConfig(SR4, paths=10, seed=np.uint64((1 << 64) - 1))
        assert top.seed == (1 << 64) - 1 and type(top.seed) is int

    def test_accepts_numpy_integer_chunk_size_and_workers(self):
        c = SimulationConfig(SR4, paths=10, seed=1,
                             chunk_size=np.int32(4), workers=np.int16(2))
        assert (c.chunk_size, c.workers) == (4, 2)
        assert type(c.chunk_size) is int and type(c.workers) is int
        assert c == SimulationConfig(SR4, paths=10, seed=1, chunk_size=4,
                                     workers=2)

    @pytest.mark.parametrize("kw", [
        {"paths": True}, {"seed": True}, {"seed": False},
        {"chunk_size": True}, {"workers": True}, {"paths": np.bool_(True)},
        {"paths": 10.0}, {"seed": "5"},
    ])
    def test_rejects_bools_and_non_integers(self, kw):
        base = dict(model=SR4, paths=10, seed=1)
        base.update(kw)
        with pytest.raises(ConfigError):
            SimulationConfig(**base)

    def test_refuses_oversized_chunk_draws(self):
        # constructing a config allocates nothing, so the caps are safe here
        cap = montecarlo.CHUNK_DRAW_MAX_ENTRIES
        sn = SelfNormalized(n=64, magnitude_low=1.0, magnitude_high=2.0)
        rows = cap // 64
        assert SimulationConfig(sn, paths=rows, seed=1, chunk_size=rows)
        with pytest.raises(ConfigError, match="entries"):
            SimulationConfig(sn, paths=rows + 1, seed=1, chunk_size=rows + 1)
        with pytest.raises(ConfigError, match="entries"):
            SimulationConfig(VarianceSwitch(n=64, delta=0.5), paths=rows + 1,
                             seed=1, chunk_size=rows + 1)
        # a chunk never holds more rows than there are paths
        assert SimulationConfig(sn, paths=rows, seed=1, chunk_size=1 << 62)
        # the binomial shortcut draws one count per path
        assert SimulationConfig(SR16, paths=cap, seed=1, chunk_size=cap)
        with pytest.raises(ConfigError, match="entries"):
            SimulationConfig(SR16, paths=cap + 1, seed=1, chunk_size=cap + 1)
        with pytest.raises(ConfigError, match="entries"):
            SimulationConfig(SR_UNEQ, paths=cap, seed=1, chunk_size=cap)

    def test_rejects_objects_that_are_not_models(self):
        with pytest.raises(UnsupportedModelError):
            SimulationConfig(object(), paths=10, seed=1)

    def test_refuses_too_many_chunks(self):
        most = montecarlo.CHUNK_COUNT_MAX
        assert SimulationConfig(SR4, paths=most, seed=1, chunk_size=1)
        assert SimulationConfig(SR4, paths=3 * most, seed=1, chunk_size=3)
        with pytest.raises(ConfigError, match="chunks"):
            SimulationConfig(SR4, paths=most + 1, seed=1, chunk_size=1)
        with pytest.raises(ConfigError, match="chunks"):
            SimulationConfig(SR4, paths=1 << 62, seed=1)

    def test_chunk_layout_covers_paths(self):
        count, sizes = _chunk_layout(cfg(SR4, paths=1000, chunk_size=256))
        assert count == 4 and sizes == [256, 256, 256, 232]
        count, sizes = _chunk_layout(cfg(SR4, paths=5, chunk_size=8))
        assert count == 1 and sizes == [5]


class TestEnumerationSupport:
    def test_leaf_counts(self):
        assert enumeration_support(SR16) == 2 ** 16
        assert enumeration_support(ScaledRademacher.equal_weights(20)) == 2 ** 20
        assert enumeration_support(ScaledRademacher.equal_weights(21)) is None
        assert enumeration_support(VS12) == 2 ** 12
        assert enumeration_support(SN_EQ16) == 2 ** 16
        assert enumeration_support(
            SelfNormalized(n=16, magnitude_low=1.0, magnitude_high=2.0)) is None

    def test_three_point_base(self):
        assert enumeration_support(REG3_N10) == 3 ** 10
        tight = RegressionModel(theta=0.0, n=12, covariate_low=1.0,
                                covariate_high=1.0, sigma=1.0,
                                noise=NoiseFamily.TRUNCATED_SYMMETRIC)
        assert enumeration_support(tight) == 3 ** 12
        over = RegressionModel(theta=0.0, n=13, covariate_low=1.0,
                               covariate_high=1.0, sigma=1.0,
                               noise=NoiseFamily.TRUNCATED_SYMMETRIC)
        assert enumeration_support(over) is None
        cont = RegressionModel(theta=0.0, n=8, covariate_low=1.0,
                               covariate_high=2.0, sigma=1.0,
                               noise=NoiseFamily.RADEMACHER_SCALED)
        assert enumeration_support(cont) is None

    def test_forcing_enumeration_on_continuous_model_fails(self):
        sn = SelfNormalized(n=8, magnitude_low=1.0, magnitude_high=2.0)
        with pytest.raises(UnsupportedModelError):
            estimate_tail_plain(cfg(sn, exhaustive=True), 0.5)
        # every other entry point that reads the enumerate-or-sample
        # decision (SN32 has a valid Bernstein scale, so none fails earlier)
        forced = cfg(SN32, exhaustive=True)
        for call in (lambda: estimate_tail_plain_grid(forced, [0.5, 1.0]),
                     lambda: estimate_tail_is(forced, 1.0),
                     lambda: estimate_be_distance(forced, [0.0, 1.0]),
                     lambda: calibrate_constant(forced, "thm22", [0.5]),
                     lambda: calibrate_constant(forced, "thm21", [0.5]),
                     lambda: run_verification_suite(
                         forced, domination_levels=(1.0,)),
                     # the decision comes before the level check
                     lambda: calibrate_constant(forced, "thm22", [-1.0])):
            with pytest.raises(UnsupportedModelError):
                call()
        # without domination levels the suite never reads the decision
        assert run_verification_suite(forced, domination_levels=()).paths \
            == forced.paths


class TestEnumerationAtoms:
    def test_equal_weight_lattice_is_exact(self):
        values, probs, log_z = _enumeration_atoms(SR4, 0.0)
        assert values.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert probs.tolist() == [1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16]
        assert np.all(log_z == 0.0)

    def test_probability_mass_closes(self):
        for model in (SR4, VS12, REG3_N10, SR_UNEQ):
            for lam in (0.0, 0.7):
                _, probs, _ = _enumeration_atoms(model, lam)
                assert abs(probs.sum() - 1.0) < 1e-13

    def test_tilted_unweighting_recovers_plain_law(self):
        # sum over atoms of P_lam * Z^-1 * 1{S > x} telescopes back to P
        for model in (SR4, VS12, REG3_N10, SR_UNEQ):
            v0, p0, _ = _enumeration_atoms(model, 0.0)
            v1, p1, lz1 = _enumeration_atoms(model, 0.9)
            for x in (-0.5, 0.3, 1.1):
                plain = float(p0[v0 > x].sum())
                tilted = float(np.sum(p1[v1 > x] * np.exp(-lz1[v1 > x])))
                assert abs(plain - tilted) < 1e-13

    def test_variance_switch_against_sign_pattern_sweep(self):
        model = VarianceSwitch(n=6, delta=0.6)
        d2 = model.delta ** 2
        s_plus = math.sqrt((1.0 + d2) / model.n)
        s_minus = math.sqrt((1.0 - d2) / model.n)
        tail = {}
        for signs in itertools.product((1.0, -1.0), repeat=model.n):
            s = 0.0
            for sg in signs:
                scale = s_plus if s >= 0.0 else s_minus
                s += sg * scale
            tail[s] = tail.get(s, 0.0) + 0.5 ** model.n
        values, probs, _ = _enumeration_atoms(model, 0.0)
        for x in (-1.0, 0.0, 0.4, 1.2):
            brute = sum(p for v, p in tail.items() if v > x)
            exact = float(probs[values > x].sum())
            assert abs(brute - exact) < 1e-13

    @pytest.mark.parametrize("n", [9, 12, 16, 20])
    def test_variance_switch_thresholds_match_scipy_expit(self, n):
        # the enumerator picks one of two scalar thresholds per state; the
        # bytes must be those of scipy's array expit on the per-state scales
        model = VarianceSwitch(n=n, delta=0.5)
        s_plus, s_minus = model._law().switch
        eps = model.bernstein_params().epsilon
        for f in (0.0, 0.1, 0.37, 0.5, 0.9, 0.999):
            lam = f / eps
            values, psis, probs = np.zeros(1), np.zeros(1), np.ones(1)
            for _ in range(n):
                scale = np.where(values >= 0.0, s_plus, s_minus)
                p_up = expit(2.0 * lam * scale)
                a = np.abs(lam * scale)
                step_psi = a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
                key, inverse = np.unique(
                    np.column_stack((
                        np.concatenate((values + scale, values - scale)),
                        np.concatenate((psis + step_psi, psis + step_psi)))),
                    axis=0, return_inverse=True)
                grown_p = np.concatenate((probs * p_up, probs * (1.0 - p_up)))
                probs = np.zeros(key.shape[0])
                np.add.at(probs, inverse, grown_p)
                values, psis = key[:, 0], key[:, 1]
            got = _enumeration_atoms(model, lam)
            want = (values, probs, lam * values - psis)
            assert all(_same_bytes(g, w) for g, w in zip(got, want))

    def test_three_point_against_outcome_sweep(self):
        model = RegressionModel(theta=0.0, n=4, covariate_low=1.0,
                                covariate_high=1.0, sigma=1.0,
                                noise=NoiseFamily.TRUNCATED_SYMMETRIC)
        support = 2.0 / math.sqrt(model.n)
        weight = {1.0: 0.125, 0.0: 0.75, -1.0: 0.125}
        tail = {}
        for steps in itertools.product((1.0, 0.0, -1.0), repeat=model.n):
            s = support * sum(steps)
            p = math.prod(weight[v] for v in steps)
            tail[round(s, 12)] = tail.get(round(s, 12), 0.0) + p
        values, probs, _ = _enumeration_atoms(model, 0.0)
        for x in (-2.0, 0.0, 0.9, 1.9):
            brute = sum(p for v, p in tail.items() if v > x)
            exact = float(probs[values > x].sum())
            assert abs(brute - exact) < 1e-13


class TestTailPlain:
    def test_four_step_oracle_is_exact(self):
        est = estimate_tail_plain(cfg(SR4), 0.9)
        assert est.p_hat == 5 / 16
        assert est.ci_lo == est.p_hat == est.ci_hi
        assert est.method is EstimateMethod.EXACT_ENUMERATION
        assert est.effective_samples == 16.0

    def test_degenerate_thresholds(self):
        below = estimate_tail_plain(cfg(SR4), -2.5)
        assert below.p_hat == 1.0
        above = estimate_tail_plain(cfg(SR4), 2.0)
        assert above.p_hat == 0.0 and above.ci_lo == 0.0

    def test_threshold_validation(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                estimate_tail_plain(cfg(SR4), bad)
        with pytest.raises(DomainError):
            estimate_tail_plain_grid(cfg(SR4), [])

    def test_sampled_interval_covers_exact_value(self):
        c = cfg(SR4, paths=100000, seed=21, exhaustive=False)
        est = estimate_tail_plain(c, 0.9)
        assert est.method is EstimateMethod.PLAIN_CLOPPER_PEARSON
        assert est.ci_lo <= 5 / 16 <= est.ci_hi
        assert est.effective_samples == 100000.0

    def test_grid_returns_inputs_in_order(self):
        c = cfg(SR4, paths=20000, seed=3, exhaustive=False)
        pair = estimate_tail_plain_grid(c, [1.5, -0.5])
        assert pair[0].x == 1.5 and pair[1].x == -0.5
        assert pair[0].p_hat == estimate_tail_plain(c, 1.5).p_hat
        assert pair[1].p_hat == estimate_tail_plain(c, -0.5).p_hat

    def test_tail_plus_cdf_counts_are_complementary(self):
        c = cfg(VS12, paths=30000, seed=5, exhaustive=False)
        x = 0.4
        tail = estimate_tail_plain(c, x)
        dist = estimate_be_distance(c, [x])
        cdf_at_x = dist.d_hat  # |F(x) - Phi(x)|; recover F from it
        phi = std_normal_cdf(x)
        for f in (phi + cdf_at_x, phi - cdf_at_x):
            if abs((1.0 - f) - tail.p_hat) < 1e-12:
                break
        else:
            pytest.fail("tail and CDF counts disagree")


class TestValueValidation:
    """The grid and threshold checks name the parameter that failed."""

    @pytest.mark.parametrize("call, message", [
        (lambda c: estimate_tail_plain_grid(c, []),
         "xs must be a nonempty 1-d sequence"),
        (lambda c: estimate_tail_plain_grid(c, [[0.5, 1.0]]),
         "xs must be a nonempty 1-d sequence"),
        (lambda c: estimate_tail_plain_grid(c, [0.5, math.nan]),
         "xs values must be finite"),
        (lambda c: run_verification_suite(c, domination_levels=[[1.0]]),
         "domination_levels must be a nonempty 1-d sequence"),
        (lambda c: run_verification_suite(c,
                                          domination_levels=(1.0, math.inf)),
         "domination_levels values must be finite"),
        (lambda c: calibrate_constant(c, "thm21", []),
         "x_grid must be a nonempty 1-d sequence"),
        (lambda c: calibrate_constant(c, "thm22", [0.0, -math.inf]),
         "x_grid values must be finite"),
        (lambda c: calibrate_constant(c, "thm21", [1.0, 0.5]),
         "x_grid must be sorted ascending"),
    ], ids=["xs-empty", "xs-2d", "xs-nan", "levels-2d", "levels-inf",
            "x_grid-empty", "x_grid-inf", "x_grid-unsorted"])
    def test_messages(self, call, message):
        with pytest.raises(DomainError) as exc:
            call(cfg(SR4))
        assert str(exc.value) == message


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = _clopper_pearson(0, 100, 0.99)
        assert lo == 0.0 and 0.0 < hi < 0.06
        lo, hi = _clopper_pearson(100, 100, 0.99)
        assert hi == 1.0 and 0.94 < lo < 1.0

    def test_interval_contains_point_estimate(self):
        for hits in (1, 17, 50, 99):
            lo, hi = _clopper_pearson(hits, 100, 0.95)
            assert lo <= hits / 100 <= hi

    def test_monotone_in_hits(self):
        los, his = zip(*(_clopper_pearson(h, 50, 0.99) for h in range(51)))
        assert all(a <= b + 1e-15 for a, b in zip(los, los[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(his, his[1:]))

    def test_matches_beta_quantiles(self):
        # within 1e-12 relative of scipy's beta.ppf, except where scipy's
        # own quantile is more than 1e-12 from the 40-digit root (at
        # n = 2^20, and at level 0.999999, whose upper quantile reads the
        # rounded 1 - alpha/2); test_ends_are_exact_roots holds every end
        # to 1e-14 of that root
        for n, hits, level in CP_GRID:
            a = (1.0 - level) / 2.0
            lo, hi = _clopper_pearson(hits, n, level)
            ends = []
            if hits == 0:
                assert lo == 0.0
            else:
                ends.append((lo, beta.ppf(a, hits, n - hits + 1), True))
            if hits == n:
                assert hi == 1.0
            else:
                ends.append((hi, beta.ppf(1.0 - a, hits + 1, n - hits),
                             False))
            for end, ref, at_least in ends:
                if abs(end - ref) > 1e-12 * ref:
                    assert abs(_binomial_root_error(
                        ref, hits, n, a, at_least)) > 1e-12, \
                        (n, hits, level, at_least)

    def test_ends_are_exact_roots(self):
        for n, hits, level in CP_GRID:
            a = (1.0 - level) / 2.0
            lo, hi = _clopper_pearson(hits, n, level)
            if hits > 0:
                assert abs(_binomial_root_error(lo, hits, n, a,
                                                True)) <= 1e-14
            if hits < n:
                assert abs(_binomial_root_error(hi, hits, n, a,
                                                False)) <= 1e-14

    def test_binomial_tails_at_the_ends(self):
        # the defining equations: P(Bin(n, lo) >= hits) = alpha/2 and
        # P(Bin(n, hi) <= hits) = alpha/2, within 1e-10 relative once the
        # tail is allowed to move as far as it does over one ulp of the end
        for n, hits, level in CP_GRID:
            a = (1.0 - level) / 2.0
            lo, hi = _clopper_pearson(hits, n, level)
            ends = []
            if hits > 0:
                ends.append((lo, lambda x: binom.sf(hits - 1, n, x)))
            if hits < n:
                ends.append((hi, lambda x: binom.cdf(hits, n, x)))
            for end, tail in ends:
                near = [float(tail(x)) for x in (np.nextafter(end, 0.0), end,
                                                 np.nextafter(end, 1.0))]
                assert min(near) * (1.0 - 1e-10) <= a \
                    <= max(near) * (1.0 + 1e-10), (n, hits, level)

    @pytest.mark.parametrize("n", [1, 7, 1 << 15])
    def test_closed_form_ends_at_zero_and_all_hits(self, n):
        # P(Bin(n, hi) <= 0) = (1 - hi)^n and P(Bin(n, lo) >= n) = lo^n
        level = 0.999999
        with mpmath.workdps(40):
            edge = (mpmath.mpf(1.0 - level) / 2) ** (mpmath.mpf(1) / n)
            hi_ref, lo_ref = float(1 - edge), float(edge)
        lo0, hi0 = _clopper_pearson(0, n, level)
        lo_n, hi_n = _clopper_pearson(n, n, level)
        assert lo0 == 0.0 and hi_n == 1.0
        assert abs(hi0 - hi_ref) <= 4 * math.ulp(hi_ref)
        assert abs(lo_n - lo_ref) <= 4 * math.ulp(lo_ref)

    @pytest.mark.parametrize("n", [1 << 15, 1 << 24])
    def test_ends_solved_together_equal_ends_solved_alone(self, n):
        hits = _hits_solved_together(n)
        for level in (0.5, 0.99, 0.999999):
            lo, hi = _clopper_pearson_ends(hits, n, level)
            assert list(zip(lo, hi)) == [
                _clopper_pearson(h, n, level) for h in hits]

    def test_ends_keep_their_bytes(self):
        # every end of the CP_GRID points and of the hit lists above, byte
        # for byte: a rewrite of the root solver must not move an end
        digest = hashlib.sha256()
        cases = [([hits], n, level) for n, hits, level in CP_GRID]
        cases += [(_hits_solved_together(n), n, level)
                  for n in (1 << 15, 1 << 24)
                  for level in (0.5, 0.99, 0.999999)]
        for hits, n, level in cases:
            lo, hi = _clopper_pearson_ends(hits, n, level)
            digest.update(np.array([lo, hi], dtype=float).tobytes())
        assert digest.hexdigest() == (
            "7ed216fb2341e84166dc0c949d3e0648136f563af1b4781044df3fc7fdc2540b")

    def test_memory_does_not_grow_with_the_number_of_counts(self):
        # 273 counts at 2^30: their 544 tails have 1.1e7 terms (86 MiB per
        # float array if held at once); the widest has 147473 (1.1 MiB)
        n = 1 << 30
        hits = sorted({int(h) for h in np.geomspace(1, n // 2, 300)})
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            lo, hi = _clopper_pearson_ends(hits, n, 0.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert all(0.0 < l < h / n < u < 1.0
                   for l, h, u in zip(lo, hits, hi))

    @pytest.mark.parametrize("level", [1e-9, 0.3, 1.0 - 2.0 ** -52])
    def test_extreme_levels_give_ordered_ends(self, level):
        n = 1000
        hits = list(range(0, n + 1, 37)) + [1, 2, n - 2, n - 1, n]
        lo, hi = map(np.array, _clopper_pearson_ends(hits, n, level))
        p_hat = np.array(hits) / n
        assert np.all((0.0 <= lo) & (lo <= p_hat) & (p_hat <= hi)
                      & (hi <= 1.0))


class TestImportFootprint:
    def test_scipy_stats_stays_unimported(self):
        pkg_root = str(Path(martkit.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(
            p for p in [pkg_root, os.environ.get("PYTHONPATH")] if p)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, martkit.montecarlo; "
             "print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        pkg_root = str(Path(martkit.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(
            p for p in [pkg_root, os.environ.get("PYTHONPATH")] if p)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, martkit.cli; "
             "print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_sampling_modules_leave_scipy_unloaded(self):
        out = _fresh_python(
            "import sys, martkit.martingales, martkit.montecarlo, "
            "martkit.applications\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert out == "[]"

    def test_cli_import_leaves_numpy_and_scipy_unloaded(self):
        out = _fresh_python("import sys, martkit.cli\n" + _PRINT_HEAVY)
        assert out == "[]"

    @pytest.mark.parametrize("envelope", [
        ["thm21", "--epsilon", "0.05"],
        ["wang-jing", "--l3n", "0.1", "--tail-sum", "0.01"],
        ["regression", "--epsilon", "0.05"],
        ["selfnorm", "--epsilon", "0.05"],
    ], ids=lambda args: args[0])
    def test_bound_command_runs_without_numpy_or_scipy(self, envelope):
        # python -m martkit.cli, run in process so that sys.modules can be
        # read after it exits
        argv = (["martkit", "bound", "--envelope"] + envelope
                + ["--x-from", "0", "--x-to", "4", "--x-step", "0.5"])
        out = _fresh_python(
            "import runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "try:\n"
            "    runpy.run_module('martkit.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print('exit', exc.code)\n" + _PRINT_HEAVY)
        lines = out.splitlines()
        assert lines[0] == "x,xhat,lambda_bar,value,log_value"
        assert len(lines) == 1 + 9 + 2
        assert lines[-2:] == ["exit 0", "[]"]

    def test_sampling_and_intervals_never_import_scipy(self):
        # no sampler and no interval end uses scipy, on the pool threads
        # or the main thread, and the results must not depend on the
        # worker count
        out = _fresh_python(
            "import sys\n"
            "seen = []\n"
            "def hook(event, args):\n"
            "    if event == 'import' and args[0].partition('.')[0] == "
            "'scipy':\n"
            "        seen.append(args[0])\n"
            "sys.addaudithook(hook)\n"
            "from martkit.martingales import SelfNormalized, VarianceSwitch\n"
            "from martkit.montecarlo import (SimulationConfig, "
            "estimate_tail_is,\n"
            "                                run_verification_suite)\n"
            "def run(model, workers):\n"
            "    c = SimulationConfig(model, paths=4096, seed=11,\n"
            "                         chunk_size=1024, workers=workers)\n"
            "    return repr((estimate_tail_is(c, 2.0),\n"
            "                 run_verification_suite(c)))\n"
            "for model in (SelfNormalized(64, 1.0, 2.5), "
            "VarianceSwitch(64, 0.5)):\n"
            "    two = run(model, 2)\n"
            "    print(two == run(model, 1))\n"
            "print(seen)\n")
        assert out.splitlines() == ["True", "True", "[]"]

    def test_no_scipy_after_every_sampling_entry_point(self):
        # a plain grid, an IS estimate, the verification suite, a
        # calibration, both regression applications, then the README's
        # simulate, verify and calibrate lines through cli.main, all in
        # one interpreter
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text(encoding="utf-8").split(
            "\n## Command line\n", 1)[1].split("```sh\n", 1)[1]
        argvs = [shlex.split(line)[1:] for line in
                 block.split("```", 1)[0].replace("\\\n", " ").splitlines()
                 if line.split()[1] in ("simulate", "verify", "calibrate")]
        assert len(argvs) == 3
        out = _fresh_python(
            "import contextlib, io, sys\n"
            "from martkit import cli\n"
            "from martkit.applications import (RegressionData, "
            "regression_ci,\n"
            "                                  regression_coverage)\n"
            "from martkit.martingales import (NoiseFamily, RegressionModel,\n"
            "                                 ScaledRademacher, "
            "SelfNormalized)\n"
            "from martkit.montecarlo import (SimulationConfig, "
            "calibrate_constant,\n"
            "    estimate_tail_is, estimate_tail_plain_grid, "
            "run_verification_suite)\n"
            "c = SimulationConfig(SelfNormalized(32, 1.0, 2.0), "
            "paths=2048, seed=3)\n"
            "estimate_tail_plain_grid(c, [0.5, 1.0, 2.0])\n"
            "estimate_tail_is(c, 2.5)\n"
            "run_verification_suite(c)\n"
            "calibrate_constant(SimulationConfig(ScaledRademacher."
            "equal_weights(16),\n"
            "    paths=2048, seed=3, exhaustive=False), 'brmti', "
            "[0.0, 1.0])\n"
            "regression_ci(RegressionData((1.0, 2.0, 1.5, 1.0), "
            "(2.1, 3.9, 3.1, 1.9)),\n"
            "              0.05, 0.95)\n"
            "regression_coverage(RegressionModel(0.5, 32, 1.0, 2.0, 1.0,\n"
            "    NoiseFamily.RADEMACHER_SCALED), 0.95, 512, seed=3)\n"
            "codes = []\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            "print(codes)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert out.splitlines() == ["[0, 0, 0]", "[]"]

    def test_tilted_two_point_draws_leave_scipy_special_unloaded(self):
        out = _fresh_python(
            "import sys\n"
            "from martkit.martingales import (STREAM_MC_TILTED, "
            "SelfNormalized,\n"
            "                                 simulate_tilted_path)\n"
            "from martkit.montecarlo import _Request, _simulate_chunk\n"
            "model = SelfNormalized(64, 1.0, 2.5)\n"
            "_simulate_chunk(model, 11, STREAM_MC_TILTED, 0, 1024, 2.0,\n"
            "                _Request((2.0,), psi=True))\n"
            "simulate_tilted_path(model, 2.0, 11)\n"
            "print('scipy.special' in sys.modules)")
        assert out == "False"


_PRINT_HEAVY = ("print(sorted({m.partition('.')[0] for m in sys.modules}\n"
                "             & {'numpy', 'scipy'}))")


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this package."""
    pkg_root = str(Path(martkit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in [pkg_root, os.environ.get("PYTHONPATH")] if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ,
                                          "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _log_cosh_ref(t):
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _switch_scales_ref(model):
    d2 = model.delta ** 2
    return math.sqrt((1.0 + d2) / model.n), math.sqrt((1.0 - d2) / model.n)


def _lanes_ref(words, n):
    """Lane j of a row: (w >> 16*(j % 4)) & 0xFFFF of the row's word j // 4."""
    j = np.arange(n)
    shifts = (16 * (j % 4)).astype(np.uint64)
    return ((words[:, j // 4] >> shifts) & np.uint64(0xFFFF)).astype(float)


def _decision_draws_ref(rng, rows, n, lam):
    """(v, u) deciding (rows, n) steps, drawn next from ``rng``.

    v holds the 16-bit lanes of ceil(n/4) words per row.  At lam > 0, u
    holds the uniforms u' of the (rows, n) refinement words after them,
    drawn in one random_raw: step (r, i) owns word r*n + i.  At lam = 0
    every threshold 2^16 p is an integer (2^15, or 2^13 and 7 * 2^13), so
    v alone decides: no refinement word is drawn, and u is 0.
    """
    lanes = _lanes_ref(rng.bit_generator.random_raw((rows, -(-n // 4))), n)
    if lam == 0.0:
        return lanes, np.zeros((rows, n))
    refine = rng.bit_generator.random_raw((rows, n))
    return lanes, (refine >> np.uint64(11)) * 2.0 ** -53


def _below_ref(v, u, p):
    """(v + u') 2^-16 < p, that is u' < 2^16 p - v.  2^16 p is exact, and
    so is the difference wherever it lies in (-1/2, 1]; elsewhere its
    rounding cannot change the comparison."""
    return u < p * 65536.0 - v


def _tied_ref(v, p):
    """Steps whose decision at p reads u': 0 < 2^16 p - v < 1."""
    rest = p * 65536.0 - v
    return int(np.count_nonzero((rest > 0.0) & (rest < 1.0)))


def _switch_walk_ref(model, rng, rows, lam, ties=None):
    """Strided draws, both thresholds and the per-step VarianceSwitch
    walk: yields (pos, up, finals) before each step is added to finals,
    in place, so that after the walk finals holds S_n.  Appends each
    step's count of tied decisions to ``ties`` when given."""
    s_plus, s_minus = _switch_scales_ref(model)
    v, u = _decision_draws_ref(rng, rows, model.n, lam)
    p_plus = float(expit(2.0 * lam * s_plus))
    p_minus = float(expit(2.0 * lam * s_minus))
    finals = np.zeros(rows)
    for i in range(model.n):
        pos = finals >= 0.0
        scale = np.where(pos, s_plus, s_minus)
        p = np.where(pos, p_plus, p_minus)
        up = _below_ref(v[:, i], u[:, i], p)
        if ties is not None:
            ties.append(_tied_ref(v[:, i], p))
        yield pos, up, finals
        finals += np.where(up, scale, -scale)


def _switch_step_folds(model, seed, stream, chunk, rows, lam, lams):
    """(qc, psi, b, z) of a VarianceSwitch chunk as per-step folds along
    the walk, each step's term picked by the sign of the running sum."""
    s_plus, s_minus = _switch_scales_ref(model)
    qc = np.zeros(rows)
    psi, b = ([np.zeros(rows) for _ in lams] for _ in range(2))
    z = [np.ones(rows) for _ in lams]
    for pos, up, _ in _switch_walk_ref(
            model, generator_for(seed, stream, chunk), rows, lam):
        scale = np.where(pos, s_plus, s_minus)
        step = np.where(up, scale, -scale)
        qc += scale * scale
        for j, cl in enumerate(lams):
            psi[j] += np.where(pos, _log_cosh_ref(np.array([cl * s_plus]))[0],
                               _log_cosh_ref(np.array([cl * s_minus]))[0])
            b[j] += np.where(pos, s_plus * math.tanh(cl * s_plus),
                             s_minus * math.tanh(cl * s_minus))
            z[j] *= np.exp(cl * step) / np.where(
                pos, math.cosh(cl * s_plus), math.cosh(cl * s_minus))
    return qc, psi, b, z


def _reference_chunk(model, seed, stream, chunk, rows, lam, lams,
                     ties=None):
    """A plain restatement of the sampling kernels, the bit-exact reference.

    The chunk's stream in three plain draws: magnitudes or covariates,
    then the step draws of ``_decision_draws_ref``, then at lam > 0 the
    whole refinement region.  np.where signs and outcomes, expit at every
    tilt, unblocked column loops and a per-step VarianceSwitch walk over
    strided columns, which tallies each path's step counts for the count
    form of its objects.  A two-point step's Z factor is
    1 + sign(xi) tanh(lam c), which equals e^{lam xi}/cosh(lam c).
    Returns (finals, qc, psi, b, z) with one array per tilt in the last
    three, and appends to ``ties``, when given, the counts of decisions
    that read a refinement word.
    """
    rng = generator_for(seed, stream, chunk)

    def fold(parts, op=np.add, start=0.0):
        total = np.full(parts.shape[0], start)
        for j in range(parts.shape[1]):
            op(total, parts[:, j], out=total)
        return total

    if isinstance(model, VarianceSwitch):
        s_plus, s_minus = _switch_scales_ref(model)
        # k steps at s_plus, and the up-steps at each scale
        k, up_plus, up_minus = (np.zeros(rows, dtype=np.int64)
                                for _ in range(3))
        for pos, up, finals in _switch_walk_ref(model, rng, rows, lam,
                                                ties):
            k += pos
            up_plus += pos & up
            up_minus += ~pos & up
        rest = model.n - k
        qc = k * (s_plus * s_plus) + rest * (s_minus * s_minus)
        psi, b, z = [], [], []
        for cl in lams:
            lc_p, lc_m = _log_cosh_ref(np.array([cl * s_plus, cl * s_minus]))
            psi.append(k * lc_p + rest * lc_m)
            b.append(k * (s_plus * np.tanh(cl * s_plus))
                     + rest * (s_minus * np.tanh(cl * s_minus)))
            # per scale: up-down pairs, then the surplus kind's factor
            z_scale = []
            for s, ups, downs in ((s_plus, up_plus, k - up_plus),
                                  (s_minus, up_minus, rest - up_minus)):
                f_up, f_down = (np.exp(cl * x) / math.cosh(cl * s)
                                for x in (s, -s))
                lone = np.where(ups >= downs, f_up, f_down)
                z_scale.append((f_up * f_down) ** np.minimum(ups, downs)
                               * lone ** np.abs(ups - downs))
            z.append(z_scale[0] * z_scale[1])
        return finals, qc, psi, b, z

    if isinstance(model, ScaledRademacher):
        w = np.asarray(model.weights)
        scales = w[None, :] * np.ones((rows, 1))
        qc = np.full(rows, math.fsum(float(v) * float(v) for v in w))
    else:
        low, high = ((model.magnitude_low, model.magnitude_high)
                     if isinstance(model, SelfNormalized)
                     else (model.covariate_low, model.covariate_high))
        mags = low + (high - low) * rng.random((rows, model.n))
        scales = mags / np.sqrt(fold(mags * mags))[:, None]
        qc = np.ones(rows)
    v, u = _decision_draws_ref(rng, rows, model.n, lam)
    if getattr(model, "noise", None) is NoiseFamily.TRUNCATED_SYMMETRIC:
        support = 2.0 * scales
        t = lam * support
        up_w, down_w = 0.125 * np.exp(t), 0.125 * np.exp(-t)
        total = up_w + 0.75 + down_w
        hi = up_w / total
        mid = hi + 0.75 / total
        xi = support * np.where(_below_ref(v, u, hi), 1.0,
                                np.where(_below_ref(v, u, mid), 0.0, -1.0))
        tied = _tied_ref(v, hi) + _tied_ref(v, mid)
        terms = [(np.log(0.75 + 0.25 * np.cosh(cl * support)),
                  support * (np.sinh(cl * support)
                             / (3.0 + np.cosh(cl * support))),
                  np.exp(cl * xi) / (0.75 + 0.25 * np.cosh(cl * support)))
                 for cl in lams]
    else:
        p = expit(2.0 * lam * scales)
        xi = scales * np.where(_below_ref(v, u, p), 1.0, -1.0)
        tied = _tied_ref(v, p)
        terms = [(_log_cosh_ref(cl * scales), scales * np.tanh(cl * scales),
                  1.0 + np.sign(xi) * np.tanh(cl * scales)) for cl in lams]
    if ties is not None:
        ties.append(tied)
    return (fold(xi), qc, [fold(p) for p, _, _ in terms],
            [fold(d) for _, d, _ in terms],
            [fold(r, np.multiply, 1.0) for _, _, r in terms])


REG_RAD24 = RegressionModel(theta=0.5, n=24, covariate_low=1.0,
                            covariate_high=2.0, sigma=1.0,
                            noise=NoiseFamily.RADEMACHER_SCALED)
REG3_24 = RegressionModel(theta=0.5, n=24, covariate_low=1.0,
                          covariate_high=2.0, sigma=1.0,
                          noise=NoiseFamily.TRUNCATED_SYMMETRIC)
KERNEL_FAMILIES = (VarianceSwitch(n=24, delta=0.4), SN32, REG_RAD24,
                   REG3_24, SR_UNEQ)
_FAMILY_IDS = ("vs", "sn", "reg-rad", "reg-3pt", "sr-uneq")
# band families whose uniforms start inside a Philox counter step (4
# draws): rows * n % 4 is 3, 1 and 2 at 777 rows
SEAM_FAMILIES = (
    SelfNormalized(n=31, magnitude_low=1.0, magnitude_high=2.0),
    RegressionModel(theta=0.5, n=33, covariate_low=1.0, covariate_high=2.0,
                    sigma=1.0, noise=NoiseFamily.TRUNCATED_SYMMETRIC),
    RegressionModel(theta=0.5, n=30, covariate_low=1.0, covariate_high=2.0,
                    sigma=1.0, noise=NoiseFamily.RADEMACHER_SCALED))
_SEAM_IDS = ("sn31", "reg-3pt33", "reg-rad30")
# at 777 rows and odd n, tilted chunks whose step draws (rows * ceil(n/4)
# lane words, after any rows * n magnitude words) end, and whose
# refinement words start, inside a Philox counter step
LANE_SEAM_FAMILIES = (
    VarianceSwitch(n=27, delta=0.4),
    ScaledRademacher((0.5, 0.45, 0.4, 0.35, 0.3, 0.25,
                      math.sqrt(1.0 - 0.25 - 0.2025 - 0.16 - 0.1225 - 0.09
                                - 0.0625))),
    RegressionModel(theta=0.5, n=29, covariate_low=1.0, covariate_high=2.0,
                    sigma=1.0, noise=NoiseFamily.RADEMACHER_SCALED))
_LANE_SEAM_IDS = ("vs27", "sr7-uneq", "reg-rad29")
# a constant design runs the band path with high - low = 0
REG3_CONST = RegressionModel(theta=0.5, n=24, covariate_low=1.5,
                             covariate_high=1.5, sigma=1.0,
                             noise=NoiseFamily.TRUNCATED_SYMMETRIC)
_FULL = dict(psi=True, b=True, z=True, qc=True)


def _same_bytes(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _seam_rows(model) -> int:
    """A chunk that crosses two row-block seams and ends on a partial block."""
    block = max(1, _BLOCK_ELEMENTS // model.n)
    return 2 * block + block // 2 + 1


def _one_row_tail(model) -> int:
    """A chunk whose last row block holds a single row."""
    return max(1, _BLOCK_ELEMENTS // model.n) + 1


class TestStepMajorFold:
    """numpy's axis-0 reduce must keep the step order of a plain fold."""

    @pytest.mark.parametrize("n", [1, 9, 64, 1000])
    @pytest.mark.parametrize("rows", [1, 2, 513])
    @pytest.mark.parametrize("op, pyop, start", [
        (np.add, operator.add, 0.0), (np.multiply, operator.mul, 1.0),
    ], ids=["add", "multiply"])
    def test_reduce_equals_a_step_by_step_fold(self, n, rows, op, pyop,
                                               start):
        for seed in range(3):
            rng = np.random.default_rng([n, rows, seed])
            if op is np.add:
                block = rng.standard_normal((n, rows))
            else:
                block = np.exp(0.05 * rng.standard_normal((n, rows)))
            block[rng.random((n, rows)) < 0.1] = -0.0
            want = np.empty(rows)
            for r in range(rows):
                total = start
                for value in block[:, r].tolist():
                    total = pyop(total, value)
                want[r] = total
            assert _same_bytes(_fold(block, op), want)
        if op is np.add:
            # signed zeros fold from start: 0.0 + -0.0 is +0.0
            assert _same_bytes(_fold(np.full((n, rows), -0.0), op),
                               np.zeros(rows))

    @pytest.mark.parametrize("block", [
        np.asfortranarray(np.ones((64, 512))),
        np.ones((64, 1024))[:, ::2],
        np.ones((512, 64)).T,
    ], ids=["fortran", "strided", "transposed"])
    def test_refuses_a_block_not_in_c_order(self, block):
        # numpy would reduce such a block in another order than step by
        # step, and change the bytes without a sign
        with pytest.raises(ValueError, match="C-contiguous"):
            _fold(block)


class TestSamplingKernels:
    @pytest.mark.parametrize("model",
                             KERNEL_FAMILIES + SEAM_FAMILIES
                             + LANE_SEAM_FAMILIES + (REG3_CONST,),
                             ids=_FAMILY_IDS + _SEAM_IDS + _LANE_SEAM_IDS
                             + ("reg-3pt-const",))
    @pytest.mark.parametrize("tilt_fraction, rows", [
        (0.0, 777), (0.6, 777), (0.0, _seam_rows), (0.6, _seam_rows),
        (0.6, _one_row_tail),
    ], ids=["0.0", "0.6", "0.0-seams", "0.6-seams", "0.6-one-row-tail"])
    def test_chunk_equals_plain_reference(self, model, tilt_fraction, rows):
        if callable(rows):
            rows = rows(model)
        eps = model.bernstein_params().epsilon
        lam = tilt_fraction / eps
        lams = (0.1 / eps, 0.9 / eps)
        batch = _simulate_chunk(model, 21, STREAM_MC_TILTED, 3, rows, lam,
                                _Request(lams, **_FULL))
        finals, qc, psi, b, z = _reference_chunk(
            model, 21, STREAM_MC_TILTED, 3, rows, lam, lams)
        assert _same_bytes(batch.finals, finals)
        assert _same_bytes(batch.qc_final, qc)
        for got, want in zip((batch.psi, batch.b_drift, batch.z_prod),
                             (psi, b, z)):
            assert len(got) == len(lams)
            assert all(_same_bytes(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("n", [1, 2, 7, 24, 64, 128])
    @pytest.mark.parametrize("tilt_fraction", [0.0, 0.6])
    @pytest.mark.parametrize("rows", [1, 33, 8192])
    def test_switch_counts_match_the_per_step_folds(self, n, tilt_fraction,
                                                    rows):
        # the count form of <S>_n, Psi, B and Z against the walk's own
        # per-step folds: two float routes, a few ulps apart at n = 128
        model = VarianceSwitch(n=n, delta=0.5)
        # eps is the larger step; above 1/2 for n = 1, 2, which
        # bernstein_params refuses but the kernel samples
        eps = _switch_scales_ref(model)[0]
        lam = tilt_fraction / eps
        lams = (0.0, 0.6 / eps, 0.9 / eps)
        batch = _simulate_chunk(model, 13, STREAM_MC_TILTED, 4, rows, lam,
                                _Request(lams, **_FULL))
        qc, psi, b, z = _switch_step_folds(model, 13, STREAM_MC_TILTED, 4,
                                           rows, lam, lams)
        for got, want in zip([batch.qc_final] + batch.psi + batch.b_drift
                             + batch.z_prod, [qc] + psi + b + z):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_switch_z_keeps_its_magnitude_on_long_paths(self):
        # at 0.9/eps f_down^downs underflows past 591 down-steps at s_plus,
        # while Z, near e^{-0.72 downs}, does not; some of these paths go
        # past 591, and their Z must still follow the per-step product
        model = VarianceSwitch(n=1200, delta=0.5)
        eps = _switch_scales_ref(model)[0]
        lams, rows = (0.6 / eps, 0.9 / eps), 2048
        batch = _simulate_chunk(model, 13, STREAM_MC_TILTED, 4, rows, 0.0,
                                _Request(lams, z=True))
        downs_plus = np.zeros(rows, dtype=np.int64)
        for pos, up, _ in _switch_walk_ref(
                model, generator_for(13, STREAM_MC_TILTED, 4), rows, 0.0):
            downs_plus += pos & ~up
        assert downs_plus.max() > 591
        z = _switch_step_folds(model, 13, STREAM_MC_TILTED, 4, rows, 0.0,
                               lams)[3]
        for got, want in zip(batch.z_prod, z):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    # sha256 of the finals of _simulate_chunk(VarianceSwitch(n, 0.5), 5,
    # STREAM_MC_TILTED, 2, rows, f / eps), recorded before the walk
    # tallied step counts: the counts must not move S_n.  Every entry is
    # of the lane layout (16-bit lanes, and refinement words at a tilt):
    # the tilted ones since tilted steps read lanes, the tilt-0 ones
    # since untilted steps read them too, which moved every plain path.
    _SWITCH_FINALS_SHA256 = {
        (64, 0.0, 1): "5ae80c33decf16378195f6c5580573b3"
                      "0b000d2a37f2ae6ba9b3971df300a325",
        (64, 0.0, 8192): "5ea383028bd4595716cf9b99fdc6c414"
                         "aaba6d2db6d45dba3a8fc4409306f22a",
        (64, 0.5, 1): "f610fe6e1f0b99753af82b3fadf7b6d4"
                      "4cd44ed31ad5abcf82c44793afea3350",
        (64, 0.5, 8192): "330c692d5f631729914a373f737731ad"
                         "4d87ccfe5610617c9616a8afb1308b18",
        (128, 0.0, 1): "9131a5f4bd3e5d5e483e9c8798facead"
                       "fabf625a0b002a9090b70f16e55a0f0b",
        (128, 0.0, 8192): "61de4017911d18c68555c070493e9dd4"
                          "89ff58c67c9ca328beefafe7ea8d1686",
        (128, 0.5, 1): "9706716d92eb79d51fc330b7b3076ec6"
                       "101e4b40331a524738d018b0a97eb419",
        (128, 0.5, 8192): "38973706a6d918d44ac549d1218b1c5c"
                          "379e588a12719522d958cf6692077401",
    }

    @pytest.mark.parametrize("n, tilt_fraction, rows",
                             sorted(_SWITCH_FINALS_SHA256))
    def test_switch_finals_keep_their_bytes(self, n, tilt_fraction, rows):
        model = VarianceSwitch(n=n, delta=0.5)
        eps = model.bernstein_params().epsilon
        lam = tilt_fraction / eps
        lams = (0.1 / eps, 0.5 / eps, 0.9 / eps)
        for want in (_Request(), _Request((lam,), psi=True),
                     _Request(lams, **_FULL)):
            batch = _simulate_chunk(model, 5, STREAM_MC_TILTED, 2, rows, lam,
                                    want)
            digest = hashlib.sha256(batch.finals.tobytes()).hexdigest()
            assert digest == self._SWITCH_FINALS_SHA256[n, tilt_fraction,
                                                        rows]

    def test_long_steps_with_a_one_row_tail_block(self):
        # 32 rows per block at n = 1000: 33 rows leave one row in block two
        self.test_chunk_equals_plain_reference(
            SelfNormalized(n=1000, magnitude_low=1.0, magnitude_high=2.5),
            0.6, 33)

    def test_switch_counts_wider_than_a_byte(self):
        # 300 steps overflow a one-byte step counter, so the walk counts
        # in two bytes
        self.test_chunk_equals_plain_reference(
            VarianceSwitch(n=300, delta=0.5), 0.6, 777)

    def test_seam_families_start_uniforms_inside_a_counter_step(self):
        assert sorted(777 * m.n % 4 for m in SEAM_FAMILIES) == [1, 2, 3]
        assert all(_one_row_tail(m) * m.n % 4 for m in SEAM_FAMILIES)

    def test_tilted_regions_start_inside_a_counter_step(self):
        # at 777 rows, the refinement words of every seam family start
        # inside a counter step, after rows * ceil(n/4) lane words and,
        # for the band families, the rows * n magnitude words before them
        def refinement_start(m):
            lead = 777 * m.n if m._law().band is not None else 0
            return lead + 777 * -(-m.n // 4)

        families = SEAM_FAMILIES + LANE_SEAM_FAMILIES
        assert all(refinement_start(m) % 4 for m in families)
        assert all(777 * m.n % 4 for m in families
                   if m._law().band is not None)
        assert all(m.n % 2 for m in LANE_SEAM_FAMILIES)

    @pytest.mark.parametrize("model", [
        VarianceSwitch(n=128, delta=0.5),
        SelfNormalized(n=64, magnitude_low=1.0, magnitude_high=2.5),
        RegressionModel(theta=0.0, n=32, covariate_low=1.0,
                        covariate_high=2.0, sigma=1.0,
                        noise=NoiseFamily.TRUNCATED_SYMMETRIC),
    ], ids=["vs128", "sn64", "reg3-32"])
    def test_tied_lanes_read_their_refinement_words(self, model):
        # a whole chunk at 8192 rows holds lanes that tie the threshold in
        # use, so the chunk's tie branch decides some of its steps
        lam = 0.5 / model.bernstein_params().epsilon
        lams = (lam,)
        batch = _simulate_chunk(model, 21, STREAM_MC_TILTED, 3, 8192, lam,
                                _Request(lams, **_FULL))
        ties = []
        finals, qc, psi, b, z = _reference_chunk(
            model, 21, STREAM_MC_TILTED, 3, 8192, lam, lams, ties)
        assert sum(ties) >= 3
        assert _same_bytes(batch.finals, finals)
        assert _same_bytes(batch.qc_final, qc)
        for got, want in zip((batch.psi, batch.b_drift, batch.z_prod),
                             (psi, b, z)):
            assert _same_bytes(got[0], want[0])

    @pytest.mark.parametrize("model", KERNEL_FAMILIES, ids=_FAMILY_IDS)
    def test_untilted_draws_read_only_lanes(self, model, monkeypatch):
        # at tilt zero a chunk and a path read their magnitude or
        # covariate words, if any, and ceil(n/4) lane words per path: the
        # first words of their streams, each of them, and no other;
        # no refinement reader is built
        logs = {}   # key word -> the words of every Philox on that key

        class Logged(np.random.Philox):
            def random_raw(self, size=None, output=True):
                out = super().random_raw(size, output)
                key = self.state["state"]["key"][1].item()
                logs.setdefault(key, []).extend(np.ravel(out).tolist())
                return out

        def no_reader(*args):
            raise AssertionError("a refinement reader at tilt zero")

        monkeypatch.setattr(np.random, "Philox", Logged)
        monkeypatch.setattr(martingales, "_WordReader", no_reader)
        rows = 777
        _simulate_chunk(model, 21, STREAM_MC, 3, rows, 0.0,
                        _Request((0.5,), **_FULL))
        simulate_path(model, 21, path_index=5)
        monkeypatch.undo()
        lead = model.n if model._law().band is not None else 0
        per_path = lead + -(-model.n // 4)
        keys = [(STREAM_MC, 3), (STREAM_PATH, 5)]
        assert list(logs) == [(stream << 56) | index for stream, index in keys]
        for (stream, index), log, paths in zip(keys, logs.values(), (rows, 1)):
            budget = paths * per_path
            stream_words = generator_for(21, stream, index).bit_generator
            first = stream_words.random_raw(budget).tolist()
            assert len(set(first)) == budget
            assert set(log) == set(first)

    @pytest.mark.parametrize("model", KERNEL_FAMILIES, ids=_FAMILY_IDS)
    def test_one_row_chunk_replays_the_per_path_api(self, model):
        eps = model.bernstein_params().epsilon
        three_point = (getattr(model, "noise", None)
                       is NoiseFamily.TRUNCATED_SYMMETRIC)
        for idx, fraction in itertools.product((0, 5, 1234), (0.0, 0.3, 0.8)):
            lam = fraction / eps
            batch = _simulate_chunk(model, 9, STREAM_PATH, idx, 1, lam,
                                    _Request((lam,), **_FULL))
            path = simulate_tilted_path(model, lam, 9, path_index=idx)
            stats = conjugate_stats(path, model, lam)
            assert batch.finals[0] == path.final
            if three_point:
                # the per-path API rebuilds the support from <S> increments
                assert batch.psi[0][0] == pytest.approx(stats.psi, abs=1e-14)
                assert batch.b_drift[0][0] == pytest.approx(stats.b_drift,
                                                            abs=1e-14)
            else:
                assert batch.psi[0][0] == stats.psi
                assert batch.b_drift[0][0] == stats.b_drift
            assert batch.qc_final[0] == pytest.approx(path.qc[-1], abs=1e-15)
            assert batch.z_prod[0][0] == pytest.approx(stats.z, rel=1e-10)

    @pytest.mark.parametrize("model", [
        VarianceSwitch(n=128, delta=0.5),
        SelfNormalized(n=256, magnitude_low=1.0, magnitude_high=2.5),
    ], ids=["vs128", "sn256"])
    def test_tilted_paths_with_ties_replay_the_reference(self, model):
        # the per-path samplers read a tied step's refinement word where a
        # one-row chunk has it; paths with a lane at the floor of a
        # threshold are found from their lane words, then replayed
        lam = 0.5 / model.bernstein_params().epsilon
        n = model.n
        lead = n if isinstance(model, SelfNormalized) else 0
        words = np.stack([
            generator_for(9, STREAM_PATH, idx).bit_generator.random_raw(
                lead + -(-n // 4)) for idx in range(6000)])
        lanes = _lanes_ref(words[:, lead:], n)
        if lead:
            mags = 1.0 + 1.5 * ((words[:, :n] >> np.uint64(11)) * 2.0 ** -53)
            scales = mags / np.sqrt(np.sum(mags * mags, axis=1))[:, None]
            bounds = [expit(2.0 * lam * scales)]
        else:
            bounds = [expit(2.0 * lam * s) for s in _switch_scales_ref(model)]
        near = np.zeros(len(words), dtype=bool)
        for bound in bounds:
            near |= np.any(lanes == np.floor(bound * 65536.0), axis=1)
        tied = 0
        for idx in np.flatnonzero(near).tolist():
            ties = []
            finals = _reference_chunk(model, 9, STREAM_PATH, idx, 1, lam, (),
                                      ties)[0]
            tied += sum(ties)
            path = simulate_tilted_path(model, lam, 9, path_index=idx)
            assert path.final == finals[0]
        assert tied >= 1

    @pytest.mark.parametrize("model", KERNEL_FAMILIES + (SR16,),
                             ids=_FAMILY_IDS + ("sr-equal",))
    @pytest.mark.parametrize("tilt_fraction", [0.0, 0.5])
    def test_lean_requests_match_the_full_request(self, model, tilt_fraction):
        lam = tilt_fraction / model.bernstein_params().epsilon
        lams = (lam,) if lam else (0.5 / model.bernstein_params().epsilon,)
        args = (model, 4, STREAM_MC_TILTED, 2, 500, lam)
        full = _simulate_chunk(*args, _Request(lams, **_FULL))
        plain = _simulate_chunk(*args)
        assert _same_bytes(plain.finals, full.finals)
        assert plain.qc_final is None
        assert plain.psi == plain.b_drift == plain.z_prod == []
        psi_only = _simulate_chunk(*args, _Request(lams, psi=True))
        assert _same_bytes(psi_only.finals, full.finals)
        assert _same_bytes(psi_only.psi[0], full.psi[0])
        assert psi_only.b_drift == psi_only.z_prod == []
        assert psi_only.qc_final is None
        b_only = _simulate_chunk(*args, _Request(lams, b=True))
        assert _same_bytes(b_only.b_drift[0], full.b_drift[0])
        assert b_only.psi == b_only.z_prod == []
        z_only = _simulate_chunk(*args, _Request(lams, z=True))
        assert _same_bytes(z_only.z_prod[0], full.z_prod[0])
        qc_only = _simulate_chunk(*args, _Request(qc=True))
        assert _same_bytes(qc_only.qc_final, full.qc_final)


REG_SIGN10_CONST = RegressionModel(theta=0.0, n=10, covariate_low=1.0,
                                   covariate_high=1.0, sigma=1.0,
                                   noise=NoiseFamily.RADEMACHER_SCALED)


def _levels_between_atoms(values, probs, count=3):
    """Midpoints of the ``count`` gaps wider than 1e-6 between atoms of a
    law whose tails are nearest 1/2: no sampled sum lies near them."""
    order = np.argsort(values)
    atoms, cum = values[order], np.cumsum(probs[order])
    gaps = np.flatnonzero(np.diff(atoms) > 1e-6)
    spread = cum[gaps] * (1.0 - cum[gaps])
    return [float(0.5 * (atoms[k] + atoms[k + 1]))
            for k in np.sort(gaps[np.argsort(-spread)[:count]])]


class TestTiltedLaw:
    """The sampled tilted law against exact enumeration at 2^20 paths."""

    @pytest.mark.parametrize("model, exact", [
        (VS12, VS12), (SR_UNEQ, SR_UNEQ), (REG3_N10, REG3_N10),
        # a constant design takes the binomial shortcut; a design band of
        # width 2^-30 runs the lane kernel, with the constant design's law
        # to about 1e-9
        (REG_SIGN10_CONST, REG_SIGN10_CONST),
        (RegressionModel(theta=0.0, n=10, covariate_low=1.0,
                         covariate_high=1.0 + 2.0 ** -30, sigma=1.0,
                         noise=NoiseFamily.RADEMACHER_SCALED),
         REG_SIGN10_CONST),
    ], ids=["vs12", "sr-uneq", "reg3-10-const", "reg-sign10-const",
            "reg-sign10-narrow"])
    @pytest.mark.parametrize("fraction", [0.3, 0.8])
    def test_sampled_tail_matches_the_enumerated_law(self, model, exact,
                                                     fraction):
        lam = fraction / model.bernstein_params().epsilon
        values, probs, _ = _enumeration_atoms(exact, lam)
        rows, chunks = 1 << 16, 16
        finals = np.concatenate([
            _simulate_chunk(model, 29, STREAM_MC_TILTED, c, rows, lam).finals
            for c in range(chunks)])
        for x in _levels_between_atoms(values, probs):
            p = float(probs[values > x].sum())
            p_hat = np.count_nonzero(finals > x) / finals.size
            se = math.sqrt(p * (1.0 - p) / finals.size)
            assert abs(p_hat - p) <= 4.0 * se, (x, p_hat, p)


class TestChunkMemory:
    """Draws stream through the row blocks: a chunk's peak does not grow
    with n beyond its outputs (and, for VarianceSwitch, its bool masks)."""

    @pytest.mark.parametrize("model, tilt_fraction, bound_mib", [
        (SelfNormalized(n=1000, magnitude_low=1.0, magnitude_high=2.0),
         0.0, 8),
        (VarianceSwitch(n=128, delta=0.5), 0.5, 4),
    ], ids=["sn1000", "vs128"])
    def test_traced_peak_of_a_verify_chunk(self, model, tilt_fraction,
                                           bound_mib):
        eps = model.bernstein_params().epsilon
        want = _Request(tuple(f / eps for f in (0.1, 0.5, 0.9)), **_FULL)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _simulate_chunk(model, 1, STREAM_MC, 0, 8192,
                            tilt_fraction / eps, want)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20

    @pytest.mark.parametrize("estimate", [
        estimate_be_distance,
        lambda config, grid: conjugate_clt_check(config, 2.0, grid),
    ], ids=["cdf-counts", "conjugate-clt"])
    def test_chunk_counts_are_not_held_until_the_last_chunk(self, estimate):
        # 10^4 counts per chunk: over 256 chunks, held at once, they take
        # 20 MiB (40 for the two CLT statistics), far above what one
        # 4096-row chunk of SN(16) holds while it draws
        model = SelfNormalized(n=16, magnitude_low=1.0, magnitude_high=2.0)
        grid = np.linspace(-4.0, 4.0, 10 ** 4)
        peaks = []
        for chunk_size in (4096, 64):
            config = cfg(model, paths=1 << 14, chunk_size=chunk_size)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                estimate(config, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestTailIS:
    def test_enumeration_mode_is_tilt_invariant(self):
        for tilt in (0.0, 0.4, 1.0, 1.9):
            est = estimate_tail_is(cfg(SR4), 0.9, tilt=tilt)
            assert est.method is EstimateMethod.EXACT_ENUMERATION
            assert abs(est.p_hat - 5 / 16) < 1e-12

    def test_default_tilt_is_the_exponent_optimizer(self):
        c = cfg(SN_EQ16, paths=5000, seed=2, exhaustive=False)
        params = SN_EQ16.bernstein_params()
        by_default = estimate_tail_is(c, 1.2)
        explicit = estimate_tail_is(c, 1.2, tilt=lambda_bar(1.2, params))
        assert by_default.p_hat == explicit.p_hat
        assert by_default.ci_lo == explicit.ci_lo

    def test_tilt_validation(self):
        eps = SR4.bernstein_params().epsilon
        with pytest.raises(DomainError):
            estimate_tail_is(cfg(SR4), 0.9, tilt=-0.1)
        with pytest.raises(DomainError):
            estimate_tail_is(cfg(SR4), 0.9, tilt=1.0 / eps)
        with pytest.raises(DomainError):
            estimate_tail_is(cfg(SR4), 0.9, tilt=math.nan)
        with pytest.raises(DomainError):
            estimate_tail_is(cfg(SR4), -0.5)

    def test_sampled_interval_covers_exact_value(self):
        c = cfg(SR4, paths=50000, seed=23, exhaustive=False)
        est = estimate_tail_is(c, 0.9)
        assert est.method is EstimateMethod.IMPORTANCE_SAMPLED_DELTA
        assert est.ci_lo <= 5 / 16 <= est.ci_hi
        assert 0.0 < est.effective_samples <= 50000.0

    def test_plain_and_weighted_estimates_agree(self):
        # both sampled on a continuous model; 3 pooled standard errors
        model = SelfNormalized(n=64, magnitude_low=1.0, magnitude_high=2.5)
        c = cfg(model, paths=120000, seed=31)
        plain = estimate_tail_plain(c, 1.0)
        weighted = estimate_tail_is(c, 1.0)
        z99 = 2.5758293035489004
        se_pl = (plain.ci_hi - plain.ci_lo) / (2.0 * z99)
        se_is = (weighted.ci_hi - weighted.ci_lo) / (2.0 * z99)
        pooled = math.hypot(se_pl, se_is)
        assert abs(plain.p_hat - weighted.p_hat) <= 3.0 * pooled

    def test_interval_quantile_is_within_a_few_ulp_of_ndtri(self):
        # the normal interval's z is the stdlib's inverse CDF (AS241): at
        # most 4 ulp from scipy's ndtri at the levels in use, and 6 ulp
        # over a 20009-point grid of levels
        for levels, ulps in (([0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.999999],
                              4),
                             (np.linspace(0.0, 1.0, 20011)[1:-1].tolist(),
                              6)):
            for level in levels:
                p = 0.5 * (1.0 + level)
                z, ref = NormalDist().inv_cdf(p), float(ndtri(p))
                assert abs(z - ref) <= ulps * math.ulp(ref), level

    def test_weight_collapse_when_no_hits(self):
        est = estimate_tail_is(cfg(SR4, paths=100, seed=1, exhaustive=False),
                               2.5)
        assert est.p_hat == 0.0 and est.effective_samples == 0.0


class TestBEDistance:
    def test_four_step_oracle(self):
        dist = estimate_be_distance(cfg(SR4), [0.0])
        assert dist.d_hat == 11 / 16 - 0.5
        assert dist.uniform_error_band == 0.0
        assert dist.paths == 16

    def test_grid_validation(self):
        for bad in ([], [1.0, 0.5], [0.0, math.nan]):
            with pytest.raises(DomainError):
                estimate_be_distance(cfg(SR4), bad)

    def test_band_shrinks_with_paths(self):
        assert _dkw_band(40000, 0.99) < _dkw_band(10000, 0.99)
        assert _dkw_band(10000, 0.95) < _dkw_band(10000, 0.99)

    def test_sampled_distance_near_exact_lattice_distance(self):
        grid = np.linspace(-2.5, 2.5, 21)
        exact = estimate_be_distance(cfg(VS12), grid)
        sampled = estimate_be_distance(
            cfg(VS12, paths=60000, seed=11, exhaustive=False), grid)
        assert abs(sampled.d_hat - exact.d_hat) <= sampled.uniform_error_band

    def test_long_walk_approaches_normal(self):
        # exact binomial CDF as the reference for a length-1024 walk
        n = 1024
        w = 1.0 / math.sqrt(n)
        model = ScaledRademacher.equal_weights(n)
        grid = np.linspace(-3.0, 3.0, 41)
        ks = np.floor((grid / w + n) / 2.0)
        exact_cdf = binom.cdf(ks, n, 0.5)
        d_exact = float(np.max(np.abs(
            exact_cdf - np.array([std_normal_cdf(g) for g in grid]))))
        est = estimate_be_distance(cfg(model, paths=200000, seed=13), grid)
        assert abs(est.d_hat - d_exact) <= est.uniform_error_band
        assert d_exact < 0.02


class TestCalibration:
    def test_minimal_constant_arithmetic(self):
        emp = np.array([0.0, 0.2, 0.4])
        units = np.array([1.0, 0.1, 0.0])
        out = _minimal_constant(emp, units)
        assert out[0] == 0.0 and out[1] == 2.0 and out[2] == math.inf
        assert np.all(_minimal_constant(emp * 0.5, units)[:2]
                      == out[:2] * 0.5)
        assert np.all(_minimal_constant(np.zeros(3), units) == 0.0)

    def test_unknown_envelope_rejected(self):
        with pytest.raises(ConfigError):
            calibrate_constant(cfg(SR16), "thm99", [0.0, 1.0])

    @pytest.mark.parametrize("envelope", ["thm21", "cor21", "brmti", "thm33"])
    def test_cdf_side_envelopes_dominate_at_c_hat(self, envelope):
        model = SN_EQ16 if envelope == "thm33" else SR16
        grid = [-1.0, 0.0, 0.8, 1.6, 2.4]
        result = calibrate_constant(cfg(model), envelope, grid)
        assert result.envelope == envelope
        assert result.paths == 2 ** 16
        assert math.isfinite(result.c_hat) and result.c_hat >= 0.0
        for emp, unit in zip(result.empirical, result.units):
            assert result.c_hat * unit >= emp - 1e-15

    def test_tail_side_envelope_dominates_at_c_hat(self):
        grid = [0.5, 1.0, 1.5, 2.0]
        result = calibrate_constant(cfg(SR16), "thm22", grid)
        values, probs, _ = _enumeration_atoms(SR16, 0.0)
        for x, unit in zip(result.xs, result.units):
            exact = float(probs[values > x].sum())
            # the deformed-level bound at c_hat must cover the exact tail
            assert result.c_hat * unit >= (exact - _sf_at_xhat(x)) - 1e-15

    def test_tail_side_rejects_negative_levels(self):
        with pytest.raises(DomainError):
            calibrate_constant(cfg(SR16), "thm22", [-0.5, 1.0])

    def test_characteristic_deviation_needed_for_stopped_envelope(self):
        with pytest.raises(UnsupportedModelError):
            calibrate_constant(cfg(VS12), "cor21", [0.0, 1.0])
        result = calibrate_constant(cfg(SR16), "cor21", [0.0, 1.0])
        assert result.c_hat >= 0.0

    def test_sampled_calibration_is_conservative(self):
        # sampling uses interval ends, so c_hat should not undercut the
        # exact-law calibration
        grid = [0.0, 1.0, 2.0]
        exact = calibrate_constant(cfg(SR16), "thm21", grid)
        sampled = calibrate_constant(
            cfg(SR16, paths=50000, seed=17, exhaustive=False), "thm21", grid)
        assert sampled.c_hat >= exact.c_hat

    def test_token_list_is_stable(self):
        assert CALIBRATION_ENVELOPES == ("thm21", "thm22", "cor21", "brmti",
                                         "thm33")


def _sf_at_xhat(x: float) -> float:
    from martkit.gaussian import std_normal_sf
    from martkit.bounds import xhat
    return std_normal_sf(xhat(x, SR16.bernstein_params()))


class TestConjugateCLT:
    def test_degenerate_at_zero_level(self):
        grid = np.linspace(-3.0, 3.0, 13)
        rep = conjugate_clt_check(cfg(SR16, exhaustive=False), 0.0, grid)
        assert rep.degenerate and rep.lam == 0.0 and rep.paths == 0
        expected = max(abs(1.0 - std_normal_cdf(g)) for g in grid)
        assert rep.sup_u_distance == expected
        assert math.isnan(rep.sup_y_distance)

    def test_centered_remainder_is_close_to_normal(self):
        model = ScaledRademacher.equal_weights(1000)
        rep = conjugate_clt_check(
            cfg(model, paths=200000, seed=4, exhaustive=False), 2.0,
            np.linspace(-3.0, 3.0, 25))
        assert not rep.degenerate
        assert rep.sup_y_distance < 0.03
        assert 0.0 <= rep.sup_u_distance <= 1.0
        assert rep.lam == lambda_bar(2.0, model.bernstein_params())

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            conjugate_clt_check(cfg(SR16), -1.0, [0.0, 1.0])
        with pytest.raises(DomainError):
            conjugate_clt_check(cfg(SR16), 1.0, [])


class TestVerificationSuite:
    ALL = (SR_UNEQ, ScaledRademacher.equal_weights(64),
           VarianceSwitch(n=64, delta=0.5),
           SelfNormalized(n=64, magnitude_low=1.0, magnitude_high=2.5),
           RegressionModel(theta=1.0, n=32, covariate_low=1.0,
                           covariate_high=2.0, sigma=1.0,
                           noise=NoiseFamily.RADEMACHER_SCALED),
           RegressionModel(theta=1.0, n=32, covariate_low=1.0,
                           covariate_high=2.0, sigma=1.0,
                           noise=NoiseFamily.TRUNCATED_SYMMETRIC))

    @pytest.mark.parametrize("model", ALL, ids=lambda m: type(m).__name__
                             + getattr(m, "noise", NoiseFamily.RADEMACHER_SCALED).value[:4])
    def test_hard_checks_pass_on_every_family(self, model):
        rep = run_verification_suite(
            cfg(model, paths=20000, seed=13, exhaustive=False))
        assert rep.passed, rep.violations
        assert rep.a1_passed
        assert "z-product-route" in rep.checks_run
        assert "tail-domination" in rep.checks_run
        assert len(rep.z_stats) == 3

    def test_long_switch_paths_keep_the_z_product_route(self):
        # 1200 steps: the paths that stay at s_plus take about 600
        # down-steps there, where Z is near e^{-420}
        rep = run_verification_suite(
            cfg(VarianceSwitch(n=1200, delta=0.5), paths=4096, seed=11,
                chunk_size=2048, exhaustive=False))
        assert "z-product-route" in rep.checks_run
        assert not [v for v in rep.violations
                    if v.check == "z-product-route"], rep.violations

    def test_z_mean_check_passes_on_short_paths(self):
        for n in (4, 16):
            rep = run_verification_suite(
                cfg(ScaledRademacher.equal_weights(n), paths=100000, seed=29,
                    exhaustive=False))
            assert rep.passed, (n, rep.violations)
            assert "z-martingale-mean" in rep.checks_run

    def test_z_mean_check_documented_failure_mode(self):
        # long paths at fraction 0.9: the mean of Z concentrates far below
        # 1 because the compensating right tail is never sampled, and the
        # bound on Var Z says the sample cannot resolve it
        rep = run_verification_suite(
            cfg(ScaledRademacher.equal_weights(64), paths=20000, seed=13,
                exhaustive=False),
            lam_fractions=(0.9,), domination_levels=())
        (_, mean, se), = rep.z_stats
        assert abs(mean - 1.0) > 4.0 * se
        assert "z-martingale-mean" in rep.checks_run
        assert not [v for v in rep.violations
                    if v.check == "z-martingale-mean"], rep.violations

    @pytest.mark.parametrize("model, exact", [
        (SR4, True), (SR16, True), (SR_UNEQ, True), (REG3_N10, True),
        (VS12, False), (VarianceSwitch(n=20, delta=0.5), False)])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_z_variance_bound_against_enumerated_variance(self, model, exact,
                                                          fraction):
        lam = fraction / model.bernstein_params().epsilon
        _, probs, log_z = _enumeration_atoms(model, lam)
        var = math.fsum((probs * np.exp(log_z)).tolist()) - 1.0
        bound = _z_variance_bound(lam, model._law())
        if exact:   # constant or fixed scales: the bound is Var Z itself
            assert bound == pytest.approx(var, rel=1e-12)
        else:       # VarianceSwitch: n steps at s_plus bound every path
            assert var <= bound * (1.0 + 1e-12)
            assert bound <= 1.16 * var

    def test_z_mean_check_on_long_paths_at_high_tilt(self):
        # n * gap is about 1450 here: the bound is inf, not an overflow,
        # and no sample can resolve the mean
        model = ScaledRademacher.equal_weights(2000)
        lam = 0.9 / model.bernstein_params().epsilon
        assert _z_variance_bound(lam, model._law()) == math.inf
        rep = run_verification_suite(
            cfg(model, paths=20000, seed=11, exhaustive=False),
            lam_fractions=(0.9,), domination_levels=())
        assert "z-martingale-mean" in rep.checks_run
        assert rep.passed, rep.violations

    def test_z_mean_check_passes_on_400_equal_weights(self):
        # the sample standard error used to reject f = 0.5 (mean Z near
        # 5e-08 against 4e-08) and f = 0.9
        rep = run_verification_suite(
            cfg(ScaledRademacher.equal_weights(400), paths=20000, seed=11,
                exhaustive=False),
            lam_fractions=(0.5, 0.9), domination_levels=())
        assert rep.passed, rep.violations

    def test_z_mean_check_keeps_its_power(self, monkeypatch):
        # Psi raised by 0.05 puts E Z near e^-0.05; at f = 0.1 on SR(16)
        # both standard errors are near 0.003
        real = montecarlo._simulate_chunk

        def offset(*args):
            batch = real(*args)
            for psi in batch.psi:
                psi += 0.05
            return batch

        monkeypatch.setattr(montecarlo, "_simulate_chunk", offset)
        rep = run_verification_suite(
            cfg(SR16, paths=20000, seed=3, exhaustive=False),
            lam_fractions=(0.1,), domination_levels=())
        (lam, mean, se), = rep.z_stats
        bound_se = math.sqrt(_z_variance_bound(lam, SR16._law()) / 20000)
        assert 4.0 * max(se, bound_se) < 0.02 < abs(mean - 1.0)
        hits = [v for v in rep.violations if v.check == "z-martingale-mean"]
        assert len(hits) == 1
        assert f"sample {se!r}, bound {bound_se!r}" in hits[0].detail

    def test_domination_levels_optional(self):
        rep = run_verification_suite(cfg(SR16, paths=5000, exhaustive=False),
                                     domination_levels=())
        assert "tail-domination" not in rep.checks_run

    def test_one_draw_per_chunk(self, monkeypatch):
        drawn = []
        real = montecarlo.generator_for

        def counting(seed, stream, index):
            drawn.append((stream, index))
            return real(seed, stream, index)

        monkeypatch.setattr(montecarlo, "generator_for", counting)
        # SN and three-point regression read both their (rows, n) matrices
        # through the chunk's one key, as VarianceSwitch reads its one
        for model in (VS12, SN32, REG3_24):
            drawn.clear()
            rep = run_verification_suite(
                cfg(model, paths=2500, chunk_size=1000, exhaustive=False),
                lam_fractions=(0.1, 0.5, 0.9),
                domination_levels=(0.5, 1.0, 2.0))
            assert "tail-domination" in rep.checks_run
            assert sorted(drawn) == [(STREAM_MC, c) for c in range(3)]

    def test_band_breach_is_reported_once_per_chunk_against_its_end(
            self, monkeypatch):
        # a zero band puts every VarianceSwitch path outside it, on either
        # side of 1; <S>_n does not depend on the tilt, so each chunk gives
        # one record at its first breaching row, whatever the tilt count
        monkeypatch.setattr(montecarlo, "verify_A2", lambda model: (0.0, True))
        c = cfg(VS12, paths=2000, chunk_size=100, exhaustive=False)
        rep = run_verification_suite(c, lam_fractions=(0.1, 0.5, 0.9),
                                     domination_levels=())
        got = [(v.chunk_index, v.row, v.detail) for v in rep.violations
               if v.check == "characteristic-band"]
        lo, hi = 1.0 - 1e-12, 1.0 + 1e-12
        want = []
        for chunk in range(20):
            qc = _simulate_chunk(VS12, c.seed, STREAM_MC, chunk, 100, 0.0,
                                 _Request(qc=True)).qc_final
            row = int(np.flatnonzero((qc < lo) | (qc > hi))[0])
            end = (f"falls below the band's lower end {lo!r}" if qc[row] < lo
                   else f"exceeds the band's upper end {hi!r}")
            want.append((chunk, row, f"<S>_n = {float(qc[row])!r} {end}"))
        assert got == want
        for end in ("lower end", "upper end"):
            assert any(end in detail for _, _, detail in got)

    def test_max_order_is_not_a_parameter(self):
        # the suite reads only the A1 verdict, the same at every order
        with pytest.raises(TypeError):
            run_verification_suite(cfg(SR16), max_order=12)

    @pytest.mark.parametrize("model", [VS12, SR16, SN32, REG3_N10])
    def test_z_stats_match_one_tilt_calls(self, model):
        c = cfg(model, paths=3000, chunk_size=1000, seed=5, exhaustive=False)
        fractions = (0.1, 0.5, 0.9)
        joint = run_verification_suite(c, lam_fractions=fractions,
                                       domination_levels=())
        single = tuple(run_verification_suite(
            c, lam_fractions=(f,), domination_levels=()).z_stats[0]
            for f in fractions)
        assert joint.z_stats == single

    @pytest.mark.parametrize("model, exhaustive", [(SN32, False),
                                                   (VS12, None)])
    def test_domination_details_match_plain_grid(self, monkeypatch, model,
                                                 exhaustive):
        monkeypatch.setattr(montecarlo, "tail_bound_sq",
                            lambda x, params: SimpleNamespace(value=0.0))
        c = cfg(model, paths=3000, chunk_size=1000, exhaustive=exhaustive)
        levels = (2.0, 0.5, 4.0, 1.0, 1.0)
        rep = run_verification_suite(c, domination_levels=levels)
        got = [v.detail for v in rep.violations
               if v.check == "tail-domination"]
        want = [f"upper interval end {e.ci_hi!r} exceeds exp(-xhat^2/2) = "
                f"{0.0!r} at x = {e.x:g}"
                for e in estimate_tail_plain_grid(c, levels)
                if e.ci_hi > 0.0]
        assert got == want and len(want) >= 4

    def test_z_stats_are_reported_either_way(self):
        rep = run_verification_suite(
            cfg(SR16, paths=5000, seed=3, exhaustive=False),
            lam_fractions=(0.5,), domination_levels=())
        (lam, mean, se), = rep.z_stats
        assert lam == 0.5 / SR16.bernstein_params().epsilon
        assert mean > 0.0 and se > 0.0

    # n = 31: (1/eps)*eps rounds below 1, so lam = 1/eps passes the tilt
    # check and only the fraction check refuses f = 1
    @pytest.mark.parametrize("n, fraction", [
        (64, 1.0), (64, 1.5), (64, -0.2), (64, math.nan), (31, 1.0)])
    def test_tilt_fraction_outside_unit_interval_is_refused_before_drawing(
            self, n, fraction, monkeypatch):
        # the change of measure and the lemma ceilings hold only for tilts
        # in [0, 1/eps): f = 1 used to divide by zero, 1.5 and -0.2 to
        # report a false log-mgf-bound violation, nan to pass
        calls = []

        def recording(*key):
            calls.append(key)
            return generator_for(*key)

        monkeypatch.setattr(montecarlo, "generator_for", recording)
        model = SelfNormalized(n=n, magnitude_low=1.0, magnitude_high=2.5)
        with pytest.raises(DomainError, match="tilt"):
            run_verification_suite(cfg(model, paths=300),
                                   lam_fractions=(0.5, fraction))
        assert calls == []

    def test_tilt_count_is_capped_before_drawing(self, monkeypatch):
        model = SelfNormalized(n=32, magnitude_low=1.0, magnitude_high=2.5)
        most = montecarlo.VERIFY_TILT_MAX
        report = run_verification_suite(cfg(model, paths=300),
                                        lam_fractions=(0.5,) * most,
                                        domination_levels=())
        assert len(report.lam_values) == len(report.z_stats) == most
        calls = []
        monkeypatch.setattr(montecarlo, "generator_for",
                            lambda *key: calls.append(key))
        with pytest.raises(ConfigError, match="tilt fractions"):
            run_verification_suite(cfg(model, paths=300),
                                   lam_fractions=(0.5,) * (most + 1))
        assert calls == []


class TestWorkerDeterminism:
    def _configs(self, model, paths=40000, seed=11, **kw):
        return [cfg(model, paths=paths, seed=seed, workers=w,
                    chunk_size=4096, exhaustive=False, **kw)
                for w in (1, 2, 8)]

    def test_plain_tail_is_worker_invariant(self):
        results = [estimate_tail_plain(c, 0.8)
                   for c in self._configs(SR_UNEQ)]
        assert results[0] == results[1] == results[2]

    def test_weighted_tail_is_worker_invariant(self):
        model = SelfNormalized(n=32, magnitude_low=1.0, magnitude_high=2.0)
        results = [estimate_tail_is(c, 1.4) for c in self._configs(model)]
        assert results[0] == results[1] == results[2]

    def test_distance_and_calibration_are_worker_invariant(self):
        grid = [-1.0, 0.0, 1.0, 2.0]
        dists = [estimate_be_distance(c, grid)
                 for c in self._configs(VarianceSwitch(n=24, delta=0.4))]
        assert dists[0] == dists[1] == dists[2]
        cals = [calibrate_constant(c, "brmti", grid)
                for c in self._configs(SR_UNEQ)]
        assert cals[0] == cals[1] == cals[2]

    def test_suite_is_worker_invariant(self):
        reps = [run_verification_suite(c, lam_fractions=(0.5,))
                for c in self._configs(VarianceSwitch(n=24, delta=0.4),
                                       paths=20000)]
        assert reps[0] == reps[1] == reps[2]


class TestRepeatedTrialCoverage:
    def test_enumeration_inside_sampled_interval_almost_always(self):
        # 100 seeds per model; the 99% interval may miss the exact value
        # rarely, never more than once per hundred at these seeds
        instances = [(SR16, 0.75), (VS12, 0.4), (SN_EQ16, 0.5),
                     (REG3_N10, 0.6)]
        for model, x in instances:
            exact = estimate_tail_plain(cfg(model), x).p_hat
            misses = 0
            for trial in range(100):
                est = estimate_tail_plain(
                    cfg(model, paths=4000, seed=2000 + trial,
                        exhaustive=False), x)
                if not (est.ci_lo <= exact <= est.ci_hi):
                    misses += 1
            assert misses <= 1, (type(model).__name__, misses)
