"""Acceptance sweep: one test per numbered criterion, pinned tolerances.

Each test prints a single CRITERION line on success; under ``pytest -v``
the PASSED/FAILED column is the pass/fail record.  Tolerances and grid
definitions here are contractual and must not be loosened; runtime
ceilings are asserted where a criterion carries one.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtri

from martkit.applications import (RegressionData, least_squares,
                                  regression_ci, regression_coverage,
                                  regression_epsilons,
                                  regression_reduction_check,
                                  self_norm_envelope)
from martkit.bounds import (BernsteinParams, BoundConstant,
                            de_la_pena_bennett, de_la_pena_bernstein,
                            lambda_bar, tail_bound_sq, xhat)
from martkit.gaussian import mills_sandwich
from martkit.martingales import (NoiseFamily, RegressionModel,
                                 ScaledRademacher, SelfNormalized,
                                 VarianceSwitch, bolthausen_augment,
                                 simulate_path)
from martkit.montecarlo import (SimulationConfig, calibrate_constant,
                                estimate_tail_is, estimate_tail_plain,
                                estimate_tail_plain_grid,
                                run_verification_suite)

EPS_GRID = (1e-4, 1e-3, 0.01, 0.1, 0.5)
DELTA_GRID = (0.0, 0.25, 0.5, 1.0)

UNEQ_W = (0.5, 0.45, 0.4, 0.35, 0.3,
          math.sqrt(1.0 - 0.25 - 0.2025 - 0.16 - 0.1225 - 0.09))

IDENTITY_MODELS = (
    ScaledRademacher(UNEQ_W),
    ScaledRademacher.equal_weights(64),
    VarianceSwitch(n=64, delta=0.5),
    SelfNormalized(n=64, magnitude_low=1.0, magnitude_high=2.5),
    RegressionModel(theta=1.0, n=32, covariate_low=1.0, covariate_high=2.0,
                    sigma=1.0, noise=NoiseFamily.RADEMACHER_SCALED),
    RegressionModel(theta=1.0, n=32, covariate_low=1.0, covariate_high=2.0,
                    sigma=1.0, noise=NoiseFamily.TRUNCATED_SYMMETRIC),
)

ENUMERABLE = (
    (ScaledRademacher.equal_weights(16), 0.75),
    (VarianceSwitch(n=12, delta=0.5), 0.4),
    (SelfNormalized(n=16, magnitude_low=2.0, magnitude_high=2.0), 0.5),
    (RegressionModel(theta=0.0, n=10, covariate_low=1.0, covariate_high=1.0,
                     sigma=1.0, noise=NoiseFamily.TRUNCATED_SYMMETRIC), 0.6),
)


def ok(num: int, detail: str):
    print(f"CRITERION {num}: PASS ({detail})")


def test_criterion_01_tilt_formula_self_consistency():
    # the closed form must solve its defining equation and reproduce the
    # deformation identity on the full parameter grid
    start = time.monotonic()
    worst_res = worst_id = 0.0
    for i in range(1001):
        x = i / 10.0
        for eps in EPS_GRID:
            for d in DELTA_GRID:
                p = BernsteinParams(eps, d)
                lam = lambda_bar(x, p)
                lhs = (lam - 0.5 * lam * lam * eps) / (1.0 - lam * eps) ** 2
                rhs = x / p.v
                if rhs > 0.0:
                    worst_res = max(worst_res, abs(lhs - rhs) / rhs)
                else:
                    assert lhs == 0.0
                xh = xhat(x, p)
                ident = lam * math.sqrt(p.v) / (1.0 - lam * eps)
                if xh > 0.0:
                    worst_id = max(worst_id, abs(xh - ident) / xh)
                else:
                    assert ident == 0.0
    elapsed = time.monotonic() - start
    assert worst_res <= 1e-10
    assert worst_id <= 1e-12
    assert elapsed < 1.0
    ok(1, f"residual {worst_res:.2e}, identity {worst_id:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_02_mills_sandwich_log_domain():
    from mpmath import erfc, mp, mpf
    from mpmath import log as mlog

    start = time.monotonic()
    mp.dps = 50
    for i in range(4001):
        lo, hi = mills_sandwich(i / 100.0)
        mx = mpf(i) / 100
        target = float(mlog(erfc(mx / mp.sqrt(2)) / 2) + mx * mx / 2)
        assert math.log(lo) <= target <= math.log(hi), i
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok(2, f"4001 points vs 50-digit oracle, {elapsed:.2f}s")


def test_criterion_03_tail_bound_ordering_and_equality():
    worst = 0.0
    for i in range(1001):
        x = i / 10.0
        for eps in EPS_GRID:
            for v in (0.5, 1.0, 2.0):
                a = de_la_pena_bennett(x, v, eps).value
                b = de_la_pena_bernstein(x, v, eps).value
                assert a <= b <= 1.0, (x, eps, v)
            for d in DELTA_GRID:
                p = BernsteinParams(eps, d)
                a = de_la_pena_bennett(x, math.sqrt(p.v), eps)
                t = tail_bound_sq(x, p)
                assert math.isclose(a.value, t.value, rel_tol=1e-12,
                                    abs_tol=1e-300), (x, eps, d)
                if t.value > 0.0:
                    worst = max(worst, abs(a.value - t.value) / t.value)
    ok(3, f"ordering on 15015 grid points, equality worst {worst:.2e}")


def test_criterion_04_constant_free_tail_domination():
    start = time.monotonic()
    models = (ScaledRademacher.equal_weights(100),
              ScaledRademacher.equal_weights(1000),
              VarianceSwitch(n=128, delta=0.2),
              VarianceSwitch(n=128, delta=0.5),
              SelfNormalized(n=100, magnitude_low=1.0, magnitude_high=1.0),
              SelfNormalized(n=1000, magnitude_low=1.0, magnitude_high=1.0))
    for model in models:
        params = model.bernstein_params()
        config = SimulationConfig(model, paths=10**6, seed=17,
                                  exhaustive=False)
        for est in estimate_tail_plain_grid(config, (0.5, 1.0, 1.5, 2.0)):
            bound = tail_bound_sq(est.x, params).value
            assert est.ci_hi <= bound, (type(model).__name__, est.x,
                                        est.ci_hi, bound)
        for x in (2.5, 3.0, 3.5, 4.0):
            est = estimate_tail_is(config, x)
            bound = tail_bound_sq(x, params).value
            assert est.ci_hi <= bound, (type(model).__name__, x,
                                        est.ci_hi, bound)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    ok(4, f"6 models x 8 levels at 1e6 paths, {elapsed:.0f}s")


def test_criterion_05_enumeration_matches_sampling_and_is():
    for model, x in ENUMERABLE:
        exact = estimate_tail_plain(
            SimulationConfig(model, paths=1000, seed=7), x).p_hat
        misses = 0
        for trial in range(100):
            est = estimate_tail_plain(
                SimulationConfig(model, paths=4000, seed=2000 + trial,
                                 exhaustive=False), x)
            if not (est.ci_lo <= exact <= est.ci_hi):
                misses += 1
        assert misses <= 1, (type(model).__name__, misses)

    # algebraic unbiasedness of the unweighted tilt: the 5/16 example
    # exactly, and plain-vs-tilted enumeration agreement at larger n
    config4 = SimulationConfig(ScaledRademacher.equal_weights(4),
                               paths=1000, seed=7)
    assert estimate_tail_is(config4, 0.9).p_hat == 5.0 / 16.0
    config16 = SimulationConfig(ScaledRademacher.equal_weights(16),
                                paths=1000, seed=7)
    for x in (0.5, 1.0, 2.0):
        plain = estimate_tail_plain(config16, x).p_hat
        tilted = estimate_tail_is(config16, x).p_hat
        assert abs(plain - tilted) <= 1e-13, (x, plain, tilted)
    ok(5, "4 models x 100 trials, at most 1 CI miss; tilt unbiased")


def test_criterion_06_per_path_hard_identities():
    for model in IDENTITY_MODELS:
        report = run_verification_suite(
            SimulationConfig(model, paths=10**5, seed=13, exhaustive=False),
            lam_fractions=(0.1, 0.5, 0.9), domination_levels=())
        assert report.passed, (type(model).__name__, report.violations)
    ok(6, "6 families x 3 tilts x 1e5 paths, zero violations")


def test_criterion_07_tilt_weight_mean_one():
    for n in (4, 16):
        report = run_verification_suite(
            SimulationConfig(ScaledRademacher.equal_weights(n),
                             paths=10**5, seed=29, exhaustive=False),
            lam_fractions=(0.1, 0.5, 0.9), domination_levels=())
        assert report.passed, (n, report.violations)
        assert len(report.z_stats) == 3
        for lam, mean, se in report.z_stats:
            assert abs(mean - 1.0) <= 4.0 * se, (n, lam, mean, se)
    ok(7, "E[Z] within 4 SE of 1 at all three tilt fractions")


def test_criterion_08_variance_padding_closes_to_one():
    model = VarianceSwitch(n=64, delta=0.5)
    worst = 0.0
    for idx in range(10000):
        path = simulate_path(model, 31, path_index=idx)
        aug = bolthausen_augment(path, 0.1, 31, path_index=idx)
        worst = max(worst, abs(float(aug.qc[-1]) - 1.0))
    assert worst <= 1e-12, worst
    ok(8, f"1e4 augmented paths, worst |<S'>-1| = {worst:.2e}")


def test_criterion_09_calibrated_constant_rate_stability():
    start = time.monotonic()
    grid = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    for family, envelope in (
            (lambda n: ScaledRademacher.equal_weights(n), "brmti"),
            (lambda n: SelfNormalized(n, magnitude_low=1.0,
                                      magnitude_high=1.0), "thm33")):
        hats = []
        for n in (250, 1000, 4000):
            config = SimulationConfig(family(n), paths=200000, seed=6,
                                      exhaustive=False)
            hats.append(calibrate_constant(config, envelope, grid).c_hat)
        ratio = max(hats) / min(hats)
        assert ratio <= 3.0, (envelope, hats)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    ok(9, f"c-hat spread {ratio:.2f}x across n in (250, 1000, 4000), "
          f"{elapsed:.0f}s")


def test_criterion_10_regression_application():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(20, 200))
        phi = rng.uniform(0.5, 2.0, n)
        theta = float(rng.normal(0.0, 3.0))
        noise = rng.choice((-1.0, 1.0), n)
        data = RegressionData(tuple(phi), tuple(theta * phi + noise))
        theta_hat = least_squares(data)
        resid = regression_reduction_check(data, theta_hat)
        worst = max(worst, resid / max(1.0, abs(theta_hat)))
    assert worst <= 1e-12, worst

    data = RegressionData((1.0, -2.0, 3.0), (0.5, -1.0, 2.0))
    for level in (0.9, 0.95, 0.99):
        ci = regression_ci(data, 0.01, level, BoundConstant(0.0))
        z = float(ndtri(0.5 * (1.0 + level)))
        assert abs(ci.x_star - z) <= 1e-9, (level, ci.x_star, z)

    model = RegressionModel(theta=1.0, n=1000, covariate_low=1.0,
                            covariate_high=1.0, sigma=1.0,
                            noise=NoiseFamily.RADEMACHER_SCALED)
    eps = regression_epsilons(model).eps
    assert eps <= 0.01, eps
    cov = regression_coverage(model, 0.95, 10000, 42, c=BoundConstant(1.0))
    floor = 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / 10000)
    assert cov.valid
    assert cov.rate >= floor, (cov.rate, floor)
    ok(10, f"reduction {worst:.2e}; quantile to 1e-9; "
           f"coverage {cov.rate:.4f} >= {floor:.4f}")


def test_criterion_11_worker_count_invariance():
    model = VarianceSwitch(n=48, delta=0.4)
    results = []
    for workers in (1, 2, 8):
        config = SimulationConfig(model, paths=20000, seed=5,
                                  chunk_size=2048, workers=workers,
                                  exhaustive=False)
        plain = estimate_tail_plain_grid(config, (0.5, 1.0, 1.5))
        tilted = estimate_tail_is(config, 2.0)
        suite = run_verification_suite(config, lam_fractions=(0.5,),
                                       domination_levels=(1.0,))
        cal = calibrate_constant(config, "thm21", (0.0, 1.0, 2.0))
        results.append((tuple(plain), tilted, suite, cal))
    assert results[0] == results[1] == results[2]
    ok(11, "plain, tilted, suite, calibration identical for 1/2/8 workers")
