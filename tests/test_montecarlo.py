"""Monte Carlo engine tests: enumeration oracles, estimator contracts,
worker determinism, and the hard-assertion suite."""

import itertools
import math
import operator
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import beta, binom

import martkit
from martkit import montecarlo
from martkit.bounds import lambda_bar
from martkit.errors import ConfigError, DomainError, UnsupportedModelError
from martkit.gaussian import std_normal_cdf
from martkit.martingales import (STREAM_MC, STREAM_MC_TILTED, STREAM_PATH,
                                 NoiseFamily, RegressionModel,
                                 ScaledRademacher, SelfNormalized,
                                 VarianceSwitch, conjugate_stats,
                                 generator_for, simulate_tilted_path)
from martkit.montecarlo import (CALIBRATION_ENVELOPES, EstimateMethod,
                                SimulationConfig, _BLOCK_ELEMENTS,
                                _chunk_layout, _clopper_pearson, _dkw_band,
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

    def test_equals_beta_quantiles(self):
        for n in (1, 2, 7, 100, 1000, 1 << 20):
            for hits in sorted({h for h in (0, 1, 2, n // 3, n // 2, n - 1, n)
                                if h <= n}):
                for level in (0.5, 0.95, 0.99, 0.999999):
                    alpha = 1.0 - level
                    lo, hi = _clopper_pearson(hits, n, level)
                    assert lo == (0.0 if hits == 0 else float(
                        beta.ppf(alpha / 2.0, hits, n - hits + 1)))
                    assert hi == (1.0 if hits == n else float(
                        beta.ppf(1.0 - alpha / 2.0, hits + 1, n - hits)))


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


def _reference_chunk(model, seed, stream, chunk, rows, lam, lams):
    """A plain restatement of the sampling kernels, the bit-exact reference.

    np.where signs and outcomes, expit at every tilt, unblocked column
    loops and a per-step VarianceSwitch walk over strided columns.
    Returns (finals, qc, psi, b, z) with one array per tilt in the last
    three.
    """
    rng = generator_for(seed, stream, chunk)

    def fold(parts, op=np.add, start=0.0):
        total = np.full(parts.shape[0], start)
        for j in range(parts.shape[1]):
            op(total, parts[:, j], out=total)
        return total

    def log_cosh(t):
        a = np.abs(t)
        return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)

    if isinstance(model, VarianceSwitch):
        d2 = model.delta ** 2
        s_plus = math.sqrt((1.0 + d2) / model.n)
        s_minus = math.sqrt((1.0 - d2) / model.n)
        u = rng.random((rows, model.n))
        p_plus = float(expit(2.0 * lam * s_plus))
        p_minus = float(expit(2.0 * lam * s_minus))
        finals, qc = np.zeros(rows), np.zeros(rows)
        psi = [np.zeros(rows) for _ in lams]
        b = [np.zeros(rows) for _ in lams]
        z = [np.ones(rows) for _ in lams]
        for i in range(model.n):
            pos = finals >= 0.0
            scale = np.where(pos, s_plus, s_minus)
            step = np.where(u[:, i] < np.where(pos, p_plus, p_minus),
                            scale, -scale)
            qc += scale * scale
            for k, cl in enumerate(lams):
                psi[k] += np.where(pos, log_cosh(np.array([cl * s_plus]))[0],
                                   log_cosh(np.array([cl * s_minus]))[0])
                b[k] += np.where(pos, s_plus * math.tanh(cl * s_plus),
                                 s_minus * math.tanh(cl * s_minus))
                z[k] *= np.exp(cl * step) / np.where(
                    pos, math.cosh(cl * s_plus), math.cosh(cl * s_minus))
            finals += step
        return finals, qc, psi, b, z

    if isinstance(model, ScaledRademacher):
        w = np.asarray(model.weights)
        u = rng.random((rows, w.size))
        scales = w[None, :] * np.ones((rows, 1))
        qc = np.full(rows, math.fsum(float(v) * float(v) for v in w))
    else:
        low, high = ((model.magnitude_low, model.magnitude_high)
                     if isinstance(model, SelfNormalized)
                     else (model.covariate_low, model.covariate_high))
        mags = low + (high - low) * rng.random((rows, model.n))
        u = rng.random((rows, model.n))
        scales = mags / np.sqrt(fold(mags * mags))[:, None]
        qc = np.ones(rows)
    if getattr(model, "noise", None) is NoiseFamily.TRUNCATED_SYMMETRIC:
        support = 2.0 * scales
        t = lam * support
        up_w, down_w = 0.125 * np.exp(t), 0.125 * np.exp(-t)
        total = up_w + 0.75 + down_w
        hi = up_w / total
        mid = hi + 0.75 / total
        xi = support * np.where(u < hi, 1.0, np.where(u < mid, 0.0, -1.0))
        terms = [(np.log(0.75 + 0.25 * np.cosh(cl * support)),
                  support * (np.sinh(cl * support)
                             / (3.0 + np.cosh(cl * support))),
                  np.exp(cl * xi) / (0.75 + 0.25 * np.cosh(cl * support)))
                 for cl in lams]
    else:
        xi = scales * np.where(u < expit(2.0 * lam * scales), 1.0, -1.0)
        terms = [(log_cosh(cl * scales), scales * np.tanh(cl * scales),
                  np.exp(cl * xi) / np.cosh(cl * scales)) for cl in lams]
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


class TestSamplingKernels:
    @pytest.mark.parametrize("model", KERNEL_FAMILIES, ids=_FAMILY_IDS)
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

    def test_long_steps_with_a_one_row_tail_block(self):
        # 32 rows per block at n = 1000: 33 rows leave one row in block two
        self.test_chunk_equals_plain_reference(
            SelfNormalized(n=1000, magnitude_low=1.0, magnitude_high=2.5),
            0.6, 33)

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
            cfg(model, paths=20000, seed=13, exhaustive=False),
            check_z_mean=False)
        assert rep.passed, rep.violations
        assert rep.a1_passed
        assert "z-product-route" in rep.checks_run
        assert "tail-domination" in rep.checks_run
        assert len(rep.z_stats) == 3

    def test_z_mean_check_passes_on_short_paths(self):
        for n in (4, 16):
            rep = run_verification_suite(
                cfg(ScaledRademacher.equal_weights(n), paths=100000, seed=29,
                    exhaustive=False))
            assert rep.passed, (n, rep.violations)
            assert "z-martingale-mean" in rep.checks_run

    def test_z_mean_check_documented_failure_mode(self):
        # long paths at fraction 0.9: the mean of Z concentrates far below
        # 1 because the compensating right tail is never sampled
        rep = run_verification_suite(
            cfg(ScaledRademacher.equal_weights(64), paths=20000, seed=13,
                exhaustive=False),
            lam_fractions=(0.9,), domination_levels=())
        assert any(v.check == "z-martingale-mean" for v in rep.violations)
        gated = run_verification_suite(
            cfg(ScaledRademacher.equal_weights(64), paths=20000, seed=13,
                exhaustive=False),
            lam_fractions=(0.9,), domination_levels=(), check_z_mean=False)
        assert gated.passed

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
        rep = run_verification_suite(
            cfg(VS12, paths=2500, chunk_size=1000, exhaustive=False),
            lam_fractions=(0.1, 0.5, 0.9), domination_levels=(0.5, 1.0, 2.0))
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
                                     domination_levels=(),
                                     check_z_mean=False)
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
            lam_fractions=(0.5,), domination_levels=(), check_z_mean=False)
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
        reps = [run_verification_suite(c, lam_fractions=(0.5,),
                                       check_z_mean=False)
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
