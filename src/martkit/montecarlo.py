"""Chunked Monte Carlo estimation with exact enumeration fallbacks.

Estimators share one execution contract: paths are split into fixed-size
chunks, chunk c draws from a Philox generator keyed by the configured seed
and c, and per-chunk summaries are reduced in chunk order.  Results
therefore depend on (seed, chunk_size) alone, never on the worker count.
Small discrete models bypass sampling entirely: their terminal laws are
enumerated exactly, which supplies the oracle side of the test suite.

Draw order inside a chunk, per family: models with one constant step scale
draw a single up-step count per path (binomial; the terminal sum and the
tilting weight are deterministic functions of it); models with per-step
scales draw their magnitude/covariate matrix first, then one uniform per
step, and accumulate terminal sums in step order.

A chunk computes only the per-path objects its caller reads: the plain
estimators read terminal sums alone, ``estimate_tail_is`` reads Psi_n at
its tilt, ``conjugate_clt_check`` reads B_n at its tilt, and only
``run_verification_suite`` reads Psi_n, B_n, the product-route Z and
<S>_n, at every one of its tilts.  At tilt zero the sign thresholds are
the constant 1/2 (1/8 and 7/8 for three-point outcomes) and are compared
as scalars.  The VarianceSwitch walk compares its uniforms with both
thresholds once per chunk, into step-major (n, rows) masks, and each step
then only reads the sign of the running sum and looks its increment up
in a table.  Every per-step-scale family draws in row blocks of 2^15
entries (256 KiB per array): a block reads its own rows of each (rows, n)
matrix from the chunk's stream, so a chunk holds O(block) floats besides
its per-path outputs (and, for VarianceSwitch, its two bool masks), not
a (rows, n) draw.  The other families transpose each block once to
step-major (n, rows) order, so that its temporaries stay in the L2 cache
and each sum over the steps is one reduce (``_fold``).

The kernels read the stream as raw Philox words (``random_raw``), never
as doubles.  A word w stands for the uniform u = (w >> 11) * 2^-53 that
``Generator.random`` would return, and every comparison with u is made
on the 53-bit integer m = w >> 11, or on w, against a threshold scaled
by 2^53: u < p exactly when m < p*2^53.  The tilted two-point threshold
2^53*expit(2*lam*c) comes from numpy's exp, which moves it by at most 2
units of m against libm's exp; words within a margin of 16 units are
decided on libm's exp by ``martingales._expit``.  None of this
changes a result: every object equals, bit for bit, its plain evaluation
over one whole-chunk ``Generator.random`` draw with np.where signs,
per-step threshold selects and column folds, which the tests keep as the
reference; VarianceSwitch forms its objects besides S_n from per-path
step counts (see ``_variance_switch_chunk``).

Two per-run decisions each live in one helper.  ``_use_enumeration``
decides whether a run reads the exact law (it returns the leaf count) or
samples (None), and is the only estimator-side reader of
``enumeration_support``.  ``_counts_at`` counts a chunk's values at or
below each threshold for every sampled count (CDF, plain tail,
domination levels and both conjugate-CLT statistics), ``np.sum`` adds
them over the chunks, and a tail count is paths minus the count.
"""

from __future__ import annotations

import copy
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .bounds import (CALIBRATION_ENVELOPES, BoundConstant, corollary_envelope,
                     eps_log_eps, lambda_bar, nonuniform_be_envelope,
                     tail_bound_sq, xhat)
from .errors import ConfigError, DomainError, UnsupportedModelError
from .gaussian import std_normal_cdf, std_normal_sf
from .martingales import (STREAM_MC, STREAM_MC_TILTED, MartingaleModel,
                          generator_for, model_id, verify_A1, verify_A2)
from .martingales import (_band_values, _check_tilt, _expit,
                          _lemma_ceilings, _lent, _log_cosh, _require_model,
                          _steps, _StepLaw, _switch_terms, _switch_total,
                          _switch_z, _word_threshold, _z_variance_bound)

__all__ = [
    "SimulationConfig", "TailEstimate", "BEDistanceEstimate",
    "EstimateMethod", "CalibrationResult", "ConjugateCLTReport",
    "VerificationReport", "ViolationRecord", "estimate_tail_plain",
    "estimate_tail_plain_grid", "estimate_tail_is", "estimate_be_distance",
    "calibrate_constant", "conjugate_clt_check", "run_verification_suite",
    "enumeration_support", "CALIBRATION_ENVELOPES",
]

_LEAF_CAP = 1 << 20
_BLOCK_ELEMENTS = 1 << 15   # float64 entries per row block: 256 KiB
# the (n, k) arrays a row block's stages are written into: the scales, a
# three-point support, the steps, exp(-2 lam c) and three temporaries
_WORK = ("scales", "c", "xi", "e", "a", "b", "d")
# refusal caps on a config, far above the largest run in use (8192 x 128
# entries per matrix, 123 chunks); draws stream through row blocks, but at
# 2^26 entries a VarianceSwitch chunk's two bool masks hold 128 MiB
CHUNK_DRAW_MAX_ENTRIES = 1 << 26
CHUNK_COUNT_MAX = 1 << 20
_UNIT_C = BoundConstant(1.0)


class EstimateMethod(str, Enum):
    PLAIN_CLOPPER_PEARSON = "plain_clopper_pearson"
    IMPORTANCE_SAMPLED_DELTA = "importance_sampled_delta"
    EXACT_ENUMERATION = "exact_enumeration"


@dataclass(frozen=True)
class SimulationConfig:
    """Immutable description of one Monte Carlo run.

    ``exhaustive`` is tri-state: None lets enumerable models (discrete
    steps, at most 2^20 leaves) switch to exact enumeration automatically,
    True forces enumeration (an error for continuous models), False
    forces sampling even where enumeration is available.

    Configs whose first chunk would draw more than
    ``CHUNK_DRAW_MAX_ENTRIES`` entries per matrix (rows times steps for
    the per-step-scale families, rows for the binomial shortcut), or that
    split into more than ``CHUNK_COUNT_MAX`` chunks, are refused before
    anything is allocated; so is a model outside the built-in families.
    The matrices are drawn block by block (see ``_simulate_chunk``), so
    the cap bounds a chunk's stream and its VarianceSwitch masks, not one
    allocation of float draws.
    """

    model: MartingaleModel
    paths: int
    seed: int
    chunk_size: int = 8192
    confidence_level: float = 0.99
    workers: int = 1
    exhaustive: Optional[bool] = None

    def __post_init__(self):
        # any integer type (numpy's too) but bool; stored as a plain int
        for name in ("paths", "seed", "chunk_size", "workers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value,
                                                                     bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.paths < 1:
            raise ConfigError(f"paths must be a positive count, got {self.paths!r}")
        if self.chunk_size < 1:
            raise ConfigError(
                f"chunk_size must be a positive count, got {self.chunk_size!r}")
        if not (isinstance(self.confidence_level, float)
                and 0.0 < self.confidence_level < 1.0):
            raise ConfigError(
                f"confidence_level must lie in (0, 1), got {self.confidence_level!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be a positive count, got {self.workers!r}")
        if not 0 <= self.seed <= (1 << 64) - 1:
            raise ConfigError(
                f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        _require_model(self.model)
        law = self.model._law()
        rows = min(self.chunk_size, self.paths)
        entries = rows if law.constant_scale is not None else rows * law.n
        if entries > CHUNK_DRAW_MAX_ENTRIES:
            raise ConfigError(
                f"a chunk of {rows} paths draws {entries} entries at once, "
                f"above the cap of {CHUNK_DRAW_MAX_ENTRIES}; lower chunk_size")
        chunks = -(-self.paths // self.chunk_size)
        if chunks > CHUNK_COUNT_MAX:
            raise ConfigError(
                f"{self.paths} paths in chunks of {self.chunk_size} make "
                f"{chunks} chunks, above the cap of {CHUNK_COUNT_MAX}")


@dataclass(frozen=True)
class TailEstimate:
    x: float
    p_hat: float
    ci_lo: float
    ci_hi: float
    method: EstimateMethod
    effective_samples: float
    seed: int

    def __post_init__(self):
        if not (self.ci_lo <= self.p_hat <= self.ci_hi) or self.p_hat < 0.0:
            raise DomainError(
                f"inconsistent estimate: [{self.ci_lo}, {self.p_hat}, {self.ci_hi}]")


@dataclass(frozen=True)
class BEDistanceEstimate:
    d_hat: float
    grid: tuple
    uniform_error_band: float
    paths: int


@dataclass(frozen=True)
class CalibrationResult:
    """Per-point and combined smallest dominating constants."""

    envelope: str
    c_hat: float
    xs: tuple
    empirical: tuple
    units: tuple
    per_point_c: tuple
    paths: int
    seed: int


@dataclass(frozen=True)
class ConjugateCLTReport:
    """Sup-distance of the tilted-law statistics from the standard normal.

    ``sup_u_distance`` compares U = lam*(S_n - x) against the normal law
    scaled by xhat on the u grid; ``sup_y_distance`` compares the centered
    remainder Y = S_n - B on the same grid.  ``degenerate`` flags x = 0,
    where the tilt vanishes and U collapses to the zero statistic.
    """

    x: float
    lam: float
    xhat: float
    sup_u_distance: float
    sup_y_distance: float
    degenerate: bool
    paths: int
    u_grid: tuple
    seed: int


@dataclass(frozen=True)
class ViolationRecord:
    check: str
    detail: str
    chunk_index: Optional[int] = None
    row: Optional[int] = None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the hard-assertion sweep over simulated paths."""

    model: str
    paths: int
    lam_values: tuple
    z_stats: tuple          # (lam, mean of Z, standard error) triples
    checks_run: tuple
    violations: tuple
    a1_passed: bool
    a2_bound: float

    @property
    def passed(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# exact enumeration

def enumeration_support(model: MartingaleModel) -> Optional[int]:
    """Leaf count when the terminal law is exactly enumerable, else None."""
    try:
        _require_model(model)
    except UnsupportedModelError:
        return None
    law = model._law()
    if law.band is not None and law.band[0] != law.band[1]:
        return None
    leaves = (3 if law.three_point else 2) ** law.n
    return leaves if leaves <= _LEAF_CAP else None


def _log_cosh_scalar(t: float) -> float:
    return float(_log_cosh(np.array([t]))[0])


def _enumeration_atoms(model: MartingaleModel, lam: float):
    """Exact terminal law under the tilt: (values, probabilities, log Z).

    Terminal values reached along different sign patterns are merged by
    exact float equality; identical arithmetic along merged branches
    guarantees the collision.  The returned probabilities sum to one up
    to rounding, exactly for the dyadic untilted laws.
    """
    law = model._law()
    scale = law.constant_scale
    if scale is not None:
        return _enumerate_binomial(law.n, scale, lam)
    if law.weights is not None:
        return _enumerate_general_weights(np.asarray(law.weights), lam)
    if law.switch is not None:
        return _enumerate_variance_switch(law, lam)
    if law.three_point and law.band[0] == law.band[1]:
        return _enumerate_three_point(law.n, 2.0 / math.sqrt(law.n), lam)
    raise UnsupportedModelError(
        f"terminal law of {model_id(model)} is not exactly enumerable")


def _enumerate_binomial(n: int, scale: float, lam: float):
    k = np.arange(n + 1)
    counts = np.array([math.comb(n, int(v)) for v in k], dtype=float)
    p_up = _expit(2.0 * lam * scale)
    probs = counts * p_up ** k * (1.0 - p_up) ** (n - k)
    values = scale * (2.0 * k - n)
    psi = n * _log_cosh_scalar(lam * scale)
    return values, probs, lam * values - psi


def _enumerate_three_point(n: int, support: float, lam: float):
    t = lam * support
    m = 0.75 + 0.25 * math.cosh(t)
    p_up = 0.125 * math.exp(t) / m
    p_down = 0.125 * math.exp(-t) / m
    p_zero = 0.75 / m
    # atom j is the terminal value support * (j - n), j = up - down + n
    values = support * np.arange(-n, n + 1)
    probs = np.zeros(values.size)
    for up in range(n + 1):
        for down in range(n + 1 - up):
            probs[up - down + n] += (math.comb(n, up) * math.comb(n - up, down)
                                     * p_up ** up * p_down ** down
                                     * p_zero ** (n - up - down))
    return values, probs, lam * values - n * math.log(m)


def _enumerate_general_weights(weights: np.ndarray, lam: float):
    values = np.zeros(1)
    probs = np.ones(1)
    for w in weights:
        p_up = _expit(2.0 * lam * w)
        grown = np.concatenate((values + w, values - w))
        grown_p = np.concatenate((probs * p_up, probs * (1.0 - p_up)))
        values, inverse = np.unique(grown, return_inverse=True)
        probs = np.zeros(values.size)
        np.add.at(probs, inverse, grown_p)
    psi = float(np.sum(_log_cosh(lam * weights)))
    return values, probs, lam * values - psi


def _enumerate_variance_switch(law: _StepLaw, lam: float):
    # the step scale depends on the sign of the running sum, so Z is not
    # a function of the terminal value alone: carry (S, psi) as the state
    s_plus, s_minus = law.switch
    values = np.zeros(1)
    psis = np.zeros(1)
    probs = np.ones(1)
    for _ in range(law.n):
        pos = values >= 0.0
        scale = np.where(pos, s_plus, s_minus)
        p_up = np.where(pos, _expit(2.0 * lam * s_plus),
                        _expit(2.0 * lam * s_minus))
        step_psi = _log_cosh(lam * scale)
        grown_v = np.concatenate((values + scale, values - scale))
        grown_psi = np.concatenate((psis + step_psi, psis + step_psi))
        grown_p = np.concatenate((probs * p_up, probs * (1.0 - p_up)))
        key, inverse = np.unique(np.column_stack((grown_v, grown_psi)),
                                 axis=0, return_inverse=True)
        probs = np.zeros(key.shape[0])
        np.add.at(probs, inverse, grown_p)
        values, psis = key[:, 0], key[:, 1]
    return values, probs, lam * values - psis


def _use_enumeration(config: SimulationConfig) -> Optional[int]:
    """The run's leaf count when it reads the exact law, None to sample."""
    if config.exhaustive is False:
        return None
    leaves = enumeration_support(config.model)
    if leaves is None and config.exhaustive is True:
        raise UnsupportedModelError(
            f"{model_id(config.model)} cannot be enumerated exactly "
            "(continuous components or too many leaves)")
    return leaves


# ---------------------------------------------------------------------------
# chunked sampling kernels

@dataclass(frozen=True)
class _Request:
    """The per-path objects a caller reads from a chunk, besides S_n.

    ``psi``, ``b`` and ``z`` ask for Psi_n, B_n and the product-route Z
    at each tilt in ``lams``; ``qc`` asks for <S>_n.  Nothing else is
    computed, so the default request yields terminal sums alone.
    """

    lams: tuple = ()
    psi: bool = False
    b: bool = False
    z: bool = False
    qc: bool = False


@dataclass
class _Batch:
    finals: np.ndarray
    qc_final: Optional[np.ndarray]
    psi: list       # one array per requested tilt
    b_drift: list
    z_prod: list    # product of step factors (VarianceSwitch: count powers)


def _new_batch(rows: int, want: _Request) -> _Batch:
    """A chunk's outputs, allocated once: sums start at 0 and Z at 1."""
    def per_lam(wanted: bool, start: float) -> list:
        return [np.full(rows, start) for _ in want.lams] if wanted else []

    return _Batch(np.zeros(rows), np.zeros(rows) if want.qc else None,
                  per_lam(want.psi, 0.0), per_lam(want.b, 0.0),
                  per_lam(want.z, 1.0))


def _fold(steps: np.ndarray, op=np.add) -> np.ndarray:
    """Fold each column of a C-contiguous (n, rows) block in step order.

    numpy reduces axis 0 of a C-contiguous array as a sequential loop
    over the steps, from op's identity (so 0.0 + -0.0 gives +0.0).  One
    row would be a 1-d reduce, which numpy adds pairwise, so it takes the
    last entry of the step-by-step accumulate instead.
    """
    if not steps.flags.c_contiguous:
        # an F-ordered block would be reduced pairwise, not in step order
        raise ValueError("_fold needs a C-contiguous (n, rows) block, got "
                         f"strides {steps.strides} for shape {steps.shape}")
    start = float(op.identity)
    if steps.shape[1] == 1:
        return op.accumulate(np.append(start, steps))[-1:]
    return op.reduce(steps, axis=0, initial=start)


def _simulate_chunk(model: MartingaleModel, seed: int, stream: int,
                    chunk: int, rows: int, lam: float,
                    want: _Request = _Request()) -> _Batch:
    """One chunk of terminal sums, drawn under the tilt ``lam``.

    ``want`` names the other per-path objects the caller reads, and only
    those are computed: ``estimate_tail_is`` asks for Psi at its tilt,
    ``conjugate_clt_check`` for B at its tilt, the plain estimators and
    ``applications.regression_coverage`` for nothing, and the
    hard-assertion suite for Psi, B, Z and <S>_n at every
    one of its tilts on one draw of plain paths.  Its tilts need not equal
    the sampling tilt.  Z is the product of the per-step factors
    e^{lam xi_i}/m_i (for VarianceSwitch, each step kind's factor to its
    count), a float route independent of exp(lam S - Psi); the suite
    compares the two.

    Every object keeps one arithmetic whatever else is requested: each sum
    runs in step order, and signs come from the documented thresholds, so
    a lean request returns the same bytes as the suite's full one.  The
    VarianceSwitch kernel reads its uniforms through step-major masks
    built once per chunk (see ``_variance_switch_chunk``), with the same
    results as a per-step threshold select.

    The per-step-scale families (SelfNormalized, RegressionModel, and
    ScaledRademacher with unequal weights) run over row blocks of
    ``_BLOCK_ELEMENTS`` entries, so that a block's dozen or so temporaries
    stay in the core's L2 cache, and each block draws its own rows.  The
    chunk's stream holds the (rows, n) magnitudes or covariates at draw
    offset 0 and the (rows, n) uniforms at offset rows*n; the kernel reads
    the second through a copy of the chunk's generator, placed by
    advancing the Philox counter (4 words per step) and drawing the
    remainder.  A chunk therefore holds O(block) floats besides its
    outputs, whatever n is.  Each block's draws are raw words
    w, read as u = (w >> 11) * 2^-53 and compared as 53-bit integers, with
    ``martingales._expit`` deciding the words within a margin of a tilted
    two-point threshold (see ``martingales._steps``); the first stage on
    each writes a C-contiguous
    step-major (n, rows) array, and every later stage is elementwise or
    one ``_fold`` per object, in step order.  The stages write into the
    ``_WORK`` arrays, rows of one allocation per chunk lent to every
    block, so a block allocates only its two word arrays.  Fixed
    weights enter as an (n, 1) column, and Psi_n and B_n fold once on that
    column per block rather than once per row.  Each block folds into its
    own row slice of the outputs (``_new_batch``), the same bytes as one
    pass over one whole-chunk draw.

    The family enters only through its ``_StepLaw``, built once per chunk.
    Steps come from ``martingales._steps``, which the per-path sampler
    ``_generate`` also reads; those two are the package's only samplers.
    The VarianceSwitch walk keeps its own kernel here and a scalar one
    there, both reading ``law.switch``.
    """
    rng = generator_for(seed, stream, chunk)
    law = model._law()
    batch = _new_batch(rows, want)
    scale = law.constant_scale
    if scale is not None:
        n = law.n
        p_up = _expit(2.0 * lam * scale)
        k = rng.binomial(n, p_up, size=rows).astype(float)
        finals = np.multiply(scale, 2.0 * k - n, out=batch.finals)
        if want.qc:
            batch.qc_final.fill(math.fsum([scale * scale] * n))
        for j, cl in enumerate(want.lams):
            if want.psi:
                batch.psi[j].fill(n * _log_cosh_scalar(cl * scale))
            if want.b:
                batch.b_drift[j].fill(n * scale * math.tanh(cl * scale))
            if want.z:
                z = np.exp(cl * finals, out=batch.z_prod[j])
                z *= math.cosh(cl * scale) ** -float(n)
        return batch

    if law.switch is not None:
        return _variance_switch_chunk(law, rng, lam, want, batch)

    # the stream holds the (rows, n) magnitude (or covariate) words first,
    # then the (rows, n) uniform words; each block reads its rows of both,
    # the uniforms through a copy of the generator placed rows*n words ahead
    n = law.n
    bits = uniforms = rng.bit_generator
    if law.band is not None:
        uniforms = copy.deepcopy(bits)
        # one Philox counter step yields 4 words; draw the remainder by hand
        uniforms.advance(rows * n // 4)
        uniforms.random_raw(rows * n % 4)
    block = max(1, _BLOCK_ELEMENTS // n)
    # every (n, k) stage of every block writes into rows of this one
    # allocation, which the allocator keeps from chunk to chunk
    slab = np.empty((len(_WORK), n * min(block, rows)))
    for r0 in range(0, rows, block):
        rows_in = slice(r0, r0 + block)
        k = min(block, rows - r0)
        work = {name: row[:n * k].reshape(n, k)
                for name, row in zip(_WORK, slab)}
        if law.band is None:
            scales = np.asarray(law.weights)[:, None]
        else:
            scales = _band_values(law.band, bits.random_raw((k, n)).T,
                                  work["scales"])
            scales /= np.sqrt(_fold(np.multiply(scales, scales,
                                                out=work["a"])))
        c, xi, e = _steps(law, scales, uniforms.random_raw((k, n)).T, lam,
                          work)
        _accumulate(law, c, xi, want, batch, rows_in, lam, e, work)
    if want.qc:
        batch.qc_final.fill(1.0 if law.band is not None else
                            math.fsum(v * v for v in law.weights))
    return batch


def _accumulate(law: _StepLaw, c: np.ndarray, xi: np.ndarray,
                want: _Request, batch: _Batch, rows_in: slice, lam: float,
                e: Optional[np.ndarray], work: dict) -> None:
    """Fold the (n, rows) steps xi of size c into batch rows ``rows_in``.

    c is (n, rows), or an (n, 1) column for fixed weights.  e is
    exp(-2*lam*c) from the sampling thresholds at tilt lam, or None; the
    first two-point log-MGF at that same tilt reads it (and overwrites
    it) instead of a new exp.  The terms are formed in the arrays ``a``,
    ``b`` and ``d`` of ``work`` (see ``martingales._lent``).
    """
    log_mgf, drift, mgf = law.mgf_terms
    batch.finals[rows_in] = _fold(xi)
    for j, cl in enumerate(want.lams):
        t = np.multiply(c, cl, out=_lent(work, "a", c.shape))
        if want.psi:
            if e is not None and cl == lam:
                terms, e = _log_cosh(t, e), None
            else:
                terms = log_mgf(t, out=_lent(work, "b", c.shape))
            batch.psi[j][rows_in] = _fold(terms)
        if want.b:
            terms = drift(t, out=_lent(work, "b", c.shape))
            terms *= c
            batch.b_drift[j][rows_in] = _fold(terms)
        if want.z:
            den = mgf(t, out=_lent(work, "d", c.shape))
            terms = np.multiply(xi, cl, out=_lent(work, "b", xi.shape))
            np.exp(terms, out=terms)
            terms /= den
            batch.z_prod[j][rows_in] = _fold(terms, np.multiply)


def _variance_switch_chunk(law: _StepLaw, rng, lam: float, want: _Request,
                           batch: _Batch) -> _Batch:
    """Step-major walk: the state enters only through pos = (S >= 0).

    A step goes up when u < p_plus (pos) or u < p_minus (not pos), that
    is when its raw word is below ``_word_threshold(p)``.  Both
    comparisons are made once per chunk, as contiguous (n, rows) masks
    ``minus`` = u < p_minus and ``flip`` = minus ^ (u < p_plus), filled
    row block by row block from (block, n) words, so the chunk holds the
    two masks (one byte per step and path) and one block of words; the up
    mask of step i is then minus[i] ^ (pos & flip[i]).  At lam = 0 the
    thresholds agree and ``flip`` is empty.  Each step looks its increment
    up by the code 2*pos + up in the table (-s_minus, +s_minus, -s_plus,
    +s_plus) and adds it to S in step order, as the per-path walk does.
    Alongside, each path counts its steps at s_plus and, for Z, its
    up-steps in all and at s_plus, in the smallest unsigned type that
    holds n; ``martingales._switch_total`` and ``_switch_z`` form the
    other objects from those counts, as ``conjugate_stats`` does.
    """
    s_plus, s_minus = law.switch
    rows = batch.finals.size
    w_plus = _word_threshold(_expit(2.0 * lam * s_plus))
    w_minus = _word_threshold(_expit(2.0 * lam * s_minus))
    # both masks in one allocation: glibc's malloc then keeps that much
    # heap for the next chunk, where two 1 MiB masks (n = 128) were handed
    # back to the system and faulted in again, 512 page faults a chunk
    masks = np.empty((1 if w_plus == w_minus else 2, law.n, rows), dtype=bool)
    minus = masks[0]
    flip = masks[1] if len(masks) == 2 else None
    block = max(1, _BLOCK_ELEMENTS // law.n)
    for r0 in range(0, rows, block):
        cols = slice(r0, r0 + block)
        # compared in draw order, then only the mask bytes are transposed
        words = rng.bit_generator.random_raw((min(block, rows - r0), law.n))
        below = np.less(words, w_minus)
        minus[:, cols] = below.T
        if flip is not None:
            flip[:, cols] = (np.less(words, w_plus) ^ below).T

    steps = np.array([-s_minus, s_minus, -s_plus, s_plus])
    # k, the steps at s_plus, for every object; the up-steps in all and
    # at s_plus for Z alone
    count = np.min_scalar_type(law.n)
    tally, with_z = want.qc or bool(want.lams), want.z and bool(want.lams)
    plus, ups, up_plus = (np.zeros(rows, count) if on else None
                          for on in (tally, with_z, with_z))
    finals = batch.finals
    pos = np.empty(rows, dtype=bool)
    up = np.empty(rows, dtype=bool)
    # the code is formed in bytes (bool views) and widened once for take
    pos8, minus8 = pos.view(np.uint8), minus.view(np.uint8)
    twice = np.empty(rows, dtype=np.uint8)
    code = np.empty(rows, dtype=np.intp)
    term = np.empty(rows)
    for i in range(law.n):
        np.greater_equal(finals, 0.0, out=pos)  # sign(0) counts as positive
        if flip is None:
            up8 = minus8[i]
        else:
            np.bitwise_and(pos, flip[i], out=up)
            np.bitwise_xor(up, minus[i], out=up)
            up8 = up.view(np.uint8)
        np.add(pos8, pos8, out=twice)
        np.add(twice, up8, out=code)
        if tally:
            plus += pos8
        if with_z:
            ups += up8
            # ``twice`` is free once the code is formed
            up_plus += np.bitwise_and(pos8, up8, out=twice)
        # codes are always in range; the default mode would buffer ``out``
        steps.take(code, out=term, mode="clip")
        finals += term

    if want.qc:
        _switch_total(law, plus, (s_plus * s_plus, s_minus * s_minus),
                      batch.qc_final)
    for j, cl in enumerate(want.lams):
        log_cosh, drift = _switch_terms(law, cl)
        if want.psi:
            _switch_total(law, plus, log_cosh, batch.psi[j])
        if want.b:
            _switch_total(law, plus, drift, batch.b_drift[j])
    if with_z:
        _switch_z(law, want.lams, plus, up_plus, ups - up_plus, batch.z_prod)
    return batch


def _chunk_layout(config: SimulationConfig):
    count = -(-config.paths // config.chunk_size)
    sizes = [min(config.chunk_size,
                 config.paths - c * config.chunk_size) for c in range(count)]
    return count, sizes


def _map_chunks(config: SimulationConfig, kernel):
    """Apply kernel(chunk_index, rows) to every chunk, results in order."""
    count, sizes = _chunk_layout(config)
    workers = min(config.workers, count, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(kernel, range(count), sizes))
    return [kernel(c, rows) for c, rows in zip(range(count), sizes)]


# ---------------------------------------------------------------------------
# interval helpers

# stirlerr(m) = log(m!) - log(sqrt(2 pi m) (m/e)^m) for m = 0..15, rounded
# from 50-digit values (m = 0 is never read)
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(m: int) -> float:
    """stirlerr at an integer m >= 1: tabulated below 16, else the
    Stirling series, whose first omitted term is below 1e-16 at m = 16."""
    if m < 16:
        return _STIRLERR[m]
    inv2 = 1.0 / (m * m)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - (
        1.0 / 1680.0 - inv2 / 1188.0) * inv2) * inv2) * inv2) / m


def _root_start(k: int, m: int, z: float) -> float:
    """log(p/q) near the root of P(Bin(k + m, p) >= k) = a, from Paulson's
    cube-root normal form of the beta quantile; z is the normal quantile
    at 1 - a.  Where that form has no root (small k at small a) it is inf,
    which the caller clips to the top of the bracket."""
    a1, a2 = 1.0 / (9.0 * k), 1.0 / (9.0 * (m + 1.0))
    qa = (1.0 - a2) ** 2 - z * z * a2
    qb = (1.0 - a1) * (1.0 - a2)
    qc = (1.0 - a1) ** 2 - z * z * a1
    disc = qb * qb - qa * qc
    if qa > 0.0 and disc >= 0.0 and qb > math.sqrt(disc):
        return math.log(k / (m + 1.0)) + 3.0 * math.log(
            (qb - math.sqrt(disc)) / qa)
    return math.inf


def _binomial_tail_root(k: int, n: int, a: float, z: float):
    """(p, 1 - p) with P(Bin(n, p) >= k) = a, for an integer k in [2, n-1]
    and 0 < a < 1/2; z is the normal quantile at 1 - a.

    The unknown is theta = log(p/q), q = 1 - p, so that p and q both come
    out to full relative precision.  The tail is F = f_k S, where f_k is
    the pmf at k and S = sum_j f_{k+j}/f_k = sum_j exp(L_j + j theta),
    L_j = sum_{i<=j} log((n-k-i+1)/(k+i)), is summed outward from its
    boundary term.  log f_k is Loader's saddle-point form, stirlerr(n) -
    stirlerr(k) - stirlerr(n-k) - bd0(k, np) - bd0(n-k, nq) -
    log(2 pi k (n-k)/n)/2, in which no large terms cancel.

    At p = k/n the median of the binomial is k, so F >= 1/2 > a there and
    the root lies in theta < log(k/(n-k)).  On that range the terms of S
    decrease in j, and 9 sigma + 16 of them, sigma^2 = k(n-k)/n, leave a
    remainder below 2^-56 S; the arrays hold those terms alone, at most
    4.5 sqrt(n) + 17 of them.  Halley's method on g = log F - log a, with
    g' = k q/S and g'' = -g' (p + T/S), T = sum_j j exp(L_j + j theta),
    runs from ``_root_start``; a step that leaves the bracket is replaced
    by bisection.  Halley's error constant stays below k/10 here (it grows
    with k from 0.08 at k = 2 to 1.8e4 at k = 2^19), so the root is done
    after a step d with k d^3/10 <= 1e-17.
    """
    m = n - k
    const = (_stirlerr(n) - _stirlerr(k) - _stirlerr(m)
             - 0.5 * math.log(2.0 * math.pi * k * m / n) - math.log(a))
    lo, hi = -600.0, math.log(k / m)
    theta = min(max(_root_start(k, m, z), lo), hi)
    j = np.arange(min(m, math.ceil(9.0 * math.sqrt(k * m / n)) + 16) + 1)
    log_c = np.log((n + 1.0 - k - j) / (k + j))
    log_c[0] = 0.0
    big_l = np.add.accumulate(log_c)
    del log_c
    for _ in range(100):
        terms = np.exp(big_l + j * theta)
        # reduceat, not terms.sum(): the two round differently, and the
        # ends' bytes (pinned in the tests) are reduceat's
        s = float(np.add.reduceat(terms, [0])[0])
        t = float(np.add.reduceat(j * terms, [0])[0])
        del terms
        ex = math.exp(theta)
        q = 1.0 / (1.0 + ex)
        p = q * ex
        # log F - log a, with bd0(x, M) = x log(x/M) + M - x evaluated
        # as M((1+d) log1p(d) - d), d = (x - M)/M, whose absolute error
        # is about 2^-53 |x - M|
        mean_k, mean_m = n * p, n * q
        d_k, d_m = (k - mean_k) / mean_k, (m - mean_m) / mean_m
        g = (const - mean_k * ((1.0 + d_k) * math.log1p(d_k) - d_k)
             - mean_m * ((1.0 + d_m) * math.log1p(d_m) - d_m)
             + math.log(s))
        if g < 0.0:
            lo = theta
        else:
            hi = theta
        step = -2.0 * g / (2.0 * k * q / s + g * (p + t / s))
        if not lo <= theta + step <= hi:
            theta = 0.5 * (lo + hi)
            continue
        theta += step
        if 0.1 * k * abs(step) ** 3 <= 1e-17:
            break
    q = 1.0 / (1.0 + math.exp(theta))
    return q * math.exp(theta), q


def _clopper_pearson_ends(hits, n: int, level: float):
    """Clopper-Pearson (lo, hi) lists for each count in ``hits`` of n.

    lo solves P(Bin(n, lo) >= h) = alpha/2 and hi solves
    P(Bin(n, hi) <= h) = alpha/2, i.e. P(Bin(n, 1 - hi) >= n - h) =
    alpha/2; both are roots of one problem, P(Bin(n, p) >= k) = a.  At
    k = n it has the closed form p = a^(1/n) and at k = 1 the form
    q = (1 - a)^(1/n), each end taken from whichever of pow, exp or expm1
    keeps its relative precision; counts 0 and n take the ends 0 and 1.
    Every other distinct count of one call is solved on its own
    (``_binomial_tail_root``), so memory is that of one count's tail.
    """
    hits = [int(h) for h in hits]
    a = (1.0 - level) / 2.0
    from statistics import NormalDist
    z = NormalDist().inv_cdf(1.0 - a)
    ks = {k for h in hits for k in (h, n - h) if 2 <= k < n}
    roots = {k: _binomial_tail_root(k, n, a, z) for k in ks}
    log_q = math.log1p(-a) / n
    roots[1] = (-math.expm1(log_q), math.exp(log_q))
    roots[n] = (a ** (1.0 / n), -math.expm1(math.log(a) / n))
    return ([0.0 if h == 0 else roots[h][0] for h in hits],
            [1.0 if h == n else roots[n - h][1] for h in hits])


def _dkw_band(paths: int, level: float) -> float:
    return math.sqrt(math.log(2.0 / (1.0 - level)) / (2.0 * paths))


def _phi_grid(grid: np.ndarray) -> np.ndarray:
    return np.array([std_normal_cdf(float(g)) for g in grid])


def _thresholds(values, name: str) -> np.ndarray:
    """The caller's parameter ``name`` as a nonempty finite 1-d array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} values must be finite")
    return arr


def _require_grid(grid, name: str) -> np.ndarray:
    """``_thresholds`` that also rejects a grid not sorted ascending."""
    arr = _thresholds(grid, name)
    if np.any(np.diff(arr) < 0.0):
        raise DomainError(f"{name} must be sorted ascending")
    return arr


def _mean_se(total: float, total_sq: float, m: int):
    """Sample mean and its standard error from the sum and sum of squares."""
    mean = total / m
    var = max(0.0, (total_sq - m * mean * mean) / (m - 1)) if m > 1 else 0.0
    return mean, math.sqrt(var / m)


def _counts_at(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Per threshold, in input order, the count of values at or below it."""
    return np.searchsorted(np.sort(values), xs, side="right")


def _exact_cdf_at(model: MartingaleModel, arr: np.ndarray) -> np.ndarray:
    """P(S_n <= x) for x in arr, from the enumerated law."""
    values, probs, _ = _enumeration_atoms(model, 0.0)
    order = np.argsort(values)
    cum = np.cumsum(probs[order])
    counts = np.searchsorted(values[order], arr, side="right")
    return np.where(counts > 0, cum[np.maximum(counts - 1, 0)], 0.0)


# ---------------------------------------------------------------------------
# tail estimators

def estimate_tail_plain(config: SimulationConfig, x: float) -> TailEstimate:
    """P(S_n > x) by direct counting with an exact binomial interval."""
    return estimate_tail_plain_grid(config, [x])[0]


def _plain_estimates(config: SimulationConfig, arr: np.ndarray,
                     counts: np.ndarray) -> list:
    """Estimates at the thresholds arr from the counts at or below them."""
    tail = (config.paths - counts).tolist()
    los, his = _clopper_pearson_ends(tail, config.paths,
                                     config.confidence_level)
    return [TailEstimate(float(x), hits / config.paths, lo, hi,
                         EstimateMethod.PLAIN_CLOPPER_PEARSON,
                         float(config.paths), config.seed)
            for x, hits, lo, hi in zip(arr, tail, los, his)]


def estimate_tail_plain_grid(config: SimulationConfig,
                             xs: Sequence[float]) -> list:
    """Plain tail estimates at several thresholds from one path sweep."""
    arr = _thresholds(xs, "xs")
    leaves = _use_enumeration(config)
    if leaves is None:
        return _plain_estimates(config, arr, _cdf_counts(config, arr))
    values, probs, _ = _enumeration_atoms(config.model, 0.0)
    out = []
    for x in arr:
        p = float(probs[values > x].sum())
        out.append(TailEstimate(float(x), p, p, p,
                                EstimateMethod.EXACT_ENUMERATION,
                                float(leaves), config.seed))
    return out


def estimate_tail_is(config: SimulationConfig, x: float,
                     tilt: Optional[float] = None) -> TailEstimate:
    """P(S_n > x) by sampling under the tilted law and unweighting by Z.

    The default tilt is the optimizer of the squared-deformation exponent
    at level x, which centers the tilted paths near the threshold.  The
    interval is the large-sample normal interval for the weighted mean;
    ``effective_samples`` is the weight-concentration diagnostic
    sum(w)/max(w).
    """
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"threshold must be finite and nonnegative, got {x}")
    params = config.model.bernstein_params()
    if tilt is None:
        lam = lambda_bar(x, params)
    else:
        lam = float(tilt)
        _check_tilt(lam, params.epsilon)

    leaves = _use_enumeration(config)
    if leaves is not None:
        values, probs, log_z = _enumeration_atoms(config.model, lam)
        mask = values > x
        p = float(np.sum(probs[mask] * np.exp(-log_z[mask])))
        return TailEstimate(float(x), p, p, p,
                            EstimateMethod.EXACT_ENUMERATION, float(leaves),
                            config.seed)

    def kernel(chunk: int, rows: int):
        batch = _simulate_chunk(config.model, config.seed, STREAM_MC_TILTED,
                                chunk, rows, lam, _Request((lam,), psi=True))
        log_z = lam * batch.finals - batch.psi[0]
        w = np.where(batch.finals > x, np.exp(-log_z), 0.0)
        return float(w.sum()), float(np.dot(w, w)), float(w.max(initial=0.0))

    parts = _map_chunks(config, kernel)
    sum_w = math.fsum(p[0] for p in parts)
    w_max = max(p[2] for p in parts)
    p_hat, se = _mean_se(sum_w, math.fsum(p[1] for p in parts),
                         config.paths)
    from statistics import NormalDist
    z = NormalDist().inv_cdf(0.5 * (1.0 + config.confidence_level))
    half = z * se
    ess = sum_w / w_max if w_max > 0.0 else 0.0
    return TailEstimate(float(x), p_hat, max(0.0, p_hat - half), p_hat + half,
                        EstimateMethod.IMPORTANCE_SAMPLED_DELTA, ess,
                        config.seed)


def estimate_be_distance(config: SimulationConfig,
                         grid) -> BEDistanceEstimate:
    """Sup over the grid of |empirical CDF of S_n - standard normal CDF|."""
    arr = _require_grid(grid, "grid")
    phi = _phi_grid(arr)

    leaves = _use_enumeration(config)
    if leaves is not None:
        cdf = _exact_cdf_at(config.model, arr)
        d_hat = float(np.max(np.abs(cdf - phi)))
        return BEDistanceEstimate(d_hat, tuple(arr.tolist()), 0.0, leaves)

    cdf = _cdf_counts(config, arr) / config.paths
    d_hat = float(np.max(np.abs(cdf - phi)))
    band = _dkw_band(config.paths, config.confidence_level)
    return BEDistanceEstimate(d_hat, tuple(arr.tolist()), band, config.paths)


def _cdf_counts(config: SimulationConfig, arr: np.ndarray) -> np.ndarray:
    """Sampled plain terminal sums at or below each threshold in arr."""
    def kernel(chunk: int, rows: int) -> np.ndarray:
        batch = _simulate_chunk(config.model, config.seed, STREAM_MC, chunk,
                                rows, 0.0)
        return _counts_at(batch.finals, arr)

    return np.sum(_map_chunks(config, kernel), axis=0)


# ---------------------------------------------------------------------------
# constant calibration

def _minimal_constant(empirical: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Per-point smallest C with C*unit >= empirical (inf when impossible)."""
    out = np.empty(empirical.size)
    for i, (e, u) in enumerate(zip(empirical, units)):
        if u > 0.0:
            out[i] = e / u
        else:
            out[i] = 0.0 if e <= 0.0 else math.inf
    return out


def _exact_qc_l1(model: MartingaleModel) -> float:
    """E|<S>_n - 1| where it is exactly known; error otherwise."""
    if model._law().delta > 0.0:
        raise UnsupportedModelError(
            "mean absolute characteristic deviation has no closed form for "
            "the variance-switch family; this calibration needs it exactly")
    return 0.0


def calibrate_constant(config: SimulationConfig, envelope: str,
                       x_grid) -> CalibrationResult:
    """Smallest constant making the chosen envelope dominate the data.

    The empirical side at each grid point is the conservative end of an
    exact binomial interval (or the exact probability in enumeration
    mode); the envelope side is evaluated at C = 1 and scaled, which is
    valid because every supported envelope is affine in its constant.
    """
    if envelope not in CALIBRATION_ENVELOPES:
        raise ConfigError(
            f"unknown envelope {envelope!r}; choose from "
            f"{', '.join(CALIBRATION_ENVELOPES)}")
    arr = _require_grid(x_grid, "x_grid")
    params = config.model.bernstein_params()
    eps, delta = params.epsilon, params.delta
    # decided before the level check: forcing enumeration of a continuous
    # model is refused first, whatever the levels
    leaves = _use_enumeration(config)

    if envelope == "thm22":
        if np.any(arr < 0.0):
            raise DomainError("tail-side calibration needs nonnegative levels")
        ests = estimate_tail_plain_grid(config, arr)
        upper = np.array([e.ci_hi for e in ests])
        paths_used = int(ests[0].effective_samples)
        units = np.empty(arr.size)
        empirical = np.empty(arr.size)
        for i, x in enumerate(arr):
            lam = lambda_bar(float(x), params)
            xh = xhat(float(x), params)
            rate = (lam * lam * eps + lam * delta ** 2
                    + eps_log_eps(eps) + delta)
            base = std_normal_sf(xh)
            # affine in C: bound = base * (1 + C*(1+xh)*rate)
            units[i] = base * (1.0 + xh) * rate
            empirical[i] = max(0.0, upper[i] - base)
    else:
        phi = _phi_grid(arr)
        if leaves is not None:
            empirical = np.abs(_exact_cdf_at(config.model, arr) - phi)
            paths_used = leaves
        else:
            lo, hi = map(np.array, _clopper_pearson_ends(
                _cdf_counts(config, arr), config.paths,
                config.confidence_level))
            empirical = np.maximum(np.abs(hi - phi), np.abs(phi - lo))
            paths_used = config.paths

        if envelope == "thm21":
            units = np.array([nonuniform_be_envelope(float(x), params,
                                                     _UNIT_C).value
                              for x in arr])
        elif envelope == "thm33":
            rate = eps_log_eps(eps)
            units = np.array([(1.0 + x * x) * rate * math.exp(-0.5 * x * x)
                              for x in arr])
        elif envelope == "cor21":
            qc_l1 = _exact_qc_l1(config.model)
            units = np.array([corollary_envelope(float(x), eps, qc_l1,
                                                 _UNIT_C).value for x in arr])
        else:  # brmti: one uniform rate across the grid
            units = np.full(arr.size, eps_log_eps(eps) + delta)

    per_point = _minimal_constant(empirical, units)
    c_hat = float(np.max(per_point))
    return CalibrationResult(envelope, c_hat, tuple(arr.tolist()),
                             tuple(empirical.tolist()), tuple(units.tolist()),
                             tuple(per_point.tolist()), paths_used,
                             config.seed)


# ---------------------------------------------------------------------------
# conjugate CLT check

def conjugate_clt_check(config: SimulationConfig, x: float,
                        u_grid) -> ConjugateCLTReport:
    """Distance of the tilted-law statistics from the standard normal.

    Paths are drawn under the tilt matched to level x; the statistic
    U = lam*(S_n - x) is compared with the normal law scaled by xhat over
    the u grid, and the centered remainder Y = S_n - B is compared with
    the standard normal directly.  At x = 0 the tilt is zero and U is
    identically zero; the report is computed from that degenerate one-atom
    law without sampling and flagged.
    """
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"level must be finite and nonnegative, got {x}")
    grid = _require_grid(u_grid, "u_grid")
    params = config.model.bernstein_params()
    lam = lambda_bar(x, params)
    xh = xhat(x, params)
    phi = _phi_grid(grid)

    if lam == 0.0:
        emp = (0.0 <= xh * grid).astype(float)
        sup_u = float(np.max(np.abs(emp - phi)))
        return ConjugateCLTReport(float(x), 0.0, xh, sup_u, math.nan, True,
                                  0, tuple(grid.tolist()), config.seed)

    thr_u = xh * grid

    def kernel(chunk: int, rows: int):
        batch = _simulate_chunk(config.model, config.seed, STREAM_MC_TILTED,
                                chunk, rows, lam, _Request((lam,), b=True))
        return (_counts_at(lam * (batch.finals - x), thr_u),
                _counts_at(batch.finals - batch.b_drift[0], grid))

    counts_u, counts_y = np.sum(_map_chunks(config, kernel), axis=0)
    sup_u = float(np.max(np.abs(counts_u / config.paths - phi)))
    sup_y = float(np.max(np.abs(counts_y / config.paths - phi)))
    return ConjugateCLTReport(float(x), lam, xh, sup_u, sup_y, False,
                              config.paths, tuple(grid.tolist()), config.seed)


# ---------------------------------------------------------------------------
# hard-assertion suite

def run_verification_suite(config: SimulationConfig,
                           lam_fractions=(0.1, 0.5, 0.9),
                           domination_levels=(0.5, 1.0, 1.5, 2.0, 2.5,
                                              3.0, 3.5, 4.0)
                           ) -> VerificationReport:
    """Sweep the hard per-path checks and the model-level conditions.

    Plain paths are drawn once and the conjugate objects evaluated on them
    at every lam = f/eps for tilt fractions f in [0, 1), where the change
    of measure and the lemma ceilings hold; any other f (nan too), or a
    negative domination level, raises DomainError before anything is
    drawn.  The drift and log-MGF ceilings must hold on every path (with
    a 1e-12 rounding allowance), the mean of the change-of-measure weight
    Z must sit within 4 standard errors of 1 (the larger of the sample
    one, which collapses on long paths at high tilt, and sqrt(V/m) for m
    paths, V the model's ``_z_variance_bound``), and for two-point
    normalized families every prefix Psi_k must stay below lam^2/2
    (per-step terms are nonnegative, so the terminal value is the prefix
    maximum).  Z computed as the product of the per-step
    factors (for VarianceSwitch, each step kind's factor to its count)
    must agree with exp(lam S - Psi) to 1e-10 relative, tying the two
    factorizations together.  The quadratic characteristic is checked
    against its declared band, and the plain tail against exp(-xhat^2/2)
    at the domination levels, counted on the same draw unless the model is
    enumerated exactly.  Violations are collected with replay coordinates,
    not raised: the band once per chunk, then per lam in chunk order, then
    its mean-Z verdict, then tail domination.
    """
    model = config.model
    params = model.bernstein_params()
    eps = params.epsilon
    lam_values = tuple(f / eps for f in lam_fractions)
    for f, lam in zip(lam_fractions, lam_values):
        # (1/eps)*eps can round below 1, so the fraction is checked too
        if not 0.0 <= f < 1.0:
            raise DomainError(f"tilt fraction {f} is outside [0, 1)")
        _check_tilt(lam, eps)
    violations = []
    checks = []

    a1 = verify_A1(model)
    checks.append("moment-growth")
    if not a1.passed:
        violations.append(ViolationRecord(
            "moment-growth",
            f"binding eps {a1.binding_eps:.6g} exceeds declared "
            f"{a1.declared_eps:.6g}"))
    a2_bound, _ = verify_A2(model)
    checks.append("characteristic-band-declared")

    law = model._law()
    qc_lo = 1.0 - a2_bound - 1e-12
    qc_hi = 1.0 + a2_bound + 1e-12
    # per lam: the drift, log-MGF and half-cosh ceilings
    ceilings = [tuple(ceiling for _, ceiling in _lemma_ceilings(lam, params))
                for lam in lam_values]
    want = _Request(lam_values, psi=True, b=True, z=True, qc=True)
    levels = (_thresholds(domination_levels, "domination_levels")
              if domination_levels else None)
    if levels is not None and np.any(levels < 0.0):
        raise DomainError("domination_levels values must be nonnegative")
    # counted on this draw unless the model is enumerated exactly
    count_levels = levels is not None and _use_enumeration(config) is None

    def kernel(chunk: int, rows: int):
        batch = _simulate_chunk(model, config.seed, STREAM_MC, chunk, rows,
                                0.0, want)
        # <S>_n is tilt-free: its band is checked once per chunk
        qc = batch.qc_final
        idx = np.flatnonzero((qc < qc_lo) | (qc > qc_hi))
        band = None
        if idx.size:
            value = float(qc[idx[0]])
            end = (f"falls below the band's lower end {qc_lo!r}"
                   if value < qc_lo else
                   f"exceeds the band's upper end {qc_hi!r}")
            band = ViolationRecord("characteristic-band",
                                   f"<S>_n = {value!r} {end}", chunk,
                                   int(idx[0]))
        per_lam = []
        for lam, (b_allow, psi_allow, half_allow), psi, b, z_prod in zip(
                lam_values, ceilings, batch.psi, batch.b_drift, batch.z_prod):
            z = np.exp(lam * batch.finals - psi)
            rel = np.abs(z_prod - z) / np.maximum(z, 1e-300)
            table = [("drift-bound", b, b_allow),
                     ("log-mgf-bound", psi, psi_allow)]
            if law.half_cosh:
                table.append(("half-cosh-bound", psi, half_allow))
            table.append(("z-product-route", rel, 1e-10))
            bad = []
            for name, values, ceiling in table:
                idx = np.flatnonzero(values > ceiling)
                if idx.size:
                    bad.append((name, int(idx[0]), float(values[idx[0]]),
                                ceiling))
            per_lam.append((bad, float(z.sum()), float(np.dot(z, z))))
        counts = _counts_at(batch.finals, levels) if count_levels else None
        return band, per_lam, counts

    results = _map_chunks(config, kernel)
    violations.extend(band for band, _, _ in results if band is not None)
    z_stats = []
    for k, lam in enumerate(lam_values):
        for chunk, (_, per_lam, _) in enumerate(results):
            for name, row, value, ceiling in per_lam[k][0]:
                violations.append(ViolationRecord(
                    name, f"lam={lam:.6g}: value {value!r} exceeds "
                    f"{ceiling!r}", chunk, row))
        mean, se = _mean_se(math.fsum(r[1][k][1] for r in results),
                            math.fsum(r[1][k][2] for r in results),
                            config.paths)
        z_stats.append((lam, mean, se))
        bound_se = math.sqrt(_z_variance_bound(lam, law) / config.paths)
        if abs(mean - 1.0) > 4.0 * max(se, bound_se):
            violations.append(ViolationRecord(
                "z-martingale-mean",
                f"lam={lam:.6g}: mean Z = {mean!r} strays beyond 4 standard "
                f"errors (sample {se!r}, bound {bound_se!r}) from 1"))
    checks.extend(["drift-bound", "log-mgf-bound", "characteristic-band",
                   "z-product-route", "z-martingale-mean"])
    if law.half_cosh:
        checks.append("half-cosh-bound")

    if levels is not None:
        ests = (_plain_estimates(config, levels,
                                 np.sum([r[2] for r in results], axis=0))
                if count_levels else estimate_tail_plain_grid(config, levels))
        for est in ests:
            bound = tail_bound_sq(est.x, params).value
            if est.ci_hi > bound:
                violations.append(ViolationRecord(
                    "tail-domination",
                    f"upper interval end {est.ci_hi!r} exceeds "
                    f"exp(-xhat^2/2) = {bound!r} at x = {est.x:g}"))
        checks.append("tail-domination")

    return VerificationReport(
        model=model_id(model), paths=config.paths, lam_values=lam_values,
        z_stats=tuple(z_stats), checks_run=tuple(checks),
        violations=tuple(violations), a1_passed=a1.passed, a2_bound=a2_bound)
