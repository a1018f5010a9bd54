"""Martingale families with exactly checkable conditional moment structure.

Every family produces difference sequences whose conditional law given the
past is a symmetric two-point law (one scale per step) or a symmetric
three-point law {-c, 0, +c}.  That closure is what makes the whole toolkit
honest: conditional moments, moment generating functions, tilted transition
probabilities, and the multiplicative martingale Z are all available in
closed form, so the verification suite can hard-assert identities instead
of estimating them.

Families
--------
ScaledRademacher   deterministic step scales w_i with sum w_i^2 = 1.
VarianceSwitch     step variance (1 + delta^2 sign(S_{i-1}))/n, a minimal
                   predictable-variance model with |<S>_n - 1| <= delta^2.
SelfNormalized     independent symmetric steps with |xi_i| in [a, b]; paths
                   are emitted normalized by the realized root square
                   bracket, so the difference sequence sums to the
                   self-normalized statistic and <S>_n = 1.
RegressionModel    least-squares error reduction: covariates phi_k drawn
                   once (uniform on [a, b]), bounded symmetric noise; paths
                   are the normalized differences phi_k e_k/(sigma sqrt(sum
                   phi^2)), again with <S>_n = 1.

Each family's ``_law()`` returns a ``_StepLaw``, the one description of
its per-step conditional law.  Sampling (per path here, per chunk in
``montecarlo``), exact enumeration, the conjugate statistics and the A1/A2
checks read that description, never the family's class.

Randomness is counter-based: a Philox generator keyed by
``[seed, (stream << 56) | index]``.  Draw order inside one path is fixed
and documented per family: magnitudes or covariates first, one raw
64-bit word per step, then the draws that decide each step's sign or
outcome.  A magnitude word w stands for the uniform u = (w >> 11) * 2^-53
that numpy's ``Generator.random`` would return (see ``_band_values``).
Every step, at every tilt, reads a 16-bit lane v of the decision words,
four to a word (``_decisions``).  At lambda = 0 the thresholds are
dyadic: a step goes up when v < 2^15, and a three-point step goes up
when v < 2^13 and down when v >= 7 * 2^13.  At lambda > 0 it goes up when
(v + u') * 2^-16 is below its tilted up-probability expit(2*lambda*scale);
u' is the uniform of the step's own refinement word, at a fixed offset
past the lanes, read straight from its counter only when the lane
equals the floor of the threshold (see ``_below`` and ``_WordReader``).
Every decision therefore has its exact probability, and no refinement
word is read at lambda = 0.  VarianceSwitch paths, one or a chunk of
them, read their decisions from ``_switch_masks``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import IO, Optional, Union

import numpy as np

from .bounds import BernsteinParams
from .errors import DomainError, UnsupportedModelError

__all__ = [
    "NoiseFamily", "ScaledRademacher", "VarianceSwitch", "RegressionModel",
    "SelfNormalized", "MartingaleModel", "PathSample", "ConjugatePathStats",
    "A1Report", "LemmaReport", "simulate_path", "simulate_tilted_path",
    "conjugate_stats", "verify_A1", "verify_A2", "lemma_checks",
    "bolthausen_augment", "noise_bernstein_constant", "model_id",
    "model_to_dict", "path_to_csv", "generator_for",
    "STREAM_PATH", "STREAM_AUGMENT", "STREAM_MC", "STREAM_MC_TILTED",
    "STREAM_COVERAGE",
]

_LOG2 = math.log(2.0)

# Stream constants partition the Philox key space so distinct uses of one
# seed never share counter blocks.
STREAM_PATH = 0
STREAM_AUGMENT = 1
STREAM_MC = 2
STREAM_MC_TILTED = 3
STREAM_COVERAGE = 4   # regression coverage replications

_MASK64 = (1 << 64) - 1
_INDEX_LIMIT = 1 << 56

# A raw Philox word w stands for the uniform u = (w >> 11) * 2^-53.
_WORD_SHIFT = 11
_ULP = 2.0 ** -53
_SIGN_BIT = 1 << 63
# A step reads a 16-bit lane v of a word, four lanes to a word.  At lam = 0
# it goes up iff v < 2^15 (2^13 and 7 * 2^13 bound the three-point
# outcomes); at lam > 0 iff v + u' < 2^16 p, u' the uniform of its
# refinement word
_LANES = 4
_LANE_UNIT = 2.0 ** 16
_LANE_HALF = 1 << 15
# numpy's exp and libm's differ by an ulp, which moves a threshold
# 2^16 * expit(x) by at most 2^-36 (measured over 2e6 thresholds, x in
# [0, 2)); lanes within this margin of a tie are decided by ``_expit``
_MARGIN = 2.0 ** -20
_BLOCK_ELEMENTS = 1 << 15   # float64 entries per row block: 256 KiB


def generator_for(seed: int, stream: int, index: int) -> np.random.Generator:
    """Philox generator for (seed, stream, index), the documented key layout."""
    if not 0 <= int(seed) <= _MASK64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= int(stream) < 256:
        raise DomainError(f"stream out of range: {stream}")
    if not 0 <= int(index) < _INDEX_LIMIT:
        raise DomainError(f"index out of range: {index}")
    key = np.array([int(seed), (int(stream) << 56) | int(index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class NoiseFamily(str, Enum):
    """Regression noise laws with closed-form conditional moments."""

    RADEMACHER_SCALED = "rademacher_scaled"      # +-sigma, equal odds
    TRUNCATED_SYMMETRIC = "truncated_symmetric"  # {-2s, 0, +2s}, P(+-) = 1/8


def noise_bernstein_constant(noise: NoiseFamily, sigma: float) -> float:
    """Smallest eps2 with |E[e^l]| <= (l!/2) eps2^(l-2) sigma^2 up to order 12.

    Runs the even-moment recursion directly rather than hard-coding the
    answer; for both built-in laws the order-4 moment binds and the
    factorial growth dominates beyond, which the test suite pins down.
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DomainError(f"sigma must be positive, got {sigma}")
    noise = NoiseFamily(noise)
    best = 0.0
    for order in range(4, 13, 2):
        moment = _noise_abs_moment_normalized(noise, order) * sigma ** order
        need = (moment / (0.5 * math.factorial(order) * sigma * sigma)) \
            ** (1.0 / (order - 2))
        best = max(best, need)
    return best


def _noise_abs_moment_normalized(noise: NoiseFamily, order: int) -> float:
    """|E[(e/sigma)^order]| for the unit-variance normalized noise."""
    if order % 2 == 1:
        return 0.0
    if noise is NoiseFamily.RADEMACHER_SCALED:
        return 1.0
    # {-2, 0, +2} with P(+-) = 1/8: E[t^order] = 2^order / 4
    return 2.0 ** order / 4.0


@dataclass(frozen=True)
class _StepLaw:
    """The conditional law of every step of one family, given the past.

    Step i has scale s_i from exactly one source: fixed ``weights``; a
    ``band`` (low, high) of uniform draws divided by their root sum of
    squares; or a ``switch`` (s_plus, s_minus) picked by the sign of
    S_{i-1}, sign(0) = +1.  A two-point step is +-s_i; a ``three_point``
    step is {-c, 0, +c} with c = 2 s_i and P(+-) = 1/8, so its variance is
    s_i^2 either way.  ``delta`` bounds |<S>_n - 1| by delta^2.
    """

    n: int
    weights: Optional[tuple] = None
    band: Optional[tuple] = None
    switch: Optional[tuple] = None
    three_point: bool = False
    delta: float = 0.0

    @property
    def constant_scale(self) -> Optional[float]:
        """The single normalized step scale of i.i.d. two-point laws."""
        if self.three_point or self.switch is not None:
            return None
        if self.weights is not None:
            w = self.weights
            return w[0] if all(v == w[0] for v in w) else None
        low, high = self.band
        return 1.0 / math.sqrt(self.n) if low == high else None

    @property
    def half_cosh(self) -> bool:
        """Two-point steps normalized to <S>_n = 1: Psi_k <= lam^2/2 holds."""
        return not self.three_point and self.switch is None

    @property
    def worst_scales(self) -> tuple:
        """Largest step sizes c over all paths, one per exchangeable row."""
        if self.weights is not None:
            return self.weights
        if self.switch is not None:
            return (self.switch[0],)
        low, high = self.band
        base = high / (low * math.sqrt(self.n))
        return (2.0 * base if self.three_point else base,)

    @property
    def mgf_terms(self) -> tuple:
        """(log-MGF, tilted mean / c, MGF) of a step of size c at t = lam*c.

        Each takes the array t and an optional ``out`` array.
        """
        if self.three_point:
            return _three_point_psi, _three_point_drift_factor, _three_point_mgf
        return _log_cosh, np.tanh, np.cosh


def _switch_total(law: _StepLaw, plus, values, out=None):
    """k v_plus + (n - k) v_minus for k = ``plus`` steps at s_plus and
    ``values`` = (v_plus, v_minus): <S>_n for v = s^2, Psi_n for
    log cosh(lam s) and B_n for s tanh(lam s)."""
    out = np.multiply(plus, values[0], out=out)
    out += np.multiply(law.n - plus, values[1])
    return out


def _switch_terms(law: _StepLaw, lam: float):
    """(log cosh(lam s), s tanh(lam s)) at s = (s_plus, s_minus)."""
    scales = np.array(law.switch)
    return _log_cosh(lam * scales), scales * np.tanh(lam * scales)


def _switch_z(law: _StepLaw, lams, plus, up_plus, up_minus, outs):
    """Z at each tilt in ``lams`` into ``outs``, from step counts: at each
    scale f_up f_down to the path's up-down pairs, times the surplus
    kind's factor f = e^{lam xi}/cosh(lam s) to its surplus, which keeps
    both powers near Z's magnitude (f_down^downs alone underflows where
    Z does not)."""
    n, powers = law.n, np.arange(law.n + 1)
    per_scale = []   # (scale, pairs, surplus + n) of each path
    for s, steps, ups in ((law.switch[0], plus, up_plus),
                          (law.switch[1], n - plus, up_minus)):
        downs = steps - ups
        per_scale.append((s, np.minimum(ups, downs),
                          ups.astype(np.intp) - downs + n))
    for lam, out in zip(lams, outs):
        out[:] = 1.0
        for s, pairs, surplus in per_scale:
            # numpy's exp, as a per-step product forms the factors
            up, down = np.exp([lam * s, -lam * s]) / math.cosh(lam * s)
            with np.errstate(over="ignore"):   # read only where Z overflows
                lone = np.concatenate(((down ** powers)[:0:-1], up ** powers))
            out *= ((up * down) ** powers).take(pairs) * lone.take(surplus)


@dataclass(frozen=True)
class ScaledRademacher:
    """Independent fair signs on deterministic scales w_i, sum w_i^2 = 1."""

    weights: tuple

    kind = "scaled_rademacher"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise DomainError("weights must be finite and positive")
        total = math.fsum(float(x) * float(x) for x in w)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(
                f"sum of squared weights must be 1 (got {total!r})")
        if float(w.max()) > 0.5:
            raise DomainError(
                "max weight exceeds 1/2; the Bernstein scale would leave (0, 1/2]")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @classmethod
    def equal_weights(cls, n: int) -> "ScaledRademacher":
        """The canonical 1/sqrt(n) model (requires n >= 4)."""
        if n < 4:
            raise DomainError("equal weights need n >= 4 so that w <= 1/2")
        return cls(weights=(1.0 / math.sqrt(n),) * n)

    @property
    def n(self) -> int:
        return len(self.weights)

    def bernstein_params(self) -> BernsteinParams:
        return BernsteinParams(max(self.weights), 0.0)

    def _law(self) -> _StepLaw:
        return _StepLaw(self.n, weights=self.weights)


@dataclass(frozen=True)
class VarianceSwitch:
    """Two-point steps whose variance tracks the sign of the running sum.

    Step i has conditional variance (1 + delta^2 sign(S_{i-1}))/n with
    sign(0) = +1, so the terminal quadratic characteristic sits inside
    [1 - delta^2, 1 + delta^2] on every path.
    """

    n: int
    delta: float

    kind = "variance_switch"

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 <= self.delta <= 1.0) or not math.isfinite(self.delta):
            raise DomainError(f"delta must lie in [0, 1], got {self.delta!r}")

    def bernstein_params(self) -> BernsteinParams:
        eps = self._law().switch[0]
        if eps > 0.5:
            raise DomainError(
                f"step scale {eps:.6g} exceeds 1/2; increase n (need "
                f"n >= {4.0 * (1.0 + self.delta ** 2):.6g})")
        return BernsteinParams(eps, self.delta)

    def _law(self) -> _StepLaw:
        d2 = self.delta ** 2
        return _StepLaw(self.n, switch=(math.sqrt((1.0 + d2) / self.n),
                                        math.sqrt((1.0 - d2) / self.n)),
                        delta=self.delta)


@dataclass(frozen=True)
class SelfNormalized:
    """Independent symmetric steps with magnitudes uniform on [a, b].

    Paths are emitted after dividing by the realized root square bracket,
    so the differences are eta_i = xi_i / sqrt(sum xi_j^2): their running
    sum ends at the self-normalized statistic and their quadratic
    characteristic (signs conditioned on magnitudes) is exactly 1.
    """

    n: int
    magnitude_low: float
    magnitude_high: float

    kind = "self_normalized"

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        a, b = self.magnitude_low, self.magnitude_high
        if not (0.0 < a <= b) or not math.isfinite(b):
            raise DomainError(
                f"magnitude band must satisfy 0 < a <= b, got [{a!r}, {b!r}]")

    def bernstein_params(self) -> BernsteinParams:
        eps = self.magnitude_high / (self.magnitude_low * math.sqrt(self.n))
        if eps > 0.5:
            raise DomainError(
                f"normalized step scale b/(a sqrt(n)) = {eps:.6g} exceeds 1/2; "
                "increase n")
        return BernsteinParams(eps, 0.0)

    def _law(self) -> _StepLaw:
        return _StepLaw(self.n, band=(self.magnitude_low, self.magnitude_high))


@dataclass(frozen=True)
class RegressionModel:
    """Linear model X_k = theta phi_k + e_k with bounded symmetric noise.

    Covariates are drawn once, uniform on [covariate_low, covariate_high],
    and belong to the time-zero information; paths are the normalized
    error-martingale differences phi_k e_k / (sigma sqrt(sum phi^2)), whose
    quadratic characteristic telescopes to exactly 1.
    """

    theta: float
    n: int
    covariate_low: float
    covariate_high: float
    sigma: float
    noise: NoiseFamily

    kind = "regression"

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not math.isfinite(self.theta):
            raise DomainError("theta must be finite")
        a, b = self.covariate_low, self.covariate_high
        if not (0.0 < a <= b) or not math.isfinite(b):
            raise DomainError(
                f"covariate band must satisfy 0 < a <= b, got [{a!r}, {b!r}]")
        if self.sigma <= 0.0 or not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")
        object.__setattr__(self, "noise", NoiseFamily(self.noise))

    @property
    def eps1_worst(self) -> float:
        """Upper bound on max|phi_k|/sqrt(sum phi^2) over all designs."""
        return self.covariate_high / (self.covariate_low * math.sqrt(self.n))

    def bernstein_params(self) -> BernsteinParams:
        eps2 = noise_bernstein_constant(self.noise, self.sigma)
        eps = self.eps1_worst * eps2 / self.sigma
        if eps > 0.5:
            raise DomainError(
                f"declared scale eps1*eps2/sigma = {eps:.6g} exceeds 1/2; "
                "increase n")
        return BernsteinParams(eps, 0.0)

    def _law(self) -> _StepLaw:
        return _StepLaw(self.n, band=(self.covariate_low, self.covariate_high),
                        three_point=self.noise is NoiseFamily.TRUNCATED_SYMMETRIC)


MartingaleModel = Union[ScaledRademacher, VarianceSwitch, RegressionModel,
                        SelfNormalized]

_MODEL_CLASSES = (ScaledRademacher, VarianceSwitch, RegressionModel,
                  SelfNormalized)


def _require_model(model) -> None:
    if not isinstance(model, _MODEL_CLASSES):
        raise UnsupportedModelError(
            f"not a built-in martingale family: {type(model).__name__}")


def _json_value(value):
    if isinstance(value, tuple):
        return list(value)
    return value.value if isinstance(value, Enum) else value


def model_to_dict(model: MartingaleModel) -> dict:
    """The kind plus every dataclass field, in declaration order."""
    _require_model(model)
    return {"kind": model.kind, **{f.name: _json_value(getattr(model, f.name))
                                   for f in fields(model)}}


def model_id(model: MartingaleModel) -> str:
    """Stable identifier: kind plus a digest of the canonical JSON form."""
    blob = json.dumps(model_to_dict(model), sort_keys=True,
                      separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    return f"{model.kind}-{digest}"


@dataclass(frozen=True, eq=False)
class PathSample:
    """One realized path: differences, running sums, and both brackets.

    ``seed``/``path_index`` are the replay coordinates: feeding them back
    into the generating call reproduces the path bit for bit.
    """

    differences: np.ndarray   # xi_1..xi_n
    partial_sums: np.ndarray  # S_0..S_n
    qc: np.ndarray            # <S>_0..<S>_n
    sq_bracket: float         # [S]_n = sum xi_i^2 (exactly rounded)
    seed: int
    model_id: str
    path_index: int = 0

    def __post_init__(self):
        for name in ("differences", "partial_sums", "qc"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.differences.size
        if self.partial_sums.size != n + 1 or self.qc.size != n + 1:
            raise DomainError("partial_sums and qc must have length n + 1")

    @property
    def n(self) -> int:
        return self.differences.size

    @property
    def final(self) -> float:
        return float(self.partial_sums[-1])


@dataclass(frozen=True, eq=False)
class ConjugatePathStats:
    """Per-path objects of the exponential change of measure at tilt lam.

    ``per_step_psi`` holds the per-step log conditional MGF values, so
    prefix sums give every intermediate Psi_k; ``half_cosh_applicable``
    records whether the path came from a conditionally symmetric two-point
    family normalized to <S>_n = 1, the scope of the Psi_k <= lam^2/2
    comparison.
    """

    lam: float
    z: float
    log_z: float
    psi: float
    b_drift: float
    y: float
    per_step_b: np.ndarray
    per_step_psi: np.ndarray
    half_cosh_applicable: bool

    def __post_init__(self):
        for name in ("per_step_b", "per_step_psi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _expit(x: float) -> float:
    """The logistic function 1/(1 + exp(-x)) of one float x >= 0.

    This is the expression scipy.special.expit evaluates for a double,
    on the same libm exp, so the two agree bit for bit.  Every caller
    passes x = 2*lam*scale, which is >= 0 because ``_check_tilt`` refuses
    negative tilts and scales are positive.  The domain matters: for
    x < -709 math.exp raises OverflowError where scipy returns 0.
    """
    return 1.0 / (1.0 + math.exp(-x))


def _lent(work: Optional[dict], name: str, shape: tuple) -> np.ndarray:
    """``work[name]`` when the caller lent an array of this shape, else a
    new one.

    The chunk kernel lends every row block the same C-contiguous (n, k)
    arrays (see ``montecarlo._simulate_chunk``); the per-path sampler
    lends none, and column-shaped stages of fixed weights always get
    their own small arrays.
    """
    buf = None if work is None else work.get(name)
    return buf if buf is not None and buf.shape == shape else np.empty(shape)


def _band_values(band: tuple, words: np.ndarray, out=None) -> np.ndarray:
    """low + (high - low)*u for the uniforms u of raw words, bit for bit.

    The words are shifted to m = w >> 11 in place.  The product is formed
    as h*m with h = (high - low) * 2^-53: the same real number as
    (high - low)*u, rounded once, so low == high still gives low exactly.
    """
    low, high = band
    m = np.right_shift(words, _WORD_SHIFT, out=words)
    out = np.multiply(m, (high - low) * _ULP, out=out)
    out += low
    return out


def _lane_words(n: int) -> int:
    """Words that hold n 16-bit lanes, four to a word."""
    return -(-n // _LANES)


def _decisions(bits, rows: int, n: int) -> np.ndarray:
    """The (rows, n) 16-bit lanes that decide rows' steps, at any tilt.

    A row takes the next ceil(n/4) words of ``bits`` and reads a lane per
    step: lane j of a row is (w >> 16*(j % 4)) & 0xFFFF of its word j // 4,
    which is the little-endian uint16 view of the words.
    """
    words = bits.random_raw((rows, _lane_words(n)))
    return words.astype("<u8", copy=False).view("<u2")[:, :n]


class _WordReader:
    """Single words of a Philox stream by offset, without the words before.

    The stream is the one ``bits`` draws from its first word, at counter
    0, where ``generator_for`` starts every stream; an offset counts from
    word ``start``.  The tilted samplers keep each step's refinement word
    at a fixed offset and read it only when the step's lane ties its
    threshold, about once in 2^16 steps.  Word w of the stream is word
    w % 4 of the block Philox makes after counter w // 4, so each read
    sets one copy of the generator to that counter, which drops any
    buffered block, and draws w % 4 + 1 words: a few microseconds however
    far it reaches, in any order.  The copy is built at the first read,
    since most chunks read none.
    """

    def __init__(self, bits, start: int):
        self._bits = bits
        self._start = start
        self._copy = self._state = None

    def __call__(self, offsets) -> np.ndarray:
        offsets = np.asarray(offsets, dtype=np.int64)
        out = np.empty(offsets.size, dtype=np.uint64)
        if offsets.size and self._copy is None:
            self._copy = np.random.Philox(key=self._bits.state["state"]["key"])
            self._state = self._copy.state   # counter 0, no block buffered
        for j, at in enumerate((offsets + self._start).tolist()):
            self._state["state"]["counter"][0] = at // 4
            self._copy.state = self._state
            out[j] = self._copy.random_raw(at % 4 + 1)[-1]
        return out


def _refined(read, offsets) -> np.ndarray:
    """The uniforms u' of the refinement words ``read`` returns at offsets."""
    return np.right_shift(read(offsets), _WORD_SHIFT) * _ULP


def _below(lanes: np.ndarray, bound, cut, refine) -> np.ndarray:
    """The mask lanes + u' < bound of 16-bit lanes, u' in [0, 1).

    cut is floor(bound): a lane below it is below whatever u' is and a
    lane above it is not, so only a lane equal to cut reads u', which
    ``refine(at)`` returns for the lanes at flat indices ``at``.  bound
    and cut are scalars or arrays of the shape of ``lanes``.
    """
    below = np.less(lanes, cut)
    at = np.flatnonzero(np.equal(lanes, cut))
    if at.size:
        rest = (bound.flat[at] if np.ndim(bound) else bound) - lanes.flat[at]
        below.flat[at] = refine(at) < rest
    return below


def _two_point_steps(draws: np.ndarray, lam: float, c: np.ndarray,
                     shape: tuple, work: Optional[dict] = None, read=None):
    """(xi, e): steps +-c, up with probability p = expit(2*lam*c).

    ``draws`` holds 16-bit lanes v, step-major (n, k).  At lam = 0,
    p = 1/2: a step goes down iff v >= 2^15, so xi is c with that mask as
    its sign bit, and no refinement word is read.  At lam > 0 a step
    with lane v goes up iff v + u' < P = 2^16 p, with u' the uniform of its
    refinement word, which ``read`` returns at block offsets r*n + i.  The
    fast threshold is T = 2^16/(1 + e), with e = exp(-2*lam*c) from numpy's
    exp, returned for ``_log_cosh``; xi is c with the sign bit of T - v,
    set when v > T.  numpy's exp and libm's (behind ``_expit``) differ by
    an ulp at most, which moves T by at most 2^-36.  A lane with T - v
    outside (-_MARGIN, 1 + _MARGIN) is thus decided by T alone, as
    u' < 1; the others are decided on P = 2^16 _expit(2*lam*c) itself, and
    read u' where 0 < P - v < 1.  So xi equals the steps of the exact rule
    bit for bit.  ``c`` is (n, k) or an (n, 1) column.
    """
    xi = _lent(work, "xi", shape)
    if lam == 0.0:
        down = np.greater_equal(draws, _LANE_HALF)
        signed = np.left_shift(down.view(np.uint8), 63,
                               out=xi.view(np.uint64), dtype=np.uint64)
        signed |= c.view(np.uint64)
        return xi, None
    e = np.multiply(c, -2.0 * lam, out=_lent(work, "e", c.shape))
    np.exp(e, out=e)
    thr = np.add(e, 1.0, out=_lent(work, "a", c.shape))
    np.divide(_LANE_UNIT, thr, out=thr)
    gap = xi
    np.copyto(gap, draws, casting="unsafe")
    np.subtract(thr, gap, out=gap)
    near = np.greater(gap, -_MARGIN)
    near &= np.less(gap, 1.0 + _MARGIN)
    signed = gap.view(np.uint64)
    signed &= _SIGN_BIT
    signed |= c.view(np.uint64)
    at = np.flatnonzero(near)
    if at.size:
        step, row = np.divmod(at, shape[1])
        cn = c[step, row % c.shape[1]]
        rest = np.array([_expit(x) for x in (cn * (2.0 * lam)).tolist()])
        rest = rest * _LANE_UNIT - draws[step, row]   # P - v
        u = np.zeros(at.size)
        tie = (rest > 0.0) & (rest < 1.0)
        if tie.any():
            u[tie] = _refined(read, row[tie] * shape[0] + step[tie])
        xi[step, row] = np.where(u < rest, cn, -cn)
    return xi, e


def _switch_masks(law: _StepLaw, bits, rows: int, lam: float):
    """(minus, flip): step-major (n, rows) masks of rows VarianceSwitch
    paths drawn from ``bits``; a step at pos = (S >= 0) goes up iff
    minus[i] ^ (pos & flip[i]).

    minus marks the steps that go up at s_minus, flip those that decide
    otherwise at s_plus, and flip is None where the two agree (lam = 0,
    or delta = 0).  At lam = 0 a step goes up when its lane v is below
    2^15, read with no tie test; at lam > 0 when v + u' < 2^16 p at its
    scale, p = expit(2*lam*s) (``_below``).  A tie depends on the step's
    own draws, not on the path, so the masks are final before any walk.
    Row blocks of ``_BLOCK_ELEMENTS`` draws are compared in draw order
    and only the mask bytes are transposed.
    """
    n = law.n
    if lam == 0.0:
        bounds = [_LANE_HALF]
    else:
        bounds = [_LANE_UNIT * _expit(2.0 * lam * s)
                  for s in law.switch[::-1]]
        read = _WordReader(bits, rows * _lane_words(n))
    bounds = bounds[:1] if bounds[0] == bounds[-1] else bounds
    # both masks in one allocation: glibc's malloc then keeps that much
    # heap for the next chunk, where two 1 MiB masks (n = 128) were handed
    # back to the system and faulted in again, 512 page faults a chunk
    masks = np.empty((len(bounds), n, rows), dtype=bool)
    block = max(1, _BLOCK_ELEMENTS // n)
    for r0 in range(0, rows, block):
        draws = _decisions(bits, min(block, rows - r0), n)
        if lam == 0.0:
            below = [np.less(draws, _LANE_HALF)]
        else:
            refine = lambda at, base=r0 * n: _refined(read, at + base)
            below = [_below(draws, b, math.floor(b), refine) for b in bounds]
        if len(below) == 2:
            below[1] ^= below[0]
        for mask, b in zip(masks, below):
            mask[:, r0:r0 + block] = b.T
    return masks[0], (masks[1] if len(masks) == 2 else None)


def _variance_switch_walk(law: _StepLaw, bits, lam: float):
    """Steps and <S> of one VarianceSwitch path: row 0 of a one-row
    chunk's masks (see ``_switch_masks``)."""
    s_plus, s_minus = law.switch
    minus, flip = _switch_masks(law, bits, 1, lam)
    minus = minus[:, 0].tolist()
    flip = [False] * law.n if flip is None else flip[:, 0].tolist()
    xi = np.empty(law.n)
    s = 0.0
    for i in range(law.n):
        pos = s >= 0.0  # sign(0) = +1
        scale = s_plus if pos else s_minus
        step = scale if minus[i] ^ (pos and flip[i]) else -scale
        xi[i] = step
        s += step
    return xi, np.cumsum(xi * xi)


def _three_point_outcomes(draws: np.ndarray, lam: float, support: np.ndarray,
                          work: Optional[dict] = None,
                          read=None) -> np.ndarray:
    """Outcome in {+1, 0, -1} units for {-c, 0, +c} steps, P(+-) = 1/8.

    The draws are 16-bit lanes v.  Tilting scales the point masses by
    e^{+-lam c} on the extremes; the thresholds (hi, mid) reduce to
    (1/8, 7/8) exactly at lam = 0, where a step goes up iff v < 2^13 and
    down iff v >= 7 * 2^13, read with no refinement word.  At lam > 0,
    u = (v + u') 2^-16 with u' from the step's refinement word (see
    ``_two_point_steps``), and both thresholds are scaled by 2^16
    (exactly: the total is scaled by 2^-16 before the divisions).  A step
    goes up iff v + u' < hi and down iff not v + u' < mid, each read by
    ``_below``.  The outcome is the int8 mask difference
    (u < hi) - (u >= mid): hi < mid, so at most one is set.  At lam = 0
    the masks keep the layout of ``draws`` and only the outcome bytes are
    copied to C order.
    """
    if lam == 0.0:
        up = np.less(draws, 1 << 13)
        down = np.greater_equal(draws, 7 << 13)
    else:
        # in place: t becomes the down weight, then 0.75/total, then mid
        shape = support.shape
        t = np.multiply(support, lam, out=_lent(work, "a", shape))
        hi = np.exp(t, out=_lent(work, "b", shape))
        hi *= 0.125
        np.negative(t, out=t)
        np.exp(t, out=t)
        t *= 0.125
        total = np.add(hi, 0.75, out=_lent(work, "d", shape))
        total += t
        total /= _LANE_UNIT
        np.divide(hi, total, out=hi)
        np.divide(0.75, total, out=t)
        t += hi
        # 0 < hi < mid < 2^16, so the cast truncates to the floor; the
        # comparisons run on one step-major copy of the lanes, whose flat
        # index step*k + row is block offset row*n + step
        n, k = shape
        draws = np.ascontiguousarray(draws)

        def refine(at):
            step, row = np.divmod(at, k)
            return _refined(read, row * n + step)

        up = _below(draws, hi, hi.astype(np.uint16), refine)
        down = _below(draws, t, t.astype(np.uint16), refine)
        np.logical_not(down, out=down)
    outcome = np.subtract(up.view(np.int8), down.view(np.int8))
    return np.ascontiguousarray(outcome)


def _steps(law: _StepLaw, scales: np.ndarray, draws: np.ndarray, lam: float,
           work: Optional[dict] = None, read=None):
    """(c, xi, e): step sizes, steps and exp(-2*lam*c) for one block.

    ``draws`` holds one 16-bit lane v per step, step-major (n, k): the
    (n, k) transpose of a chunk block's ``_decisions``, or (n, 1) for one
    path.  At lam = 0 the thresholds are dyadic and v alone decides.  At
    lam > 0 the step's uniform is (v + u') 2^-16, where u' is the uniform
    of the step's refinement word; ``read`` returns those words at block
    offsets r*n + i, and is called only for the lanes that tie a
    threshold.  Every comparison gives the same decision as on the exact
    uniform; the tilted two-point threshold falls back to ``_expit``
    within a margin (see ``_two_point_steps``).  c is the scale itself for
    two-point steps and the support 2*scale for three-point ones;
    xi = c * outcome, a C-contiguous array of the broadcast shape of
    ``scales`` and ``draws``.  e is exp(-2*lam*c), which ``_log_cosh``
    reuses at the same tilt, or None when no threshold needed it.
    ``work`` lends arrays that c, xi, e and the temporaries are written
    into (see ``_lent``).
    """
    shape = np.broadcast_shapes(np.shape(scales), draws.shape)
    if law.three_point:
        c = np.multiply(scales, 2.0, out=_lent(work, "c", shape))
        outcome = _three_point_outcomes(draws, lam, c, work, read)
        return c, np.multiply(outcome, c, out=_lent(work, "xi", shape)), None
    xi, e = _two_point_steps(draws, lam, scales, shape, work, read)
    return scales, xi, e


def _generate(model: MartingaleModel, lam: float, seed: int,
              path_index: int) -> PathSample:
    law = model._law()
    bits = generator_for(seed, STREAM_PATH, path_index).bit_generator
    if law.switch is not None:
        xi, qc_tail = _variance_switch_walk(law, bits, lam)
    else:
        lead = 0
        if law.weights is not None:
            scales = np.asarray(law.weights)
            qc_tail = np.cumsum(scales * scales)
        else:
            # magnitudes or covariates first, one word per step
            lead = law.n
            m = _band_values(law.band, bits.random_raw(law.n))
            csum = np.cumsum(m * m)
            scales = m / math.sqrt(csum[-1])
            qc_tail = csum / csum[-1]
        # then the step draws, as one row of a chunk
        read = (_WordReader(bits, lead + _lane_words(law.n)) if lam
                else None)
        _, xi, _ = _steps(law, scales[:, None],
                          _decisions(bits, 1, law.n).T, lam, read=read)
        xi = xi[:, 0]
    sums = np.concatenate(([0.0], np.cumsum(xi)))
    qc = np.concatenate(([0.0], qc_tail))
    sq = math.fsum(v * v for v in xi.tolist())
    return PathSample(xi, sums, qc, sq, int(seed), model_id(model),
                      int(path_index))


def _check_tilt(lam: float, eps: float) -> None:
    """Refuse a tilt outside [0, 1/eps), where the conjugate objects live."""
    if not math.isfinite(lam) or lam < 0.0:
        raise DomainError(f"tilt must be finite and nonnegative, got {lam}")
    if lam * eps >= 1.0:
        raise DomainError(
            f"tilt {lam:.6g} is outside [0, 1/eps) for eps = {eps:.6g}")


def simulate_path(model: MartingaleModel, seed: int, *,
                  path_index: int = 0) -> PathSample:
    """Draw one path under the model's own law; deterministic in the key."""
    _require_model(model)
    return _generate(model, 0.0, seed, path_index)


def simulate_tilted_path(model: MartingaleModel, lam: float, seed: int, *,
                         path_index: int = 0) -> PathSample:
    """Draw one path under the exponentially tilted law at tilt lam.

    Magnitudes and covariates keep their untilted law (the change of
    measure integrates to one over each step's sign variable alone); only
    the per-step outcome probabilities move.  At lam = 0 it draws as
    simulate_path does and reproduces it exactly.  Each step reads a
    16-bit lane and, at lam > 0 where the lane ties its threshold, its
    refinement word, as row 0 of a one-row chunk.
    """
    _require_model(model)
    _check_tilt(lam, model.bernstein_params().epsilon)
    return _generate(model, lam, seed, path_index)


def _log_cosh(t: np.ndarray, e: Optional[np.ndarray] = None,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """log cosh(t) = t + log1p(e^{-2t}) - log 2 for an array t >= 0.

    Every caller passes t = lam * c with lam, c >= 0.  ``e`` is e^{-2t}
    when the caller already holds it, and is overwritten: the two-point
    thresholds at tilt lam compute exp(-2*lam*c), the same float as
    exp(-2*t) for t = lam*c.  Otherwise e^{-2t} is formed in ``out``.
    """
    if e is None:
        e = np.multiply(t, -2.0, out=out)
        np.exp(e, out=e)
    out = np.log1p(e, out=e)
    np.add(t, out, out=out)
    np.subtract(out, _LOG2, out=out)
    return out


def _three_point_psi(t: np.ndarray, out=None) -> np.ndarray:
    """log E[e^{lam xi}] for the {-c, 0, +c} step, t = lam*c >= 0.

    The direct form needs no overflow-safe branch: every tilt that reaches
    it has passed ``_check_tilt``, so lam < 1/eps, and every family's
    largest step c is at most 2*sqrt(3)*eps, so t < 2*sqrt(3), far below
    the t ~ 710 where cosh overflows.
    """
    out = _three_point_mgf(t, out=out)
    return np.log(out, out=out)


def _three_point_drift_factor(t: np.ndarray, out=None) -> np.ndarray:
    """sinh(t)/(3 + cosh(t)), the tilted mean in units of the support c."""
    den = np.cosh(t)
    den += 3.0
    out = np.sinh(t, out=out)
    out /= den
    return out


def _three_point_mgf(t: np.ndarray, out=None) -> np.ndarray:
    """E[e^{lam xi}] for the {-c, 0, +c} step, t = lam*c."""
    out = np.cosh(t, out=out)
    out *= 0.25
    out += 0.75
    return out


def conjugate_stats(path: PathSample, model: MartingaleModel,
                    lam: float) -> ConjugatePathStats:
    """Evaluate Z, Psi, B and the centered remainder Y at tilt lam.

    The identities log Z = lam*S_n - Psi and S_n = Y + B hold exactly by
    construction (each is computed from the other two), which is what the
    per-path hard checks rely on.  For switch laws Psi and B come from the
    path's step counts (``_switch_total``), as in the chunk kernel, while
    ``per_step_psi`` and ``per_step_b`` stay per step for the prefixes
    that ``lemma_checks`` reads; their sums may differ in the last bits.
    """
    _require_model(model)
    _check_tilt(lam, model.bernstein_params().epsilon)
    if path.model_id != model_id(model):
        raise DomainError(
            f"path belongs to {path.model_id}, not {model_id(model)}")
    law = model._law()
    # A two-point step's size is its realized magnitude.  A three-point
    # step hides its support when the outcome is 0, so the support is
    # rebuilt from the characteristic increments (variance c^2/4).
    if law.three_point:
        scales = 2.0 * np.sqrt(np.diff(path.qc))
    else:
        scales = np.abs(path.differences)
    log_mgf, drift, _ = law.mgf_terms
    t = lam * scales
    psi_steps = log_mgf(t)
    b_steps = scales * drift(t)
    if law.switch is not None:   # k steps at s_plus, sign(0) = +1
        plus = np.count_nonzero(path.partial_sums[:-1] >= 0.0)
        psi, b_drift = (float(_switch_total(law, plus, v))
                        for v in _switch_terms(law, lam))
    else:
        psi = float(np.cumsum(psi_steps)[-1]) if psi_steps.size else 0.0
        b_drift = float(np.cumsum(b_steps)[-1]) if b_steps.size else 0.0
    sn = path.final
    log_z = lam * sn - psi
    return ConjugatePathStats(
        lam=float(lam), z=math.exp(log_z), log_z=log_z, psi=psi,
        b_drift=b_drift, y=sn - b_drift, per_step_b=b_steps,
        per_step_psi=psi_steps, half_cosh_applicable=law.half_cosh)


@dataclass(frozen=True)
class A1Report:
    """Margins of the conditional moment-growth condition.

    ``margins[i, j]`` is the relative slack (bound/moment-ratio - 1) of
    step-row i at even order ``orders[j]``; exchangeable families collapse
    to a single worst-case row.  ``binding_eps`` is the smallest scale that
    would still pass every checked order, so passing means binding_eps is
    at most the declared scale.
    """

    declared_eps: float
    binding_eps: float
    orders: tuple
    margins: np.ndarray
    worst_margin: float
    passed: bool


_A1_MAX_ORDER = 12   # highest even moment order verify_A1 checks
_A1_TOL = 1e-9       # rounding allowance on the worst A1 margin


def verify_A1(model: MartingaleModel) -> A1Report:
    """Check the moment-growth condition from exact conditional moments.

    All families have conditionally symmetric steps, so odd conditional
    moments vanish and only even orders 2..12 carry content.  Each
    even order compares |E[xi^l | past]| / E[xi^2 | past] against
    (l!/2) eps^(l-2) at the declared eps, using worst-case step scales for
    the families whose scales are random.
    """
    _require_model(model)
    eps = model.bernstein_params().epsilon
    # a step of size c has moment ratio c^(l-2) at even order l, for both
    # the two-point law and the {-c, 0, +c} law
    bases = model._law().worst_scales

    orders = tuple(range(2, _A1_MAX_ORDER + 1, 2))
    margins = np.empty((len(bases), len(orders)))
    for i, base in enumerate(bases):
        for j, order in enumerate(orders):
            bound = 0.5 * math.factorial(order) * eps ** (order - 2)
            margins[i, j] = bound / base ** (order - 2) - 1.0
    worst = float(margins.min())

    binding = 0.0
    for base in bases:
        for order in orders:
            if order < 4:
                continue
            need = (base ** (order - 2)
                    / (0.5 * math.factorial(order))) ** (1.0 / (order - 2))
            binding = max(binding, need)
    return A1Report(declared_eps=eps, binding_eps=binding, orders=orders,
                    margins=margins, worst_margin=worst,
                    passed=worst >= -_A1_TOL)


def verify_A2(model: MartingaleModel):
    """(delta^2 bound on |<S>_n - 1|, whether it is exact by construction)."""
    _require_model(model)
    # delta is 0 for the families normalized to <S>_n = 1 identically
    return model._law().delta ** 2, True


_LEMMA_ALLOW = 1e-12  # rounding allowance on the hard inequalities


def _lemma_ceilings(lam: float, params: BernsteinParams):
    """Drift, log-MGF and half-cosh bounds at tilt lam, with their ceilings.

    Returns three (bound, ceiling) pairs: B_n <= (lam - lam^2 eps/2)(1 +
    delta^2)/(1 - lam eps)^2, Psi_n <= lam^2 (1 + delta^2)/(2(1 - lam eps))
    and, for two-point normalized families, Psi_k <= lam^2/2.  A ceiling is
    its bound plus the rounding allowance relative to max(1, |bound|); a
    path violates a bound only when its value exceeds the ceiling.
    """
    eps, d2 = params.epsilon, params.delta ** 2
    one_minus = 1.0 - lam * eps
    b_bound = (lam - 0.5 * lam * lam * eps) * (1.0 + d2) / one_minus ** 2
    psi_bound = lam * lam * (1.0 + d2) / (2.0 * one_minus)
    half_bound = 0.5 * lam * lam
    return tuple((bound, bound + _LEMMA_ALLOW * max(1.0, abs(bound)))
                 for bound in (b_bound, psi_bound, half_bound))


def _z_variance_bound(lam: float, law: _StepLaw) -> float:
    """Var Z at tilt lam is at most exp(sum_i gap(lam c_i)) - 1 (inf past
    e^709), with gap(t) = psi(2t) - 2 psi(t): Z(lam)^2 = Z(2 lam)
    exp(Psi_n(2 lam) - 2 Psi_n(lam)) and E Z(2 lam) = 1.  The gap grows
    with t, so the worst scales bound every step; the sum is exact for
    fixed weights, and n times the worst gap otherwise."""
    psi = law.mgf_terms[0]
    t = lam * np.asarray(law.worst_scales)
    gap = psi(2.0 * t) - 2.0 * psi(t)
    total = law.n / t.size * math.fsum(gap.tolist())
    return math.expm1(total) if total <= 709.0 else math.inf


@dataclass(frozen=True)
class LemmaReport:
    """Slack of the drift and log-MGF bounds at one (path, tilt) pair.

    ``lower_c_required`` reports the constant that would make the linear
    lower drift bound lam(1 - delta^2) - c lam^2 eps tight from below; it
    is informational, never asserted, because no explicit value exists.
    """

    lam: float
    b_value: float
    b_bound: float
    psi_value: float
    psi_bound: float
    half_cosh_bound: float | None
    half_cosh_worst: float | None
    lower_c_required: float
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def lemma_checks(stats: ConjugatePathStats,
                 params: BernsteinParams) -> LemmaReport:
    """Compare realized B and Psi with their closed-form ceilings.

    Violations are reported, not raised, so callers can aggregate them
    over a batch and escalate with replay coordinates.
    """
    lam = stats.lam
    eps, d2 = params.epsilon, params.delta ** 2
    _check_tilt(lam, eps)
    (b_bound, b_ceiling), (psi_bound, psi_ceiling), half = _lemma_ceilings(
        lam, params)

    violations = []
    if stats.b_drift > b_ceiling:
        violations.append(
            f"drift bound: B = {stats.b_drift!r} > {b_bound!r}")
    if stats.psi > psi_ceiling:
        violations.append(
            f"log-MGF bound: Psi = {stats.psi!r} > {psi_bound!r}")

    half_bound = half_worst = None
    if stats.half_cosh_applicable:
        half_bound, half_ceiling = half
        prefixes = np.cumsum(stats.per_step_psi)
        half_worst = float(prefixes.max()) if prefixes.size else 0.0
        if half_worst > half_ceiling:
            violations.append(
                f"half-cosh bound: max Psi_k = {half_worst!r} > {half_bound!r}")

    if lam > 0.0 and eps > 0.0:
        lower_c = (lam * (1.0 - d2) - stats.b_drift) / (lam * lam * eps)
    else:
        lower_c = 0.0
    return LemmaReport(
        lam=lam, b_value=stats.b_drift, b_bound=b_bound, psi_value=stats.psi,
        psi_bound=psi_bound, half_cosh_bound=half_bound,
        half_cosh_worst=half_worst, lower_c_required=lower_c,
        violations=tuple(violations))


_AUGMENT_EPS_MIN = 2.0 ** -10   # padding of at most 2^20 + 1 steps


def bolthausen_augment(path: PathSample, epsilon: float, seed: int, *,
                       path_index: int = 0) -> PathSample:
    """Stop at the last time <S> <= 1 and pad the variance up to exactly 1.

    The padding block is floor((1 - <S>_tau)/eps^2) independent +-eps
    steps, one Rademacher-signed step whose squared size is the leftover
    variance, then zero steps to the fixed length n + floor(1/eps^2) + 1.
    The closing subtraction 1 - <S> happens above 3/4, where it is exact,
    so the augmented characteristic ends within a few ulp of 1.  eps must
    be at least 2^-10, so the padding holds at most 2^20 + 1 steps; at
    that cap a path with no variance of its own (the worst case) raised
    the process's peak RSS by about 90 MB, for the padding's float arrays
    and the float list summed for sq_bracket.  A smaller eps raises
    DomainError before anything is allocated.
    """
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if epsilon < _AUGMENT_EPS_MIN:
        raise DomainError(
            f"epsilon = {epsilon:.6g} would pad the path with "
            f"floor(1/eps^2) > 2^20 steps; it must be at least 2^-10")
    e2 = epsilon * epsilon
    tail_capacity = math.floor(1.0 / e2)
    n = path.n

    # tau = last index with <S>_k <= 1; qc is nondecreasing
    tau = int(np.searchsorted(path.qc, 1.0, side="right")) - 1
    qc_tau = float(path.qc[tau])
    leftover = 1.0 - qc_tau

    r = min(int(leftover / e2), tail_capacity)
    while r > 0 and r * e2 > leftover:
        r -= 1
    qc_mid = qc_tau + r * e2
    closing_var = max(0.0, 1.0 - qc_mid)
    closing = math.sqrt(closing_var)

    rng = generator_for(seed, STREAM_AUGMENT, path_index)
    signs = np.where(rng.random(r + 1) < 0.5, 1.0, -1.0)

    pad = tail_capacity - r
    stopped = np.array(path.differences)
    stopped[tau:] = 0.0
    diffs = np.concatenate(
        (stopped, signs[:r] * epsilon, [signs[r] * closing], np.zeros(pad)))
    final_qc = qc_mid + closing * closing
    qc = np.concatenate(
        (path.qc[:tau + 1], np.full(n - tau, qc_tau),
         qc_tau + e2 * np.arange(1, r + 1), [final_qc],
         np.full(pad, final_qc)))
    sums = np.concatenate(([0.0], np.cumsum(diffs)))
    sq = math.fsum(v * v for v in diffs.tolist())
    return PathSample(diffs, sums, qc, sq, int(seed),
                      path.model_id + "#aug", int(path_index))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def path_to_csv(path: PathSample, dest) -> None:
    """Dump a path as (step, xi, s, qc) rows; step 0 has no difference."""
    def write(f: IO[str]) -> None:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["step", "xi", "s", "qc"])
        w.writerow([0, "", _fmt(path.partial_sums[0]), _fmt(path.qc[0])])
        for k in range(1, path.n + 1):
            w.writerow([k, _fmt(path.differences[k - 1]),
                        _fmt(path.partial_sums[k]), _fmt(path.qc[k])])

    if hasattr(dest, "write"):
        write(dest)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as f:
            write(f)
