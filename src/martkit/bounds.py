"""Closed-form tail bounds and normal-approximation envelopes.

All evaluators take the pair (epsilon, delta) of ``BernsteinParams``:
epsilon is the conditional Bernstein scale of the increments
(|E[xi_i^k | F_{i-1}]| <= (k!/2) eps^{k-2} E[xi_i^2 | F_{i-1}]) and delta^2
bounds |<S>_n - 1|, the deviation of the quadratic characteristic from 1.

Three derived quantities recur everywhere.  Writing v = 1 + delta^2 and
u = 2|x| eps / v:

    xhat(x)       = (2|x|/sqrt(v)) / (1 + sqrt(1+u))        (deformed x)
    breve_x(x)    = 2|x| / (1 + sqrt(1 + 2|x| eps))          (delta-free twin)
    lambda_bar(x) = (2x/v) / (1 + u + sqrt(1+u))             (optimal tilt)

lambda_bar solves (lam - lam^2 eps/2)/(1 - lam eps)^2 = x/v in [0, 1/eps),
and xhat = lambda_bar sqrt(v)/(1 - lambda_bar eps); both identities are
exact algebraically (1 - lambda_bar eps = 1/sqrt(1+u)) and are enforced in
tests at 1e-10/1e-12 relative.

Every envelope is computed in log domain and exponentiated last:
exp(-xhat^2/2) underflows near x ~ 38.6 while the formulas stay
informative far beyond.  Unspecified absolute constants default to 1 and
are caller-overridable through ``BoundConstant``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import DomainError
from .gaussian import _require_finite, std_normal_log_sf

__all__ = [
    "BernsteinParams", "BoundConstant", "ConstantKind", "TailEnvelope",
    "MomentSummary", "ClassicalEnvelopes", "RatioBand", "eps_log_eps",
    "xhat", "breve_x", "lambda_bar", "de_la_pena_bennett",
    "de_la_pena_bernstein", "tail_bound_sq", "strengthened_tail_envelope",
    "nonuniform_be_envelope", "cramer_ratio_band", "corollary_envelope",
    "corollary_uniform_bound", "mourrat_envelope", "uniform_be_bound",
    "classical_envelopes", "RegressionEnvelopes", "SelfNormEnvelopes",
    "regression_envelope", "self_norm_envelope", "wang_jing_bound",
    "CALIBRATION_ENVELOPES",
]

# The envelopes whose constant ``montecarlo.calibrate_constant`` fits.
# They are named here, beside the envelopes, so that the command line can
# offer them without importing the sampler (and numpy).
CALIBRATION_ENVELOPES = ("thm21", "thm22", "cor21", "brmti", "thm33")


class ConstantKind(str, Enum):
    ABSOLUTE_C = "absolute_C"
    C_DELTA = "C_delta"
    C_P = "C_p"


@dataclass(frozen=True)
class BoundConstant:
    """An absolute constant left free by the theory; defaults to 1."""

    c: float = 1.0
    kind: ConstantKind = ConstantKind.ABSOLUTE_C
    p: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise DomainError(f"constant must be finite and >= 0, got {self.c}")
        if self.kind is ConstantKind.C_P:
            if self.p is None or not (math.isfinite(self.p) and self.p >= 1.0):
                raise DomainError(f"kind C_p requires p >= 1, got {self.p}")
        elif self.p is not None:
            raise DomainError(f"p is only meaningful for kind C_p, got kind {self.kind.value}")


@dataclass(frozen=True)
class BernsteinParams:
    """The (epsilon, delta) pair of the two increment conditions.

    Strict construction requires 0 < epsilon <= 1/2 and 0 <= delta <= 1.
    ``permissive=True`` additionally admits epsilon = 0, the Gaussian
    limit, for formula evaluation only; condition checkers always demand
    the strict range.
    """

    epsilon: float
    delta: float = 0.0
    permissive: bool = field(default=False, compare=False)

    def __post_init__(self):
        e, d = self.epsilon, self.delta
        if not (isinstance(e, (int, float)) and math.isfinite(e)):
            raise DomainError(f"epsilon must be finite, got {e!r}")
        if not (isinstance(d, (int, float)) and math.isfinite(d)):
            raise DomainError(f"delta must be finite, got {d!r}")
        low_ok = e > 0.0 or (self.permissive and e == 0.0)
        if not (low_ok and e <= 0.5):
            raise DomainError(
                "the conditional Bernstein condition requires epsilon in "
                f"(0, 1/2] (epsilon = 0 only in permissive mode), got {e}")
        if not 0.0 <= d <= 1.0:
            raise DomainError(
                f"the quadratic-characteristic condition requires delta in [0, 1], got {d}")

    @property
    def v(self) -> float:
        """1 + delta^2, the variance inflation factor."""
        return 1.0 + self.delta * self.delta


class EnvelopeSource(str, Enum):
    """Which bound produced a TailEnvelope, named by what it computes."""

    BENNETT = "bennett"
    BERNSTEIN = "bernstein"
    TAIL_SQ = "tail_sq"
    STRENGTHENED = "strengthened"
    NONUNIFORM_BE = "nonuniform_be"
    STOPPED_BE = "stopped_be"
    REGRESSION = "regression"
    SELF_NORMALIZED = "self_normalized"


@dataclass(frozen=True)
class TailEnvelope:
    """A bound value with its log-domain twin and evaluation metadata."""

    x: float
    value: float
    log_value: float
    source: EnvelopeSource
    constant_used: BoundConstant
    xhat: float | None = None
    lambda_bar: float | None = None


@dataclass(frozen=True)
class MomentSummary:
    """Moment inputs for the classical (non-Bernstein) comparison bounds.

    third_moments_sum   sum_i E|xi_i|^{2+delta_m}
    truncated_second    sum_i E[xi_i^2 1{|xi_i| > 1+|x|}]
    truncated_third     sum_i E[|xi_i|^3 1{|xi_i| <= 1+|x|}]
    qc_deviation_moment E|<S>_n - 1|^{1+delta_m/2} (or the p-th moment, as flagged)
    """

    third_moments_sum: float = 0.0
    truncated_second: float = 0.0
    truncated_third: float = 0.0
    qc_deviation_moment: float = 0.0

    def __post_init__(self):
        for name in ("third_moments_sum", "truncated_second", "truncated_third",
                     "qc_deviation_moment"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0.0):
                raise DomainError(f"{name} must be finite and >= 0, got {val}")


@dataclass(frozen=True)
class ClassicalEnvelopes:
    bikelis: float
    chen_shao: float
    haeusler_joos: float


class RatioBand(NamedTuple):
    lo: float
    hi: float
    valid: bool


_DEFAULT_C = BoundConstant()


def _require_nonneg(x: float, name: str = "x") -> float:
    x = _require_finite(x, name)
    if x < 0.0:
        raise DomainError(f"{name} must be >= 0, got {x}")
    return x


def _require_absolute(c: BoundConstant, op: str) -> BoundConstant:
    if c.kind is not ConstantKind.ABSOLUTE_C:
        raise DomainError(f"{op} takes an absolute constant, got kind {c.kind.value}")
    return c


def _log_or_neg_inf(v: float) -> float:
    return math.log(v) if v > 0.0 else -math.inf


def eps_log_eps(epsilon: float) -> float:
    """eps |log eps| with the natural logarithm; 0 at eps = 0 (the limit)."""
    epsilon = _require_nonneg(epsilon, "epsilon")
    if epsilon == 0.0:
        return 0.0
    return epsilon * abs(math.log(epsilon))


def xhat(x: float, params: BernsteinParams) -> float:
    """The deformed deviation level; satisfies 0 <= xhat <= |x|, with
    equality to |x| exactly when epsilon = delta = 0."""
    x = _require_finite(x)
    v = params.v
    ax = abs(x)
    u = 2.0 * ax * params.epsilon / v
    return (2.0 * ax / math.sqrt(v)) / (1.0 + math.sqrt(1.0 + u))


def breve_x(x: float, epsilon: float) -> float:
    """The delta-free deformation 2|x|/(1+sqrt(1+2|x|eps))."""
    x = _require_finite(x)
    epsilon = _require_nonneg(epsilon, "epsilon")
    ax = abs(x)
    return 2.0 * ax / (1.0 + math.sqrt(1.0 + 2.0 * ax * epsilon))


def lambda_bar(x: float, params: BernsteinParams) -> float:
    """The tilt level whose conjugate mean drift equals x.

    Solves (lam - lam^2 eps/2)/(1 - lam eps)^2 = x/(1+delta^2) on
    [0, 1/eps); evaluated in the cancellation-free closed form.
    """
    x = _require_nonneg(x)
    v = params.v
    u = 2.0 * x * params.epsilon / v
    s = math.sqrt(1.0 + u)
    return (2.0 * x / v) / (1.0 + u + s)


def de_la_pena_bennett(x: float, v: float, epsilon: float) -> TailEnvelope:
    """Bennett-type tail bound exp{-x^2/(v^2 + v^2 sqrt(1+2x eps/v^2) + x eps)}.

    Here v^2 plays the role of the (bound on the) quadratic characteristic.
    At v^2 = 1 + delta^2 the exponent equals -xhat^2/2 exactly.  The
    historical misprint of the denominator, v^2 + sqrt(1+2x eps/v^2) + x eps,
    drops the v^2 factor of the middle term, so it is dimensionally
    inconsistent and agrees with this bound only at v = 1.
    """
    x = _require_nonneg(x)
    epsilon = _require_nonneg(epsilon, "epsilon")
    v = _require_finite(v, "v")
    if v <= 0.0:
        raise DomainError(f"v must be > 0, got {v}")
    v2 = v * v
    root = math.sqrt(1.0 + 2.0 * x * epsilon / v2)
    # v2*root = v2 + 2a/(1+root) with a = x*eps; summing in this order
    # avoids the rounding in v2*root, so the float result never exceeds
    # Bernstein's 2*(v2 + a) (2/(1+root) <= 1).
    a = x * epsilon
    log_value = -(x * x) / (2.0 * v2 + (a + 2.0 * a / (1.0 + root)))
    return TailEnvelope(x=x, value=math.exp(log_value), log_value=log_value,
                        source=EnvelopeSource.BENNETT, constant_used=_DEFAULT_C)


def de_la_pena_bernstein(x: float, v: float, epsilon: float) -> TailEnvelope:
    """Bernstein-type tail bound exp{-x^2/(2(v^2 + x eps))}."""
    x = _require_nonneg(x)
    epsilon = _require_nonneg(epsilon, "epsilon")
    v = _require_finite(v, "v")
    if v <= 0.0:
        raise DomainError(f"v must be > 0, got {v}")
    log_value = -(x * x) / (2.0 * (v * v + x * epsilon))
    return TailEnvelope(x=x, value=math.exp(log_value), log_value=log_value,
                        source=EnvelopeSource.BERNSTEIN, constant_used=_DEFAULT_C)


def tail_bound_sq(x: float, params: BernsteinParams) -> TailEnvelope:
    """The constant-free tail bound exp(-xhat^2/2)."""
    x = _require_nonneg(x)
    xh = xhat(x, params)
    log_value = -0.5 * xh * xh
    return TailEnvelope(x=x, value=math.exp(log_value), log_value=log_value,
                        source=EnvelopeSource.TAIL_SQ, constant_used=_DEFAULT_C,
                        xhat=xh)


def strengthened_tail_envelope(x: float, params: BernsteinParams,
                               c: BoundConstant = _DEFAULT_C) -> TailEnvelope:
    """Gaussian survival at xhat times a 1 + C(...) correction factor.

    The envelope is (1 - Phi(xhat)) [1 + C (1+xhat) r] with
    r = lambda_bar^2 eps + lambda_bar delta^2 + eps|log eps| + delta.
    """
    x = _require_nonneg(x)
    _require_absolute(c, "strengthened_tail_envelope")
    xh = xhat(x, params)
    lb = lambda_bar(x, params)
    eps, delta = params.epsilon, params.delta
    rate = lb * lb * eps + lb * delta * delta + eps_log_eps(eps) + delta
    log_value = std_normal_log_sf(xh) + math.log1p(c.c * (1.0 + xh) * rate)
    return TailEnvelope(x=x, value=math.exp(log_value), log_value=log_value,
                        source=EnvelopeSource.STRENGTHENED, constant_used=c,
                        xhat=xh, lambda_bar=lb)


def nonuniform_be_envelope(x: float, params: BernsteinParams,
                           c: BoundConstant = _DEFAULT_C) -> TailEnvelope:
    """Pointwise CDF-approximation bound C(1+x^2)(eps|log eps| + delta/(1+|x|)) e^{-xhat^2/2}.

    Symmetric in x -> -x by construction.
    """
    x = _require_finite(x)
    _require_absolute(c, "nonuniform_be_envelope")
    ax = abs(x)
    xh = xhat(x, params)
    rate = eps_log_eps(params.epsilon) + params.delta / (1.0 + ax)
    log_value = (_log_or_neg_inf(c.c) + math.log1p(ax * ax)
                 + _log_or_neg_inf(rate) - 0.5 * xh * xh)
    return TailEnvelope(x=x, value=math.exp(log_value), log_value=log_value,
                        source=EnvelopeSource.NONUNIFORM_BE, constant_used=c,
                        xhat=xh)


def cramer_ratio_band(x: float, params: BernsteinParams,
                      c: BoundConstant = _DEFAULT_C) -> RatioBand:
    """Two-sided band for P(S_n > x)/(1 - Phi(x)) in the moderate range.

    Returns (lo, hi, valid) with lo/hi = 1 -/+ C(1+x^3)(eps|log eps| +
    delta/(1+x)), lo clamped at 0, and valid = (x <= min(eps^{-1/3},
    1/delta)) with 1/delta = +inf at delta = 0.
    """
    x = _require_nonneg(x)
    _require_absolute(c, "cramer_ratio_band")
    eps, delta = params.epsilon, params.delta
    width = c.c * (1.0 + x ** 3) * (eps_log_eps(eps) + delta / (1.0 + x))
    eps_limit = math.inf if eps == 0.0 else eps ** (-1.0 / 3.0)
    delta_limit = math.inf if delta == 0.0 else 1.0 / delta
    valid = x <= min(eps_limit, delta_limit)
    return RatioBand(lo=max(0.0, 1.0 - width), hi=1.0 + width, valid=valid)


def corollary_envelope(x: float, epsilon: float, qc_l1: float,
                       c: BoundConstant = _DEFAULT_C) -> TailEnvelope:
    """CDF-approximation bound needing only the Bernstein scale plus
    qc_l1 = E|<S>_n - 1|:

        C[(1+x^2) eps|log eps| e^{-breve_x^2/2} + (qc_l1 + eps^2)^{1/3} e^{-x^2/6}].
    """
    x = _require_finite(x)
    epsilon = _require_nonneg(epsilon, "epsilon")
    qc_l1 = _require_nonneg(qc_l1, "qc_l1")
    _require_absolute(c, "corollary_envelope")
    ax = abs(x)
    xb = breve_x(x, epsilon)
    log_c = _log_or_neg_inf(c.c)
    log_t1 = (log_c + math.log1p(ax * ax)
              + _log_or_neg_inf(eps_log_eps(epsilon)) - 0.5 * xb * xb)
    cube = qc_l1 + epsilon * epsilon
    log_t2 = log_c + _log_or_neg_inf(cube) / 3.0 - x * x / 6.0
    if log_t1 == -math.inf and log_t2 == -math.inf:
        log_value = -math.inf
    else:
        hi, lo = max(log_t1, log_t2), min(log_t1, log_t2)
        log_value = hi + math.log1p(math.exp(lo - hi))
    return TailEnvelope(x=x, value=math.exp(log_value), log_value=log_value,
                        source=EnvelopeSource.STOPPED_BE, constant_used=c)


def corollary_uniform_bound(qc_l1: float, epsilon: float,
                            c: BoundConstant = _DEFAULT_C) -> float:
    """Uniform companion C[(qc_l1)^{1/3} + eps^{2/3}]."""
    qc_l1 = _require_nonneg(qc_l1, "qc_l1")
    epsilon = _require_nonneg(epsilon, "epsilon")
    _require_absolute(c, "corollary_uniform_bound")
    return c.c * (qc_l1 ** (1.0 / 3.0) + epsilon ** (2.0 / 3.0))


def mourrat_envelope(p: float, qc_lp: float, epsilon: float,
                     c: BoundConstant) -> float:
    """Uniform bound C_p[(E|<S>_n - 1|^p)^{1/(2p+1)} + eps^{2p/(2p+1)}]."""
    p = _require_finite(p, "p")
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    if c.kind is not ConstantKind.C_P or c.p != p:
        raise DomainError(
            f"mourrat_envelope needs a C_p constant with p = {p}, got kind "
            f"{c.kind.value} with p = {c.p}")
    qc_lp = _require_nonneg(qc_lp, "qc_lp")
    epsilon = _require_nonneg(epsilon, "epsilon")
    expo = 1.0 / (2.0 * p + 1.0)
    return c.c * (qc_lp ** expo + epsilon ** (2.0 * p * expo))


def uniform_be_bound(params: BernsteinParams,
                     c: BoundConstant = _DEFAULT_C) -> float:
    """Uniform CDF-approximation bound C(eps|log eps| + delta)."""
    _require_absolute(c, "uniform_be_bound")
    return c.c * (eps_log_eps(params.epsilon) + params.delta)


def classical_envelopes(x: float, moments: MomentSummary, delta_m: float,
                        c: BoundConstant = _DEFAULT_C) -> ClassicalEnvelopes:
    """The three classical pointwise comparison bounds at x.

    bikelis        C sum E|xi|^{2+delta_m} / (1+|x|)^{2+delta_m}
    chen_shao      C [trunc. second/(1+|x|)^2 + trunc. third/(1+|x|)^3]
    haeusler_joos  C (sum E|xi|^{2+delta_m} + qc deviation moment)^{1/(3+delta_m)}
                     / (1 + |x|^{2+delta_m})

    delta_m is the extra moment order and must lie in (0, 1].
    """
    x = _require_finite(x)
    delta_m = _require_finite(delta_m, "delta_m")
    if not 0.0 < delta_m <= 1.0:
        raise DomainError(f"moment order delta_m must be in (0, 1], got {delta_m}")
    if c.kind is ConstantKind.C_P:
        raise DomainError("classical_envelopes takes an absolute or delta-indexed constant")
    ax = abs(x)
    one_px = 1.0 + ax
    bikelis = c.c * moments.third_moments_sum / one_px ** (2.0 + delta_m)
    chen_shao = c.c * (moments.truncated_second / one_px ** 2
                       + moments.truncated_third / one_px ** 3)
    hj = (c.c * (moments.third_moments_sum + moments.qc_deviation_moment)
          ** (1.0 / (3.0 + delta_m)) / (1.0 + ax ** (2.0 + delta_m)))
    return ClassicalEnvelopes(bikelis=bikelis, chen_shao=chen_shao,
                              haeusler_joos=hj)


# ---------------------------------------------------------------------------
# application envelopes: least-squares slope and self-normalized mean


def _delta_free_band(x: float, eps: float, c: BoundConstant) -> RatioBand:
    # reuse the general band when eps is in the strict range; otherwise
    # evaluate the same formula and mark the band invalid
    if 0.0 < eps <= 0.5:
        return cramer_ratio_band(abs(x), BernsteinParams(eps), c)
    width = c.c * (1.0 + abs(x) ** 3) * eps_log_eps(eps)
    return RatioBand(lo=max(0.0, 1.0 - width), hi=1.0 + width, valid=False)


@dataclass(frozen=True)
class RegressionEnvelopes:
    """The three normal-approximation statements for the slope error."""

    nonuniform: TailEnvelope   # pointwise CDF bound, deformed exponent
    uniform: float             # sup-norm CDF bound C eps|log eps|
    band: RatioBand            # tail ratio band, moderate-x range
    eps_valid: bool            # eps in (0, 1/2]: the statements apply


def regression_envelope(x: float, eps: float,
                        c: BoundConstant = _DEFAULT_C) -> RegressionEnvelopes:
    """Bounds on the slope error's distance from the standard normal.

    The pointwise bound is C (1+x^2) eps|log eps| exp(-breve_x^2/2) with
    the delta-free deformation breve_x = 2|x|/(1+sqrt(1+2|x|eps)); the
    ratio band is 1 -/+ C (1+x^3) eps|log eps|, trustworthy for
    x <= eps^(-1/3).  Out-of-range eps evaluates the formulas but clears
    ``eps_valid``.
    """
    x = _require_finite(x)
    _require_absolute(c, "regression_envelope")
    xb = breve_x(x, eps)
    rate = eps_log_eps(eps)
    log_value = _log_or_neg_inf(c.c * (1.0 + x * x) * rate) - 0.5 * xb * xb
    nonuniform = TailEnvelope(
        x=x, value=math.exp(log_value), log_value=log_value,
        source=EnvelopeSource.REGRESSION, constant_used=c, xhat=xb)
    return RegressionEnvelopes(
        nonuniform=nonuniform, uniform=c.c * rate,
        band=_delta_free_band(x, eps, c), eps_valid=0.0 < eps <= 0.5)


@dataclass(frozen=True)
class SelfNormEnvelopes:
    """Normal-approximation statements for the self-normalized mean."""

    envelope: TailEnvelope     # pointwise CDF bound, undeformed exponent
    band: RatioBand
    eps_valid: bool


def self_norm_envelope(x: float, eps: float,
                       c: BoundConstant = _DEFAULT_C) -> SelfNormEnvelopes:
    """Bounds for the self-normalized mean of symmetric steps.

    The pointwise bound C (1+x^2) eps|log eps| exp(-x^2/2) keeps the
    plain Gaussian exponent: under self-normalization the per-step
    log-mgf of the sign given the magnitude is at most lam^2/2 with no
    scale deformation, so the exponent never degrades.  Even in x by
    construction.
    """
    x = _require_finite(x)
    _require_absolute(c, "self_norm_envelope")
    rate = eps_log_eps(eps)
    log_value = _log_or_neg_inf(c.c * (1.0 + x * x) * rate) - 0.5 * x * x
    envelope = TailEnvelope(
        x=x, value=math.exp(log_value), log_value=log_value,
        source=EnvelopeSource.SELF_NORMALIZED, constant_used=c, xhat=abs(x))
    return SelfNormEnvelopes(envelope=envelope,
                             band=_delta_free_band(x, eps, c),
                             eps_valid=0.0 < eps <= 0.5)


def wang_jing_bound(x: float, l3n: float, tail_prob_sum: float,
                    c: BoundConstant = _DEFAULT_C) -> float:
    """Third-moment nonuniform bound for self-normalized symmetric sums.

    Piecewise in |x| against the threshold (5 l3n^(1/3))^(-1): inside,
    C (l3n (1+x^2) + tail_prob_sum) exp(-x^2/2) where tail_prob_sum is
    the caller-supplied sum of step truncation probabilities; outside,
    the constant-free (1 + 1/(sqrt(2 pi)|x|)) exp(-x^2/2).  The two
    branches do not meet continuously; that is a property of the bound,
    not a defect.  l3n = 0 degenerates to the inside branch everywhere.
    """
    x = _require_finite(x)
    l3n = _require_nonneg(l3n, "l3n")
    tail_prob_sum = _require_nonneg(tail_prob_sum, "tail_prob_sum")
    _require_absolute(c, "wang_jing_bound")
    gauss = math.exp(-0.5 * x * x)
    if l3n == 0.0 or abs(x) <= 1.0 / (5.0 * l3n ** (1.0 / 3.0)):
        return c.c * (l3n * (1.0 + x * x) + tail_prob_sum) * gauss
    return (1.0 + 1.0 / (math.sqrt(2.0 * math.pi) * abs(x))) * gauss
