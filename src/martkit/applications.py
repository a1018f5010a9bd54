"""Statistical applications of the deviation machinery.

Two inference problems reduce to the normalized-martingale setting and
inherit its normal-approximation envelopes: the least-squares slope of a
fixed-design-per-sample linear model, and the self-normalized mean of
independent symmetric variables.  Their envelopes, and a third-moment
comparison bound for the self-normalized case, are closed forms that live
in ``bounds`` beside the other envelopes and are re-exported here.

Coverage experiments draw nothing themselves: a replication's
standardized slope error is the terminal value of one ``RegressionModel``
path, sampled by the Monte Carlo chunk kernel on a dedicated stream, so
results depend on (seed, chunk_size) and never on the worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bounds import (BoundConstant, RegressionEnvelopes, SelfNormEnvelopes,
                     _require_absolute, breve_x, eps_log_eps,
                     regression_envelope, self_norm_envelope,
                     wang_jing_bound)
from .errors import ConfigError, DomainError
from .gaussian import std_normal_sf
from .martingales import (STREAM_COVERAGE, NoiseFamily, RegressionModel,
                          noise_bernstein_constant)
from .montecarlo import SimulationConfig, _map_chunks, _simulate_chunk

__all__ = [
    "STREAM_COVERAGE", "RegressionData", "EpsilonSplit",
    "RegressionEnvelopes", "SelfNormEnvelopes", "ConfidenceInterval",
    "RegressionReport", "SelfNormReport", "CoverageResult",
    "least_squares", "standardized_error", "regression_reduction_check",
    "regression_epsilons", "regression_envelope", "regression_ci",
    "regression_report", "regression_coverage", "self_norm_statistic",
    "self_norm_envelope", "self_norm_report", "wang_jing_bound",
]

_DEFAULT_C = BoundConstant()
_DEFAULT_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


# ---------------------------------------------------------------------------
# data container


@dataclass(frozen=True)
class RegressionData:
    """Observed design and response of the scalar linear model.

    Responses are X_k = theta phi_k + e_k with centered noise of known
    conditional scale ``sigma``; the covariates phi_k carry the design.
    """

    covariates: tuple
    responses: tuple
    sigma: float = 1.0

    def __post_init__(self):
        try:
            phi = tuple(float(v) for v in self.covariates)
            resp = tuple(float(v) for v in self.responses)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"non-numeric regression data: {exc}") from exc
        object.__setattr__(self, "covariates", phi)
        object.__setattr__(self, "responses", resp)
        if len(phi) != len(resp) or not phi:
            raise DomainError(
                f"need equally many covariates and responses (>= 1), got "
                f"{len(phi)} and {len(resp)}")
        if not all(map(math.isfinite, phi + resp)):
            raise DomainError("regression data must be finite")
        if not (isinstance(self.sigma, (int, float))
                and math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")
        if self.covariate_energy == 0.0:
            raise DomainError("covariate energy sum(phi^2) must be positive")

    @property
    def n(self) -> int:
        return len(self.covariates)

    @property
    def covariate_energy(self) -> float:
        """sum(phi_k^2), the design's information content."""
        return math.fsum(v * v for v in self.covariates)

    @classmethod
    def from_csv(cls, path, sigma: float = 1.0) -> "RegressionData":
        """Load a two-column file with the exact header ``phi,x``."""
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        if not rows or [c.strip() for c in rows[0]] != ["phi", "x"]:
            raise ConfigError(
                f"expected header 'phi,x' in {path}, got {rows[0] if rows else 'empty file'}")
        phi, resp = [], []
        for lineno, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ConfigError(
                    f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                phi.append(float(row[0]))
                resp.append(float(row[1]))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        return cls(tuple(phi), tuple(resp), sigma)


# ---------------------------------------------------------------------------
# point estimation and the martingale reduction


def least_squares(data: RegressionData) -> float:
    """Slope estimate sum(phi X) / sum(phi^2)."""
    num = math.fsum(p * x for p, x in zip(data.covariates, data.responses))
    return num / data.covariate_energy


def standardized_error(data: RegressionData, theta: float) -> float:
    """(theta_hat - theta) sqrt(sum phi^2) / sigma, the CLT-scale error."""
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    energy = data.covariate_energy
    return (least_squares(data) - theta) * math.sqrt(energy) / data.sigma


def regression_reduction_check(data: RegressionData, theta: float) -> float:
    """Residual of the identity reducing the slope error to a martingale.

    The standardized slope error equals sum(phi_k e_k) / (sigma
    sqrt(sum phi^2)) with e_k = X_k - theta phi_k; both sides are exact
    algebra, so the return value measures pure rounding (tiny relative to
    the common value unless the data are ill-conditioned).
    """
    lhs = standardized_error(data, theta)
    root = math.sqrt(data.covariate_energy)
    rhs = math.fsum(p * (x - theta * p)
                    for p, x in zip(data.covariates, data.responses)) \
        / (data.sigma * root)
    return abs(lhs - rhs)


class EpsilonSplit(NamedTuple):
    """(eps1, eps2, eps): design scale, noise scale, their product/sigma."""

    eps1: float
    eps2: float
    eps: float


def regression_epsilons(source, *, noise: Optional[NoiseFamily] = None
                        ) -> EpsilonSplit:
    """Split the effective step scale into design and noise factors.

    eps1 = max|phi_k| / sqrt(sum phi^2) (observed for data, the a.s.
    worst case for a model); eps2 is the smallest conditional Bernstein
    constant of the noise law; eps = eps1 eps2 / sigma drives every
    envelope.  Data ingestion cannot see the noise law, so ``noise`` is
    required in that case.
    """
    if isinstance(source, RegressionModel):
        eps1 = source.eps1_worst
        eps2 = noise_bernstein_constant(source.noise, source.sigma)
        sigma = source.sigma
    elif isinstance(source, RegressionData):
        if noise is None:
            raise ConfigError(
                "observed data carry no noise law; pass noise=<NoiseFamily>")
        eps1 = max(abs(v) for v in source.covariates) \
            / math.sqrt(source.covariate_energy)
        eps2 = noise_bernstein_constant(NoiseFamily(noise), source.sigma)
        sigma = source.sigma
    else:
        raise ConfigError(
            f"expected RegressionData or RegressionModel, got {type(source).__name__}")
    return EpsilonSplit(eps1, eps2, eps1 * eps2 / sigma)


# ---------------------------------------------------------------------------
# interval inversion


@dataclass(frozen=True)
class ConfidenceInterval:
    """Two-sided interval for the slope, with its inversion level x_star."""

    lo: float
    hi: float
    x_star: float
    level: float
    valid: bool                # crossing found inside the band's range
    method: str                # "ratio_band" or "envelope"

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_dict(self) -> dict:
        return asdict(self)


def _first_crossing(g, alpha: float, cap: float) -> Optional[float]:
    """Smallest double x in [0, cap] with g(x) <= alpha, or None.

    g(0) >= 1 > alpha always holds here, as both routes add a nonnegative
    term to 2(1 - Phi(0)) = 1.  Scan in steps of 0.05 for the first x
    with g(x) <= alpha, then bisect the bracket [lo, x] on doubles,
    keeping g(lo) > alpha >= g(x), until the midpoint rounds to one of
    its ends; x is then the double just above lo.
    """
    step = 0.05
    lo, x = 0.0, step
    while x <= cap + 1e-12:
        if g(x) <= alpha:
            mid = 0.5 * (lo + x)
            while lo < mid < x:
                if g(mid) <= alpha:
                    x = mid
                else:
                    lo = mid
                mid = 0.5 * (lo + x)
            return x
        lo = x
        x += step
    return None


def _invert_level(eps: float, level: float, c: BoundConstant,
                  use_envelope: bool) -> Tuple[float, bool]:
    """Solve for the smallest x whose two-sided bound drops to 1-level."""
    if not (isinstance(level, (int, float)) and 0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0, 1), got {level!r}")
    if not (isinstance(eps, (int, float)) and math.isfinite(eps)
            and eps >= 0.0):
        raise DomainError(f"eps must be finite and >= 0, got {eps!r}")
    _require_absolute(c, "regression_ci")
    alpha = 1.0 - level
    rate = eps_log_eps(eps)

    if use_envelope:
        def g(x: float) -> float:
            env = c.c * (1.0 + x * x) * rate \
                * math.exp(-0.5 * breve_x(x, eps) ** 2)
            return 2.0 * (std_normal_sf(x) + env)
    else:
        def g(x: float) -> float:
            return 2.0 * std_normal_sf(x) \
                * (1.0 + c.c * (1.0 + x ** 3) * rate)

    trust = math.inf if eps == 0.0 else eps ** (-1.0 / 3.0)
    cap = max(20.0, 2.0 * trust) if math.isfinite(trust) else 20.0
    x_star = _first_crossing(g, alpha, cap)
    valid = x_star is not None and x_star <= trust
    return (cap if x_star is None else x_star), valid


def regression_ci(data: RegressionData, eps: float, level: float,
                  c: BoundConstant = _DEFAULT_C, *,
                  use_envelope: bool = False) -> ConfidenceInterval:
    """Invert a two-sided tail statement into an interval for the slope.

    Default route: smallest x with 2(1-Phi(x))(1 + C(1+x^3) eps|log eps|)
    <= 1-level, i.e. the upper ratio band applied to both tails.  With
    C = 0 this collapses to the exact Gaussian quantile.  The envelope
    route (``use_envelope=True``) inverts the additive CDF bound
    2(1-Phi(x)) + 2C(1+x^2) eps|log eps| exp(-breve_x^2/2) instead;
    it is cruder for moderate x but available when the band's cubic
    factor is unacceptable.

    If the crossing lies beyond the band's trust range x <= eps^(-1/3)
    (or is not found at all), the interval is returned with ``valid``
    cleared rather than raised, since the formulas still evaluate.
    """
    x_star, valid = _invert_level(eps, level, c, use_envelope)
    half = x_star * data.sigma / math.sqrt(data.covariate_energy)
    center = least_squares(data)
    return ConfidenceInterval(lo=center - half, hi=center + half,
                              x_star=x_star, level=level, valid=valid,
                              method="envelope" if use_envelope
                              else "ratio_band")


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RegressionReport:
    """Slope estimate with its deviation envelopes over a level grid."""

    theta_hat: float
    standardized_error: Optional[float]   # (theta_hat - theta) sqrt(E)/sigma
    eps1: float
    eps2: float
    eps: float
    eps_valid: bool
    envelope_at: dict                     # x -> nonuniform CDF bound

    def to_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "standardized_error": self.standardized_error,
            "eps1": self.eps1, "eps2": self.eps2, "eps": self.eps,
            "eps_valid": self.eps_valid,
            "envelope": [[x, v] for x, v in self.envelope_at.items()],
        }


def regression_report(data: RegressionData, noise: NoiseFamily, *,
                      theta: Optional[float] = None,
                      x_grid: Sequence[float] = _DEFAULT_GRID,
                      c: BoundConstant = _DEFAULT_C) -> RegressionReport:
    """Bundle the point estimate with the envelope evaluated on a grid."""
    split = regression_epsilons(data, noise=noise)
    env = {float(x): regression_envelope(x, split.eps, c).nonuniform.value
           for x in x_grid}
    std = None if theta is None else standardized_error(data, theta)
    return RegressionReport(theta_hat=least_squares(data),
                            standardized_error=std,
                            eps1=split.eps1, eps2=split.eps2, eps=split.eps,
                            eps_valid=0.0 < split.eps <= 0.5,
                            envelope_at=env)


@dataclass(frozen=True)
class SelfNormReport:
    """Self-normalized statistic with envelopes and ratio bands."""

    statistic: float
    n: int
    eps: float
    eps_valid: bool
    envelope_at: dict               # x -> CDF bound
    band_at: dict                   # x -> (lo, hi, valid)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic, "n": self.n, "eps": self.eps,
            "eps_valid": self.eps_valid,
            "envelope": [[x, v] for x, v in self.envelope_at.items()],
            "band": [[x, b[0], b[1], bool(b[2])]
                     for x, b in self.band_at.items()],
        }


def self_norm_statistic(sample: Sequence[float]) -> float:
    """sum(xi) / sqrt(sum(xi^2)); scale-free, |result| <= sqrt(n).

    Values are divided by max|xi| before summing, so rescaling the whole
    sample by a constant whose per-element products round exactly (small
    integers, powers of two) leaves the result bit-identical, and no
    intermediate square can overflow.
    """
    vals = [float(v) for v in sample]
    if not vals or not all(map(math.isfinite, vals)):
        raise DomainError("sample must be nonempty and finite")
    peak = max(abs(v) for v in vals)
    if peak == 0.0:
        raise DomainError("self-normalizer vanishes on the all-zero sample")
    scaled = [v / peak for v in vals]
    return math.fsum(scaled) / math.sqrt(math.fsum(v * v for v in scaled))


def self_norm_report(sample: Sequence[float], *,
                     eps: Optional[float] = None,
                     x_grid: Sequence[float] = _DEFAULT_GRID,
                     c: BoundConstant = _DEFAULT_C) -> SelfNormReport:
    """Evaluate the statistic and its envelopes; empirical eps by default.

    The default eps is max|xi| / sqrt(sum xi^2), the realized normalized
    step bound; pass a deterministic a.s. bound instead when one is
    known (e.g. b/(a sqrt(n)) for magnitudes in [a, b]).
    """
    stat = self_norm_statistic(sample)
    vals = [abs(float(v)) for v in sample]
    if eps is None:
        # max|xi| / sqrt(sum xi^2), peak-normalized like the statistic
        unit = [v / max(vals) for v in vals]
        eps = 1.0 / math.sqrt(math.fsum(v * v for v in unit))
    env, band = {}, {}
    for x in x_grid:
        pair = self_norm_envelope(x, eps, c)
        env[float(x)] = pair.envelope.value
        band[float(x)] = (pair.band.lo, pair.band.hi, pair.band.valid)
    return SelfNormReport(statistic=stat, n=len(vals), eps=eps,
                          eps_valid=0.0 < eps <= 0.5,
                          envelope_at=env, band_at=band)


# ---------------------------------------------------------------------------
# coverage experiment


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of repeated interval construction on synthetic datasets."""

    covered: int
    replications: int
    level: float
    x_star: float
    valid: bool

    @property
    def rate(self) -> float:
        return self.covered / self.replications

    def to_dict(self) -> dict:
        return {"covered": self.covered, "replications": self.replications,
                "rate": self.rate, "level": self.level,
                "x_star": self.x_star, "valid": self.valid}


def regression_coverage(model: RegressionModel, level: float,
                        replications: int, seed: int, *,
                        c: BoundConstant = _DEFAULT_C,
                        chunk_size: int = 1024, workers: int = 1,
                        use_envelope: bool = False) -> CoverageResult:
    """Fraction of synthetic datasets whose interval captures the slope.

    A dataset's standardized slope error is the terminal value S_n of
    one model path, drawn by the Monte Carlo chunk kernel on stream
    ``STREAM_COVERAGE``; it is covered when |S_n| <= x_star, inverted once
    from the model's a.s. eps.  Counts are integers, so the result is
    exactly reproducible for fixed (seed, chunk_size) at any worker count.
    """
    if not isinstance(model, RegressionModel):
        raise ConfigError(
            f"coverage experiment needs a RegressionModel, got {type(model).__name__}")
    config = SimulationConfig(model, paths=replications, seed=seed,
                              chunk_size=chunk_size, workers=workers,
                              exhaustive=False)
    split = regression_epsilons(model)
    x_star, valid = _invert_level(split.eps, level, c, use_envelope)

    def kernel(chunk: int, rows: int) -> int:
        # S_n = (theta_hat - theta) sqrt(sum phi^2) / sigma, path by path
        finals = _simulate_chunk(model, config.seed, STREAM_COVERAGE, chunk,
                                 rows, 0.0).finals
        return int(np.count_nonzero(np.abs(finals) <= x_star))

    covered = sum(_map_chunks(config, kernel))
    return CoverageResult(covered=covered, replications=replications,
                          level=level, x_star=x_star, valid=valid)
