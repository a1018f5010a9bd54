"""High-accuracy standard normal primitives.

Everything downstream (envelope evaluation, Monte Carlo comparison,
interval inversion) leans on the tail accuracy of Phi, so this module keeps
the error budget explicit:

* ``std_normal_cdf``: absolute error <= 1e-15 for |x| <= 8, via the
  complementary error function (Phi(x) = erfc(-x/sqrt(2))/2).
* ``std_normal_sf``: survival function 1 - Phi(x) with relative error
  <= 1e-12 up to x = 40 wherever the value is representable; it underflows
  to 0 near x ~ 38.6, which is why every consumer gets a log-domain twin.
* ``std_normal_log_sf``: log(1 - Phi(x)), finite and strictly decreasing
  for all finite x.  For x >= 8 it is computed from the Gaussian Mills
  ratio continued fraction

      R(x) = 1/(x + 1/(x + 2/(x + 3/(x + ...)))),
      log sf(x) = -x^2/2 - log(sqrt(2 pi)) + log R(x),

  evaluated bottom-up at fixed depth; below 8 the direct log of the erfc
  route is already exact to ~1 ulp.

The module also provides the two-sided Mills-ratio sandwich

    1/(sqrt(2 pi)(1+x)) <= (1 - Phi(x)) e^{x^2/2} <= 1/(sqrt(pi)(1+x)),

used as a constant-free cross-check on every Gaussian tail that appears in
the bound suite.
"""

from __future__ import annotations

import math

from .errors import DomainError

SQRT_2 = math.sqrt(2.0)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Depth of the Mills-ratio continued fraction.  At x = 8 the truncation
# error is already below 1e-19 relative; the cost is ~100 divisions.
_CF_DEPTH = 100

# Crossover between log(erfc-route) and the continued fraction.
_CF_CUTOFF = 8.0


def _require_finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _upper_tail(ax: float) -> float:
    """P(N > ax) for ax >= 0, via erfc."""
    return 0.5 * math.erfc(ax / SQRT_2)


def _mills_ratio_cf(x: float) -> float:
    """Continued fraction for sf(x) * e^{x^2/2} * sqrt(2 pi), x >= cutoff."""
    t = x
    for k in range(_CF_DEPTH, 0, -1):
        t = x + k / t
    return 1.0 / t


def std_normal_cdf(x: float) -> float:
    """Phi(x), the standard normal distribution function."""
    x = _require_finite(x)
    p = _upper_tail(abs(x))
    return 1.0 - p if x >= 0.0 else p


def std_normal_sf(x: float) -> float:
    """1 - Phi(x).  Underflows to 0 for x beyond roughly 38.6."""
    x = _require_finite(x)
    p = _upper_tail(abs(x))
    return p if x >= 0.0 else 1.0 - p


def std_normal_log_sf(x: float) -> float:
    """log(1 - Phi(x)), finite for every finite x."""
    x = _require_finite(x)
    if x < _CF_CUTOFF:
        # sf(x) >= sf(8) ~ 6.2e-16; no underflow, log is exact to ~1 ulp.
        return math.log(std_normal_sf(x))
    return -0.5 * x * x - LOG_SQRT_2PI + math.log(_mills_ratio_cf(x))


def mills_sandwich(x: float) -> tuple[float, float]:
    """Two-sided bounds on (1 - Phi(x)) e^{x^2/2} for x >= 0.

    Returns (1/(sqrt(2 pi)(1+x)), 1/(sqrt(pi)(1+x))).  The bracketed
    quantity overflows in linear space beyond x ~ 26, so callers comparing
    against it should work with log_sf + x^2/2.
    """
    x = _require_finite(x)
    if x < 0.0:
        raise DomainError(f"mills_sandwich requires x >= 0, got {x}")
    lower = 1.0 / (math.sqrt(2.0 * math.pi) * (1.0 + x))
    upper = 1.0 / (math.sqrt(math.pi) * (1.0 + x))
    return lower, upper
