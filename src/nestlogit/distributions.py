"""Gumbel and positive stable distribution primitives.

The standard Gumbel distribution has CDF exp(-exp(-x)). The
positive stable distribution P(lambda), lambda in (0, 1), is the
nonnegative law with Laplace transform E[exp(-t Z)] = exp(-t^lambda); at
lambda = 1 it degenerates to the point mass at 1 and every routine here
treats that case exactly.

Sampling uses Kanter's representation, with the log of the draw assembled
in log space so extreme uniforms cannot overflow. Densities come from the
alternating power series in x^(-lambda k); its terms can grow before they
decay, so the evaluator tracks the largest intermediate term and warns
when cancellation has eaten the result.

Only the samplers need numpy, and they import it when called, so the
moments and series load without it.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, PrecisionLossWarning

if TYPE_CHECKING:
    import numpy as np

    from .streams import SeededStream

__all__ = [
    "EULER_GAMMA",
    "gumbel_sample",
    "stable_sample",
    "stable_log_sample",
    "stable_moment",
    "eta_moments",
    "stable_density_series",
    "stable_survival_series",
    "stable_density_half",
]

EULER_GAMMA = 0.5772156649015329  # float(numpy.euler_gamma)

# Kanter's angle is drawn from (0, pi); clip away the endpoints where the
# log-sine terms are singular. The displaced mass is ~1e-12 of the support.
_ANGLE_EPS = 1e-12

_SERIES_BUDGET = 400
_CANCEL_RATIO = 1e12


def _check_lambda(lam: float, allow_one: bool) -> float:
    lam = float(lam)
    top = "(0, 1]" if allow_one else "(0, 1)"
    if not math.isfinite(lam) or lam <= 0.0 or lam > 1.0 or (lam == 1.0 and not allow_one):
        raise DomainError(f"lambda must lie in {top}, got {lam!r}")
    return lam


# ---------------------------------------------------------------------------
# Gumbel
# ---------------------------------------------------------------------------

def gumbel_sample(stream: SeededStream, size: int) -> np.ndarray:
    """size standard Gumbel draws, by inverse CDF on uniform draws."""
    import numpy as np

    u = stream.rng.random(int(size))
    # Keep u off 0, which has probability 2^-53 and maps to -inf. random()
    # returns k * 2^-53 with k < 2^53, so its top is already nextafter(1, 0).
    np.maximum(u, sys.float_info.min, out=u)
    return -np.log(-np.log(u))


# ---------------------------------------------------------------------------
# Positive stable sampling (Kanter)
# ---------------------------------------------------------------------------

def _kanter_log(rng: np.random.Generator, lam, m: int) -> np.ndarray:
    """log Z for a (rows x m) block: m draws of Z ~ P(lam[r]) in row r,
    for a sequence lam of values in (0, 1).

    Z = (a(U)/E)^((1-lam)/lam) with U uniform on (0, pi), E standard
    exponential and
        a(u) = sin((1-lam)u) * sin(lam*u)^(lam/(1-lam)) / sin(u)^(1/(1-lam)).
    Everything is assembled as log a(U) so neither factor can overflow.

    Row by row, rng gives the row's m uniforms (times pi, bitwise
    rng.uniform(0, pi)) and then its m exponentials, so a block consumes
    the stream exactly as one call per row would. The arithmetic then runs
    once over the block, in place, in the one-row order of operations, so
    each row is the same bits whichever rows share its block.
    """
    import numpy as np

    lam = np.asarray(lam, dtype=float)[:, None]
    u = np.empty((len(lam), m))
    e = np.empty_like(u)
    for u_row, e_row in zip(u, e):
        rng.random(out=u_row)
        rng.standard_exponential(out=e_row)
    u *= math.pi
    np.clip(u, _ANGLE_EPS, math.pi - _ANGLE_EPS, out=u)
    np.maximum(e, sys.float_info.min, out=e)
    log_a = np.multiply(1.0 - lam, u)
    part = np.multiply(lam, u)
    for x in (log_a, part, u):
        np.log(np.sin(x, out=x), out=x)
    log_a += np.multiply(part, lam / (1.0 - lam), out=part)
    log_a -= np.multiply(u, 1.0 / (1.0 - lam), out=u)
    log_a -= np.log(e, out=e)
    return np.multiply(log_a, (1.0 - lam) / lam, out=log_a)


def stable_log_sample(stream: SeededStream, lam: float, size: int) -> np.ndarray:
    """logs of size P(lam) draws; exact zeros when lam = 1 (point mass at 1)."""
    import numpy as np

    lam = _check_lambda(lam, allow_one=True)
    if lam == 1.0:
        return np.zeros(int(size))
    return _kanter_log(stream.rng, [lam], int(size))[0]


def stable_sample(stream: SeededStream, lam: float, size: int) -> np.ndarray:
    """size draws from P(lam) via Kanter's representation; lam = 1 gives ones."""
    import numpy as np

    return np.exp(stable_log_sample(stream, lam, size))


# ---------------------------------------------------------------------------
# Moments and transforms
# ---------------------------------------------------------------------------

def stable_moment(lam: float, kappa: float) -> float:
    """Fractional moment E[Z^kappa] = Gamma(1 - kappa/lam)/Gamma(1 - kappa).

    Finite only for 0 < kappa < lam; integer and higher moments diverge.
    """
    lam = _check_lambda(lam, allow_one=True)
    kappa = float(kappa)
    if not 0.0 < kappa < lam:
        raise DomainError(f"kappa must lie in (0, lambda), got kappa={kappa!r}, lambda={lam!r}")
    return math.exp(math.lgamma(1.0 - kappa / lam) - math.lgamma(1.0 - kappa))


def eta_moments(lam: float) -> tuple[float, float]:
    """Mean and variance of eta = lam * log Z for Z ~ P(lam).

    eta is the non-Gumbel part of a unit Gumbel split as lam*eps + eta:
    E[eta] = (1 - lam)*gamma_E and var(eta) = (1 - lam^2)*pi^2/6.
    """
    lam = _check_lambda(lam, allow_one=True)
    return (1.0 - lam) * EULER_GAMMA, (1.0 - lam * lam) * math.pi**2 / 6.0


# ---------------------------------------------------------------------------
# Density by series
# ---------------------------------------------------------------------------

def _alternating_series(lam: float, x: float, tol: float, gamma_shift: float) -> float:
    """Shared evaluator for the density (gamma_shift=1) and survival
    (gamma_shift=0) series in powers of x^(-lam).

    Term k has magnitude Gamma(lam*k + gamma_shift) * x^(-lam*k - gamma_shift)
    * |sin(k*pi*lam)| / (pi * k!), computed through lgamma so no
    intermediate factorial overflows. Stops once two consecutive terms fall
    below tol * (|sum| + tiny); raises ConvergenceError when the budget of
    400 terms runs out; warns PrecisionLossWarning when the largest
    intermediate term exceeded 1e12 times the final sum.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive, got {x!r}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")

    log_x = math.log(x)
    tiny = sys.float_info.min
    total = 0.0
    largest = 0.0
    consecutive_small = 0
    converged = False

    for k in range(1, _SERIES_BUDGET + 1):
        # sin of a nonzero double is never exactly 0, so its log is finite.
        s = math.sin(k * math.pi * lam)
        log_mag = (
            math.lgamma(lam * k + gamma_shift)
            - math.lgamma(k + 1.0)
            + math.log(abs(s))
            - (lam * k + gamma_shift) * log_x
            - math.log(math.pi)
        )
        # Below e^700 per term, 400 terms sum to at most 4.1e306: finite.
        if log_mag > 700.0:
            raise ConvergenceError(
                f"series terms overflow at term {k} for lambda={lam!r}, x={x!r}"
            )
        sign = 1.0 if (k % 2 == 1) == (s > 0.0) else -1.0
        term = sign * math.exp(log_mag)
        total += term
        largest = max(largest, abs(term))
        if abs(term) < tol * (abs(total) + tiny):
            consecutive_small += 1
            if consecutive_small == 2:
                converged = True
                break
        else:
            consecutive_small = 0

    if not converged:
        raise ConvergenceError(
            f"series did not converge within {_SERIES_BUDGET} terms "
            f"for lambda={lam!r}, x={x!r}"
        )
    if largest > _CANCEL_RATIO * abs(total):
        warnings.warn(
            f"cancellation of {largest:.3e} down to {total:.3e} left few "
            f"significant digits (lambda={lam!r}, x={x!r})",
            PrecisionLossWarning,
            stacklevel=3,
        )
    return total


def stable_density_series(lam: float, x: float, tol: float = 1e-12) -> float:
    """Density of P(lam) at x > 0 from the alternating series

        f(x) = (1/pi) * sum_{k>=1} (-1)^(k+1)/k! * sin(k*pi*lam)
               * Gamma(lam*k + 1) * x^(-lam*k - 1).

    Accurate where the terms stay comparable to the result; for small x
    the leading terms dwarf the density and a PrecisionLossWarning is
    issued once fewer than ~4 significant digits can survive.
    """
    lam = _check_lambda(lam, allow_one=False)
    return _alternating_series(lam, float(x), float(tol), gamma_shift=1.0)


def stable_survival_series(lam: float, x: float, tol: float = 1e-12) -> float:
    """P(Z > x) for Z ~ P(lam), by integrating the density series term by
    term: sum_{k>=1} (-1)^(k+1)/k! * sin(k*pi*lam) * Gamma(lam*k)
    * x^(-lam*k) / pi."""
    lam = _check_lambda(lam, allow_one=False)
    return _alternating_series(lam, float(x), float(tol), gamma_shift=0.0)


def stable_density_half(x: float) -> float:
    """Closed form at lam = 1/2: f(x) = x^(-3/2) exp(-1/(4x)) / (2 sqrt(pi))."""
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive, got {x!r}")
    return 0.5 / math.sqrt(math.pi) * x**-1.5 * math.exp(-0.25 / x)
