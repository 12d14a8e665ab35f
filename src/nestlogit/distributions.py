"""Gumbel and positive stable distribution primitives.

The standard Gumbel distribution has CDF exp(-exp(-x)). The
positive stable distribution P(lambda), lambda in (0, 1), is the
nonnegative law with Laplace transform E[exp(-t Z)] = exp(-t^lambda); at
lambda = 1 it degenerates to the point mass at 1 and every routine here
treats that case exactly.

Sampling uses Kanter's representation, with the log of the draw assembled
in log space so extreme uniforms cannot overflow. The density and
survival function come from the same representation, as integrals over
Kanter's angle of nonnegative integrands, so nothing cancels and there is
no tolerance to set.

Only the samplers need numpy, and they import it when called, so the
moments, density and survival function load without it.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

TYPE_CHECKING = False  # type checkers read it as True
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
# pi/2 in two floats: _HALF_PI - x + _HALF_PI_LO is pi/2 - x, rounded
# relative to itself, for x in [pi/4, pi/2], where the subtraction is exact.
_HALF_PI, _HALF_PI_LO = 0.5 * math.pi, 6.123233995736766e-17


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

def _log_tan_sum(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """x <- log(t + 1/t) with t = tan(x), in place: log 2 - log sin(2x).

    numpy's float64 tan is vectorized on x86 with AVX-512 where its sin is
    not, so this costs less than log(sin(2x)) there; elsewhere both are
    scalar and the identity costs a few vector operations more."""
    import numpy as np

    np.tan(x, out=x)
    np.divide(1.0, x, out=scratch)
    x += scratch
    return np.log(x, out=x)


def _kanter_log(rng: np.random.Generator, lam, m: int) -> np.ndarray:
    """eta = lam * log Z for a (rows x m) block: m draws of Z ~ P(lam[r])
    in row r, for a sequence lam of values in (0, 1): _kanter_draws, then
    _kanter_eta.

    Z = (a(U)/E)^((1-lam)/lam) with U uniform on (0, pi), E standard
    exponential and
        a(u) = sin((1-lam)u) * sin(lam*u)^(lam/(1-lam)) / sin(u)^(1/(1-lam)),
    so eta = (1-lam)*(log a(U) - log E)
           = (1-lam)*log sin((1-lam)U) + lam*log sin(lam*U) - log sin(U) - (1-lam)*log E.
    No factor (1-lam)/lam appears, so eta is finite at any lam in (0, 1),
    and callers scale it by their own Lambda; log Z itself is eta / lam.

    Each log sin X is log 2 - log(t + 1/t) with t = tan(X/2) (see
    _log_tan_sum); the three log 2 carry weights (1-lam) + lam - 1 = 0
    and are left out. Of the weights lam and 1-lam, call the smaller lo
    and the larger hi. lo*U/2 < pi/4 is taken as it is, floored at the
    smallest normal float where a subnormal lam underflows it. t + 1/t is
    the same at X and pi - X, so hi*U/2 is replaced by (pi - hi*U)/2 =
    (pi - U)/2 + lo*U/2 where that is smaller: each is rounded relative to
    itself, so the sines are as accurate near pi as near 0.

    Row by row, rng gives the row's m uniforms (times pi, bitwise
    rng.uniform(0, pi)) and then its m exponentials, so a block consumes
    the stream exactly as one call per row would. The arithmetic
    (_kanter_eta) then runs once over the block, in place, in the one-row
    order of operations, so each row is the same bits whichever rows share
    its block, and whichever thread computes it once it is drawn.
    """
    import numpy as np

    lam = np.asarray(lam, dtype=float)
    return _kanter_eta(lam, *_kanter_draws(rng, len(lam), m))


def _kanter_draws(rng: np.random.Generator, rows: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw (rows x m) uniforms h and exponentials e of a Kanter block,
    drawn row by row, each row's m uniforms before its m exponentials."""
    import numpy as np

    h = np.empty((rows, m))
    e = np.empty_like(h)
    for h_row, e_row in zip(h, e):
        rng.random(out=h_row)
        rng.standard_exponential(out=e_row)
    return h, e


def _kanter_eta(lam: np.ndarray, h: np.ndarray, e: np.ndarray) -> np.ndarray:
    """_kanter_log's arithmetic on a block of raw uniforms h and
    exponentials e, row r at lam[r]; h and e are overwritten."""
    import numpy as np

    lam = lam[:, None]
    c = 1.0 - lam
    lo, hi = np.minimum(lam, c), np.maximum(lam, c)
    h *= _HALF_PI  # U/2, bitwise: the float pi/2 is the float pi halved
    np.clip(h, 0.5 * _ANGLE_EPS, 0.5 * (math.pi - _ANGLE_EPS), out=h)
    np.maximum(e, sys.float_info.min, out=e)
    small = np.multiply(lo, h)
    np.maximum(small, sys.float_info.min, out=small)
    big = np.multiply(hi, h)
    w = np.subtract(_HALF_PI, h)
    w += _HALF_PI_LO
    w += small
    np.minimum(big, w, out=big)
    # eta = log(t + 1/t) at U - hi*log(t + 1/t) at hi*U - lo*log(t + 1/t) at lo*U - (1-lam)*log E
    _log_tan_sum(big, w)
    big *= hi
    np.log(e, out=e)
    e *= c
    big += e
    _log_tan_sum(small, e)
    small *= lo
    big += small
    return np.subtract(_log_tan_sum(h, e), big, out=h)


def stable_log_sample(stream: SeededStream, lam: float, size: int) -> np.ndarray:
    """logs of size P(lam) draws; exact zeros when lam = 1 (point mass at 1)."""
    import numpy as np

    lam = _check_lambda(lam, allow_one=True)
    if lam == 1.0:
        return np.zeros(int(size))
    log_z = _kanter_log(stream.rng, [lam], int(size))[0]
    log_z /= lam
    return log_z


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
# Density and survival by Kanter's integral
# ---------------------------------------------------------------------------

def _gauss_legendre(n: int) -> list[tuple[float, float]]:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [-1, 1],
    by Newton's method on the Legendre recurrence."""
    rule = []
    for i in range(n):
        z = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(8):  # quadratic convergence from this start: 1e-16 by the 5th step
            p0, p1 = 1.0, z
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * z * p1 - (k - 1) * p0) / k
            slope = n * (z * p1 - p0) / (z * z - 1.0)
            z -= p1 / slope
        rule.append((z, 2.0 / ((1.0 - z * z) * slope * slope)))
    return rule


_GAUSS = _gauss_legendre(16)
_TINY = math.ulp(0.0)
_STEEP = 4.0  # the most log h may change across a panel: _STEEP / h where h > 1


def _log_a(lam: float, s: float, mirrored: bool) -> float:
    """log a(u), a as in _kanter_log, at u = s or, mirrored, at u = pi - s,
    for s in (0, pi/2]: each half of (0, pi) is measured from its own end,
    so floats resolve u as finely near pi as near 0. Mirrored, sin(t*u) is
    taken at whichever of t*(pi - s) and its supplement (1-t)*pi + t*s is
    the smaller, so no small sine comes from a cancelling difference."""
    c = 1.0 - lam
    if mirrored:
        sin_c = math.sin(min(c * (math.pi - s), lam * math.pi + c * s))
        sin_lam = math.sin(min(lam * (math.pi - s), c * math.pi + lam * s))
    else:
        sin_c, sin_lam = math.sin(c * s), math.sin(lam * s)
    # A sine is 0 only where its argument underflows (s = 0, or lam*s for a
    # subnormal lam, whose log is weighted by lam/(1-lam) ~ 0): the smallest
    # float stands in, and log h still comes out >= 700 or exact.
    log = math.log
    return log(max(sin_c, _TINY)) + lam / c * log(max(sin_lam, _TINY)) - log(max(math.sin(s), _TINY)) / c


def _kanter_integral(lam: float, x: float, density: bool) -> float:
    """(1/pi) * integral_0^pi g(h(u)) du, h(u) = a(u) x^(-lam/(1-lam)), with
    g = h exp(-h) for the density (times lam/((1-lam) x)) and
    g = 1 - exp(-h) for the survival function: Kanter's representation
    gives P(Z <= x) = E[exp(-h(U))]. g >= 0, so no sum cancels.

    Each half of (0, pi), measured from its own end, is halved into panels
    until 16-point Gauss-Legendre sums each to rounding: log h changes
    across it by at most _STEEP / max(1, h) and, mirrored, where log a is
    singular at 0, it spans at most a factor 2. h rises on (0, pi), so g is
    monotone on a panel that does not hold the root of h = 1 and lies
    between its end values; such a panel is summed by its ends if they
    differ by under 2^-61 of the sum so far. The panel with the root, or
    else the largest g, is taken first, so that sum is soon near its end.
    """
    c = 1.0 - lam
    shift = lam / c * math.log(x)

    def g(log_h: float) -> float:
        return math.exp(log_h - math.exp(log_h)) if density else -math.expm1(-math.exp(log_h))

    def log_h(s: float, mirrored: bool) -> float:
        return min(_log_a(lam, s, mirrored) - shift, 700.0)  # exp(700) is finite

    def rank(panel: tuple) -> float:
        _, _, la, _, lb = panel
        return 1.0 if (la < 0.0) != (lb < 0.0) else max(g(la), g(lb))

    # log h at s = 0: log((1-lam) lam^(lam/(1-lam))) - shift as u -> 0, +inf as u -> pi
    start = min(math.log(c) + lam / c * math.log(lam) - shift, 700.0)
    panels = sorted(((m, 0.0, end, _HALF_PI, log_h(_HALF_PI, m)) for m, end in ((False, start), (True, 700.0))), key=rank)
    total = 0.0
    while panels:
        mirrored, a, la, b, lb = panels.pop()
        mid, half, ga, gb = 0.5 * (a + b), 0.5 * (b - a), g(la), g(lb)
        monotone = (la < 0.0) == (lb < 0.0)
        if not a < mid < b or monotone and half * abs(ga - gb) <= 2.0**-61 * total:
            total += half * (ga + gb)
        elif abs(la - lb) * max(1.0, math.exp(max(la, lb))) <= _STEEP and not (mirrored and b > 2.0 * a):
            total += half * math.fsum(w * g(log_h(mid + half * z, mirrored)) for z, w in _GAUSS)
        else:
            lm = log_h(mid, mirrored)
            panels += sorted([(mirrored, a, la, mid, lm), (mirrored, mid, lm, b, lb)], key=rank)
    if density:
        return total * (lam / (c * math.pi)) / x
    return min(total / math.pi, 1.0)


def _check_x(x: float) -> float:
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive and finite, got {x!r}")
    return x


def stable_density_series(lam: float, x: float) -> float:
    """Density of P(lam) at x > 0, by Kanter's integral (see
    _kanter_integral): never negative, and within about 1e-13 relative
    for lam <= 0.999 wherever it does not underflow. Nearer 1 the error
    grows about like 1e-16/(1 - lam), as the density's sensitivity to x."""
    return _kanter_integral(_check_lambda(lam, allow_one=False), _check_x(x), density=True)


def stable_survival_series(lam: float, x: float) -> float:
    """P(Z > x) for Z ~ P(lam), by Kanter's integral; always in [0, 1]."""
    return _kanter_integral(_check_lambda(lam, allow_one=False), _check_x(x), density=False)


def stable_density_half(x: float) -> float:
    """Closed form at lam = 1/2: f(x) = x^(-3/2) exp(-1/(4x)) / (2 sqrt(pi))."""
    x = _check_x(x)
    return 0.5 / math.sqrt(math.pi) * x**-1.5 * math.exp(-0.25 / x)
