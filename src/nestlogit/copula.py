"""Correlation of Frechet margins coupled by a Gumbel copula.

For delta_1, delta_2 with Frechet(alpha) margins, CDF exp(-x^(-alpha)),
joined by the Gumbel copula with generator exponent 1/lambda, the Pearson
correlation has the closed form

    rho = [G(1-2/a) G(1-lam/a)^2 / G(1-2*lam/a) - G(1-1/a)^2]
          / [G(1-2/a) - G(1-1/a)^2],        G = Gamma, a = alpha,

valid for alpha > 2 (finite variance). With f(s) = 2 log G(1 - s/a) -
log G(1 - 2s/a) it is rho = expm1(f(lam) - f(1)) / expm1(f(0) - f(1)), and
frechet_corr takes both differences from one integral with nothing to
cancel (_log_ratio): within 1e-13 relative of 60-digit arithmetic from the
float after alpha = 2 up, at lambda down to 5e-324 and up to 1 - 2^-53,
and exactly 0.0 at lambda = 1, where the copula is the independence one.

The sampler realizes the pair from one shared positive stable factor:
delta_i = exp((lambda/alpha) * (eps_i + log Z)) with independent standard
Gumbel eps_i and Z ~ P(lambda), which has exactly the margins and copula
above. Times alpha, the exponent is the nested logit noise of two leaves in
one lambda-nest, so sample_epsilon draws it on root -> n(lambda) -> {1, 2}.
mc_frechet_corr correlates alpha * (delta_i - 1) = alpha * expm1(eps_i / alpha)
over the rows of draws.T instead, which, unlike delta_i, does not round to
1.0 at huge alpha.
The samplers import numpy and the simulator when called, so the closed
form loads without them.
"""

from __future__ import annotations

import math

from .distributions import _GAUSS, _check_lambda
from .errors import DomainError
from .model import make_model
from .tree import build

TYPE_CHECKING = False  # type checkers read it as True
if TYPE_CHECKING:
    import numpy as np

    from .montecarlo import EstimateWithError
    from .streams import SeededStream

__all__ = ["frechet_corr", "frechet_pair_sample", "mc_frechet_corr"]


def _check_alpha_lambda(alpha: float, lam: float, need_variance: bool) -> tuple[float, float]:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    if need_variance and alpha <= 2.0:
        raise DomainError(
            f"correlation requires alpha > 2 (finite variance), got {alpha!r}"
        )
    return alpha, _check_lambda(lam, allow_one=True)


# From here on frechet_corr returns the limit (1 - lam)(1 + lam): the first
# correction, from the third Gumbel cumulant, is below 0.74/alpha relative,
# far below rounding. The integral alone would hold to about alpha = 1e146,
# where its terms, of order (1 - lam)(t/alpha)^2, go subnormal.
_LIMIT_ALPHA = 1e18


def _log_ratio(alpha: float, lam: float) -> float:
    """f(lam) - f(1), f as in the module docstring, by Malmsten's integral
    for log Gamma (Whittaker & Watson, 12.3): with a = alpha, c = 1 - lam,

        integral_0^inf e^(-(1-2/a) t) (1 - e^(-c t/a))
            * [(1 - e^(-t/a)) + e^(-c t/a) (1 - e^(-lam t/a))] / (t (1 - e^(-t))) dt.

    Every factor is positive and taken through expm1, so nothing cancels
    and nothing overflows. 16-point Gauss-Legendre panels [0, 1], [1, 2],
    [2, 4], ... run until one past the decay length a/(a - 2) adds less
    than 2^-60 of the sum. lam = 0 gives f(0) - f(1)."""
    exp, expm1 = math.exp, math.expm1
    rate, c = (alpha - 2.0) / alpha, 1.0 - lam

    def g(t: float) -> float:
        x = t / alpha
        return exp(-rate * t) * -expm1(-c * x) * (exp(-c * x) * -expm1(-lam * x) - expm1(-x)) / (t * -expm1(-t))

    total, a, b = 0.0, 0.0, 1.0
    while True:
        half = 0.5 * (b - a)
        part = half * math.fsum(w * g(a + half * (1.0 + z)) for z, w in _GAUSS)
        total += part
        if part <= 2.0**-60 * total and a * rate >= 1.0:
            return total
        a, b = b, 2.0 * b


def frechet_corr(alpha: float, lam: float) -> float:
    """Closed-form correlation of the Gumbel-coupled Frechet pair (see the
    module docstring); the limit as alpha grows is 1 - lam^2."""
    alpha, lam = _check_alpha_lambda(alpha, lam, need_variance=True)
    if lam == 1.0:
        return 0.0
    if alpha >= _LIMIT_ALPHA:
        return (1.0 - lam) * (1.0 + lam)
    return math.expm1(_log_ratio(alpha, lam)) / math.expm1(_log_ratio(alpha, 0.0))


def _pair_noise(stream: SeededStream, lam: float, n_draws: int, n_threads: int) -> np.ndarray:
    # Two leaves in one lambda-nest: their noise is the pair's exponent.
    from .simulate import sample_epsilon

    pair = build("root", {"root": ("n",), "n": ("1", "2")}, {"n": lam})
    return sample_epsilon(make_model(pair, {"1": 0.0, "2": 0.0}), stream, n_draws, n_threads).draws


def frechet_pair_sample(
    stream: SeededStream,
    alpha: float,
    lam: float,
    n_draws: int,
    n_threads: int = 1,
) -> np.ndarray:
    """n_draws rows of the coupled pair (delta_1, delta_2).

    Works for any alpha > 0; the margins are Frechet(alpha) regardless of
    lambda, and lambda = 1 degenerates to an independent pair (Z is the
    point mass at 1 and is skipped in sampling).
    """
    import numpy as np

    alpha, lam = _check_alpha_lambda(alpha, lam, need_variance=False)
    return np.exp(_pair_noise(stream, lam, n_draws, n_threads) / alpha)


def mc_frechet_corr(
    stream: SeededStream,
    alpha: float,
    lam: float,
    n_draws: int,
    n_threads: int = 1,
) -> EstimateWithError:
    """Empirical correlation of the sampled pair, for checking
    frechet_corr. Standard error via the normal-theory approximation
    (1 - r^2)/sqrt(n - 3), which understates the noise of these
    heavy-tailed margins near alpha = 2."""
    import numpy as np

    from .montecarlo import correlation_with_error

    alpha, lam = _check_alpha_lambda(alpha, lam, need_variance=True)
    eps = _pair_noise(stream, lam, n_draws, n_threads).T
    shifted = alpha * np.expm1(eps / alpha)
    return correlation_with_error(shifted[0], shifted[1])
