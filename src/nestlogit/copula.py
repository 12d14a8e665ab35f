"""Correlation of Frechet margins coupled by a Gumbel copula.

For delta_1, delta_2 with Frechet(alpha) margins, CDF exp(-x^(-alpha)),
joined by the Gumbel copula with generator exponent 1/lambda, the Pearson
correlation has the closed form

    rho = [G(1-2/a) G(1-lam/a)^2 / G(1-2*lam/a) - G(1-1/a)^2]
          / [G(1-2/a) - G(1-1/a)^2],        G = Gamma, a = alpha,

valid for alpha > 2 (finite variance). At lambda = 1 the copula is the
independence copula and rho is exactly 0; the formula's numerator cancels
identically there, and the implementation returns 0.0 without rounding
residue. Both brackets shrink like alpha^-2, so past alpha = 16 the Gamma
values would cancel to an error of eps * alpha^2; frechet_corr sums the
Gumbel cumulant series there instead (see its docstring).

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

from .distributions import _check_lambda
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
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    if need_variance and alpha <= 2.0:
        raise DomainError(
            f"correlation requires alpha > 2 (finite variance), got {alpha!r}"
        )
    return alpha, _check_lambda(lam, allow_one=True)


# zeta(2), ..., zeta(30): log Gamma(1 - t), the cumulant generating function
# of the standard Gumbel law, is gamma*t + sum_{k>=2} zeta(k) t^k / k.
_ZETA = (
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
    1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
    1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
    1.000003817293265, 1.0000019082127165, 1.0000009539620338, 1.0000004769329869,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334, 1.0000000018626598,
    1.0000000009313275,
)

# Where frechet_corr switches to the series, whose terms fall like (2/alpha)^k.
_SERIES_ALPHA = 16.0


def frechet_corr(alpha: float, lam: float) -> float:
    """Closed-form correlation of the Gumbel-coupled Frechet pair.

    For alpha >= 16 the log of each Gamma ratio is expanded in cumulants,
    rho = expm1(A)/expm1(B) with the nonnegative sums

        A = sum_{k>=2} zeta(k) (2^k - 2) (1 - lam^k) / (k alpha^k),
        B = sum_{k>=2} zeta(k) (2^k - 2) / (k alpha^k),

    so no digits cancel however large alpha is; the limit is 1 - lam^2.
    """
    alpha, lam = _check_alpha_lambda(alpha, lam, need_variance=True)
    if lam == 1.0:
        return 0.0
    if alpha >= _SERIES_ALPHA:
        # a = A * alpha^2 and b = B * alpha^2, summed from the largest term.
        x = 1.0 / alpha
        a = b = 0.0
        for k, zeta in enumerate(_ZETA, start=2):
            term = zeta * (2.0**k - 2.0) / k * x ** (k - 2)
            a += term * -math.expm1(k * math.log(lam))
            b += term
        # Below x = 1e-8, expm1(x^2 a)/expm1(x^2 b) is a/b to double precision
        # (and x^2 would underflow for alpha past 1e154).
        return math.expm1(x * x * a) / math.expm1(x * x * b) if x > 1e-8 else a / b
    g = math.gamma
    second = g(1.0 - 2.0 / alpha)
    first = g(1.0 - 1.0 / alpha)
    cross = second * g(1.0 - lam / alpha) ** 2 / g(1.0 - 2.0 * lam / alpha)
    return (cross - first**2) / (second - first**2)


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
