"""Correlation of Frechet margins coupled by a Gumbel copula.

For delta_1, delta_2 with Frechet(alpha) margins, CDF exp(-x^(-alpha)),
joined by the Gumbel copula with generator exponent 1/lambda, the Pearson
correlation has the closed form

    rho = [G(1-2/a) G(1-lam/a)^2 / G(1-2*lam/a) - G(1-1/a)^2]
          / [G(1-2/a) - G(1-1/a)^2],        G = Gamma, a = alpha,

valid for alpha > 2 (finite variance). At lambda = 1 the copula is the
independence copula and rho is exactly 0; the formula's numerator cancels
identically there, and the implementation returns 0.0 without rounding
residue.

The sampler realizes the pair from one shared positive stable factor:
delta_i = exp((lambda/alpha) * (eps_i + log Z)) with independent standard
Gumbel eps_i and Z ~ P(lambda), which has exactly the margins and copula
above. Times alpha, the exponent is the nested logit noise of two leaves in
one lambda-nest, so sample_epsilon draws it on root -> n(lambda) -> {1, 2}.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import make_model
from .montecarlo import EstimateWithError, correlation_with_error
from .simulate import sample_epsilon
from .streams import SeededStream
from .tree import build

__all__ = ["frechet_corr", "frechet_pair_sample", "mc_frechet_corr"]


def _check_alpha_lambda(alpha: float, lam: float, need_variance: bool) -> tuple[float, float]:
    alpha = float(alpha)
    lam = float(lam)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    if need_variance and alpha <= 2.0:
        raise DomainError(
            f"correlation requires alpha > 2 (finite variance), got {alpha!r}"
        )
    if not math.isfinite(lam) or not 0.0 < lam <= 1.0:
        raise DomainError(f"lambda must lie in (0, 1], got {lam!r}")
    return alpha, lam


def frechet_corr(alpha: float, lam: float) -> float:
    """Closed-form correlation of the Gumbel-coupled Frechet pair."""
    alpha, lam = _check_alpha_lambda(alpha, lam, need_variance=True)
    if lam == 1.0:
        return 0.0
    g = math.gamma
    second = g(1.0 - 2.0 / alpha)
    first = g(1.0 - 1.0 / alpha)
    cross = second * g(1.0 - lam / alpha) ** 2 / g(1.0 - 2.0 * lam / alpha)
    return (cross - first**2) / (second - first**2)


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
    alpha, lam = _check_alpha_lambda(alpha, lam, need_variance=False)
    pair = build("root", {"root": ("n",), "n": ("1", "2")}, {"n": lam})
    batch = sample_epsilon(make_model(pair, {"1": 0.0, "2": 0.0}), stream, n_draws, n_threads=n_threads)
    return np.exp(batch.draws / alpha)


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
    alpha, lam = _check_alpha_lambda(alpha, lam, need_variance=True)
    if n_draws < 4:
        raise DomainError("correlation needs at least 4 draws")
    pairs = frechet_pair_sample(stream, alpha, lam, n_draws, n_threads=n_threads)
    return correlation_with_error(pairs[:, 0], pairs[:, 1])
