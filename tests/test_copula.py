"""Gumbel-coupled Frechet pair: closed-form correlation and its simulator.

The two pinned correlations were evaluated from the gamma-ratio formula
in 50-digit arithmetic and rounded to double. The grids are checked
against the same formula in 60-digit mpmath arithmetic: absolutely in the
gamma form, and relatively in its loggamma/expm1 form, whose working
precision grows with log10(alpha) so that 1 - s/alpha keeps its digits.
"""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from nestlogit import (
    DomainError,
    SeededStream,
    build,
    frechet_corr,
    frechet_pair_sample,
    gumbel_sample,
    make_model,
    mc_frechet_corr,
    sample_epsilon,
    stable_log_sample,
)
from nestlogit.copula import _LIMIT_ALPHA
from nestlogit.montecarlo import CHUNK_SIZE, correlation_with_error

CORR_3_HALF = 0.8128652223619095  # alpha=3, lambda=0.5
CORR_5_HALF = 0.7871109126266524  # alpha=5, lambda=0.5


def test_frechet_corr_frozen():
    assert_allclose(frechet_corr(3.0, 0.5), CORR_3_HALF, rtol=1e-13)
    assert_allclose(frechet_corr(5.0, 0.5), CORR_5_HALF, rtol=1e-13)


def test_frechet_corr_limits():
    for alpha in (math.nextafter(2.0, 3.0), 3.0, 1e17, 1e300):
        assert frechet_corr(alpha, 1.0) == 0.0
    assert frechet_corr(5.0, 1e-9) == pytest.approx(1.0, abs=1e-6)


def _frechet_corr_mp(alpha, lam):
    with mpmath.workdps(60):
        a, lam = mpmath.mpf(alpha), mpmath.mpf(lam)
        g = mpmath.gamma
        second, first = g(1 - 2 / a), g(1 - 1 / a)
        cross = second * g(1 - lam / a) ** 2 / g(1 - 2 * lam / a)
        return float((cross - first**2) / (second - first**2))


def _frechet_corr_log_mp(alpha, lam):
    # rho = expm1(f(lam) - f(1)) / expm1(f(0) - f(1)),
    # f(s) = 2 log Gamma(1 - s/alpha) - log Gamma(1 - 2s/alpha).
    with mpmath.workdps(60 + 2 * max(0, math.ceil(math.log10(alpha)))):
        a, lam = mpmath.mpf(alpha), mpmath.mpf(lam)
        f = lambda s: 2 * mpmath.loggamma(1 - s / a) - mpmath.loggamma(1 - 2 * s / a)
        return float(mpmath.expm1(f(lam) - f(1)) / mpmath.expm1(f(0) - f(1)))


RELATIVE_ALPHAS = [math.nextafter(2.0, 3.0), 2 + 1e-9, 2 + 1e-6, 2.001, 3.0, 6.0, 16.0, 1e3, 1e6, 1e15, 1e100]
RELATIVE_LAMBDAS = [5e-324, 1e-300, 1e-12, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-10, 1 - 1e-14, 1 - 2**-53]


@pytest.mark.parametrize("alpha", RELATIVE_ALPHAS)
def test_frechet_corr_relative_to_mpmath(alpha):
    # From the edge of finite variance to the limit, and from a subnormal
    # lambda to the last float below 1, where rho is about 4e-16.
    for lam in RELATIVE_LAMBDAS:
        exact = _frechet_corr_log_mp(alpha, lam)
        assert abs(frechet_corr(alpha, lam) - exact) <= 1e-13 * exact, (alpha, lam)


@pytest.mark.parametrize("lam", [5e-324, 0.5, 1 - 2**-53])
def test_frechet_corr_limit_at_the_threshold(lam):
    # At the threshold and past it frechet_corr returns (1 - lam)(1 + lam);
    # the float below it still integrates, and the two meet to rounding.
    limit = (1.0 - lam) * (1.0 + lam)
    assert frechet_corr(_LIMIT_ALPHA, lam) == limit
    assert frechet_corr(math.nextafter(_LIMIT_ALPHA, math.inf), lam) == limit
    below = math.nextafter(_LIMIT_ALPHA, 0.0)
    exact = _frechet_corr_log_mp(below, lam)
    assert abs(frechet_corr(below, lam) - exact) <= 1e-13 * exact
    assert abs(limit - exact) <= 1e-13 * exact


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9])
def test_frechet_corr_against_mpmath(lam):
    # An absolute bound on the Gamma form, up to alpha = 1e15, where that
    # form evaluated in doubles keeps no correct digit.
    alphas = [2.2, 3.0, 7.5, 15.9, 16.0, 16.1, 40.0, *np.geomspace(100.0, 1e15, 27)]
    for alpha in alphas:
        assert abs(frechet_corr(alpha, lam) - _frechet_corr_mp(alpha, lam)) < 1e-12, alpha


def test_frechet_corr_huge_alpha():
    # Pinned from 60-digit arithmetic; the limit alpha -> inf is 1 - lambda^2.
    assert abs(frechet_corr(1e9, 0.5) - 0.75000000018269074) < 1e-12
    assert frechet_corr(1e300, 0.5) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("alpha", [2 + 1e-9, 5.0, 1e6])
def test_frechet_corr_decreasing_in_lambda(alpha):
    grid = [*np.linspace(0.02, 0.999, 50), *(1 - 10.0**-k for k in range(4, 16)), 1.0]
    values = [frechet_corr(alpha, lam) for lam in grid]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[0] - values[-1] > 0.9


def test_frechet_corr_domain():
    for alpha, lam in [(2.0, 0.5), (1.5, 0.5), (3.0, 0.0), (3.0, 1.5), (3.0, -0.1)]:
        with pytest.raises(DomainError):
            frechet_corr(alpha, lam)
    for alpha in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="^alpha must be positive and finite, got "):
            frechet_corr(alpha, 0.5)


def test_pair_sample_marginals():
    pairs = frechet_pair_sample(SeededStream(61), 5.0, 0.5, 100_000)
    assert pairs.shape == (100_000, 2)
    assert np.all(pairs > 0.0)
    frechet_cdf = lambda x: np.exp(-x**-5.0)
    for col in range(2):
        d, _ = stats.kstest(pairs[:, col], frechet_cdf)
        assert d < 1.63 / math.sqrt(100_000)


def test_pair_sample_moments():
    # E[delta] = Gamma(1 - 1/alpha), E[delta^2] = Gamma(1 - 2/alpha)
    alpha = 5.0
    pairs = frechet_pair_sample(SeededStream(62), alpha, 0.5, 200_000)
    first = pairs[:, 0]
    for power, expected in [(1, math.gamma(1 - 1 / alpha)), (2, math.gamma(1 - 2 / alpha))]:
        values = first**power
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - expected) < 3.5 * se


def test_pair_sample_copula():
    # joint CDF at a grid point vs the Gumbel copula of parameter 1/lambda
    alpha, lam = 5.0, 0.5
    n = 200_000
    pairs = frechet_pair_sample(SeededStream(63), alpha, lam, n)
    for u, v in [(0.3, 0.6), (0.5, 0.5), (0.8, 0.2)]:
        x = (-math.log(u)) ** (-1 / alpha)  # Frechet quantile at u
        y = (-math.log(v)) ** (-1 / alpha)
        hits = np.mean((pairs[:, 0] <= x) & (pairs[:, 1] <= y))
        copula = math.exp(
            -((-math.log(u)) ** (1 / lam) + (-math.log(v)) ** (1 / lam)) ** lam
        )
        se = math.sqrt(copula * (1 - copula) / n)
        assert abs(hits - copula) < 3.5 * se


def test_pair_sample_independent_at_lambda_one():
    est = mc_frechet_corr(SeededStream(64), 5.0, 1.0, 100_000)
    assert abs(est.value) < 3.5 * est.std_error


def test_mc_matches_closed_form():
    est = mc_frechet_corr(SeededStream(65), 5.0, 0.5, 200_000)
    assert abs(est.value - CORR_5_HALF) < 0.01


@pytest.mark.parametrize("alpha", [1e17, 1e308])
def test_mc_frechet_corr_at_huge_alpha(alpha):
    # exp(eps/alpha) rounds to 1.0 in every draw here; alpha * expm1(eps/alpha)
    # keeps the noise.
    est = mc_frechet_corr(SeededStream(68), alpha, 0.5, 20_000)
    assert math.isfinite(est.value) and math.isfinite(est.std_error)
    assert abs(est.value - frechet_corr(alpha, 0.5)) < 4 * est.std_error


def test_mc_frechet_corr_reads_the_pair_noise():
    # The correlation of alpha * expm1(eps/alpha) over sample_epsilon's
    # columns of two leaves in one lambda-nest, bit for bit.
    alpha, n = 6.0, CHUNK_SIZE + 300
    tree = build("root", {"root": ("n",), "n": ("1", "2")}, {"n": 0.5})
    eps = sample_epsilon(make_model(tree, {"1": 0.0, "2": 0.0}), SeededStream(69), n).draws
    shifted = alpha * np.expm1(eps / alpha)
    expected = correlation_with_error(shifted[:, 0], shifted[:, 1])
    assert mc_frechet_corr(SeededStream(69), alpha, 0.5, n, n_threads=2) == expected


def test_pair_sample_determinism_across_threads():
    serial = frechet_pair_sample(SeededStream(66), 4.0, 0.3, 200_000, n_threads=1)
    threaded = frechet_pair_sample(SeededStream(66), 4.0, 0.3, 200_000, n_threads=4)
    np.testing.assert_array_equal(serial, threaded)


@pytest.mark.parametrize("lam", [0.3, 1.0])
def test_pair_sample_matches_shared_factor_formula(lam):
    # delta_i = exp((lambda/alpha) * (eps'_i + log Z)) rebuilt chunk by
    # chunk from the same substreams: log Z when lambda < 1, then the two
    # Gumbels.
    alpha, n = 4.0, CHUNK_SIZE + 300
    stream = SeededStream(67)
    expected = []
    for i, start in enumerate(range(0, n, CHUNK_SIZE)):
        m = min(start + CHUNK_SIZE, n) - start
        sub = stream.child(i)
        log_z = stable_log_sample(sub, lam, size=m) if lam < 1.0 else 0.0
        eps = np.column_stack([gumbel_sample(sub, size=m), gumbel_sample(sub, size=m)])
        expected.append(np.exp((lam / alpha) * (eps + np.reshape(log_z, (-1, 1)))))
    pairs = frechet_pair_sample(SeededStream(67), alpha, lam, n, n_threads=2)
    assert_allclose(pairs, np.concatenate(expected), rtol=1e-14, atol=0.0)


def test_mc_frechet_corr_domain():
    with pytest.raises(DomainError):
        mc_frechet_corr(SeededStream(0), 2.0, 0.5, 100)  # infinite variance
    for n in (-1, 0, 1, 2, 3):
        with pytest.raises(DomainError, match="^(n_draws must be nonnegative|correlation needs at least 4 draws)$"):
            mc_frechet_corr(SeededStream(0), 5.0, 0.5, n)
    with pytest.raises(DomainError, match="^n_draws must be nonnegative$"):
        frechet_pair_sample(SeededStream(0), 5.0, 0.5, -1)
