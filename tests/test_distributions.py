"""Gumbel and positive stable primitives against independent oracles.

Frozen constants below were produced by the stated closed forms (gamma
ratios, the Levy density at lambda = 1/2) evaluated separately, or by the
independent evaluations named where they appear; scipy distributions
serve as the reference side of the KS checks.
"""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from nestlogit import (
    DomainError,
    EULER_GAMMA,
    SeededStream,
    eta_moments,
    gumbel_sample,
    stable_density_half,
    stable_density_series,
    stable_log_sample,
    stable_moment,
    stable_sample,
    stable_survival_series,
)
from nestlogit.distributions import _kanter_draws, _kanter_eta, _kanter_log
from nestlogit.montecarlo import mean_with_error

KS_1PCT = 1.63  # asymptotic 1% critical coefficient, D_crit = 1.63/sqrt(n)


def test_euler_gamma_literal_is_numpys():
    # distributions spells the constant out so that it loads without numpy
    assert EULER_GAMMA == float(np.euler_gamma)


# ---------------------------------------------------------------------------
# Gumbel
# ---------------------------------------------------------------------------

def test_gumbel_sample_matches_scipy():
    draws = gumbel_sample(SeededStream(1), size=20_000)
    d, _ = stats.kstest(draws, stats.gumbel_r.cdf)
    assert d < KS_1PCT / math.sqrt(20_000)


# ---------------------------------------------------------------------------
# Stable sampling
# ---------------------------------------------------------------------------

def test_stable_sample_levy_half():
    # P(1/2) is Levy with scale 1/2 (Z = 1/(2 N^2) for N standard normal)
    draws = stable_sample(SeededStream(4), 0.5, size=50_000)
    d, _ = stats.kstest(draws, stats.levy(scale=0.5).cdf)
    assert d < KS_1PCT / math.sqrt(50_000)


def kanter_one_row(rng, lam, n):
    """Kanter's eta = lam * log Z for one lambda, written with ordinary
    temporaries: each log sin x as log 2 - log(t + 1/t), t = tan(x/2),
    with the three log 2 left out, since their weights sum to 0. The
    larger weight's half-angle is replaced by its supplement's where that
    is smaller."""
    tiny = np.finfo(float).tiny
    half = np.clip(rng.uniform(0.0, math.pi, n), 1e-12, math.pi - 1e-12) * 0.5
    e = np.maximum(rng.standard_exponential(n), tiny)
    lo, hi = min(lam, 1.0 - lam), max(lam, 1.0 - lam)
    small = np.maximum(lo * half, tiny)
    big = np.minimum(hi * half, math.pi / 2 - half + 6.123233995736766e-17 + small)

    def log_tan_sum(x):
        t = np.tan(x)
        return np.log(t + 1.0 / t)

    return log_tan_sum(half) - (hi * log_tan_sum(big) + (1.0 - lam) * np.log(e) + lo * log_tan_sum(small))


@pytest.mark.parametrize("m", [1, 5, 1000])
def test_kanter_block_equals_one_row_calls(m):
    # Row r of a block is, bit for bit, a one-row draw that continues the
    # same generator: the block changes the arithmetic's layout only.
    lams = [0.01, 0.3, 0.5, 0.5, 0.9, 0.999]
    block = _kanter_log(SeededStream(9).rng, lams, m)
    rng = SeededStream(9).rng
    assert np.array_equal(block, [kanter_one_row(rng, lam, m) for lam in lams])
    assert np.array_equal(stable_log_sample(SeededStream(9), 0.01, size=m), block[0] / 0.01)
    # The draw half and the arithmetic half: the arithmetic on some rows
    # of a drawn block gives those rows, the same bits.
    keep = np.array([False, True, False, False, True, False])
    masked = SeededStream(9).rng
    h, e = _kanter_draws(masked, len(lams), m)
    assert np.array_equal(_kanter_eta(np.array(lams)[keep], h[keep], e[keep]), block[keep])
    assert masked.random() == rng.random()


class FixedDraws:
    """A generator stand-in: every random() and standard_exponential()
    call fills its out array from the same fixed values."""

    def __init__(self, uniforms, exponentials):
        self.uniforms, self.exponentials = uniforms, exponentials

    def random(self, out):
        out[:] = self.uniforms

    def standard_exponential(self, out):
        out[:] = self.exponentials


def kanter_eta_mp(lam, u, e):
    """(1 - lam) * (log a(u) - log e) at 50 digits, a as in _kanter_log,
    for the float angle u and exponential e."""
    with mpmath.workdps(50):
        lam, u, c = mpmath.mpf(lam), mpmath.mpf(u), 1 - mpmath.mpf(lam)
        log_sin = lambda x: mpmath.log(mpmath.sin(x))
        log_a = log_sin(c * u) + lam / c * log_sin(lam * u) - log_sin(u) / c
        return c * (log_a - mpmath.log(mpmath.mpf(e)))


# Uniforms from both ends of (0, 1), where U or pi - U is tiny (2^-40 is
# clipped to the angle 1e-12), and exponentials from tiny to large.
ORACLE_UNIFORMS = [2**-40, 1e-9, 1e-4, 0.01, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 0.99, 0.999, 1 - 2**-20, 1 - 2**-40]
ORACLE_EXPONENTIALS = [1e-8, 0.01, 0.3, 1.0, 2.5, 7.0, 30.0]


@pytest.mark.parametrize("lam", [1e-8, 0.01, 0.3, 0.5, 0.9, 0.999])
def test_kanter_against_mpmath(lam):
    # Every (uniform, exponential) pair, held to 3e-14 absolute against
    # the formula evaluated at the float angle the kernel uses.
    v = np.tile(ORACLE_UNIFORMS, len(ORACLE_EXPONENTIALS))
    e = np.repeat(ORACLE_EXPONENTIALS, len(ORACLE_UNIFORMS))
    eta = _kanter_log(FixedDraws(v, e), [lam], len(v))[0]
    angles = np.clip(v * math.pi, 1e-12, math.pi - 1e-12)
    errors = [abs(float(kanter_eta_mp(lam, u, x) - mpmath.mpf(y))) for u, x, y in zip(angles, e, eta)]
    assert max(errors) < 3e-14, (max(errors), v[np.argmax(errors)], e[np.argmax(errors)])


def test_stable_sample_degenerate_at_one():
    draws = stable_sample(SeededStream(5), 1.0, size=100)
    assert np.all(draws == 1.0)
    assert np.all(stable_log_sample(SeededStream(5), 1.0, size=100) == 0.0)


@pytest.mark.parametrize("lam,t", [(0.3, 0.5), (0.5, 1.0), (0.7, 2.0)])
def test_laplace_transform(lam, t):
    draws = stable_sample(SeededStream(7).child(int(10 * lam)), lam, size=200_000)
    values = np.exp(-t * draws)
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - math.exp(-(t**lam))) < 4.0 * se


def test_theorem_gumbel_plus_log_stable():
    # eps + log Z ~ G(0, 1/lambda): KS against exp(-exp(-lambda x))
    lam = 0.5
    stream = SeededStream(8)
    draws = gumbel_sample(stream, size=100_000) + stable_log_sample(stream, lam, size=100_000)
    d, _ = stats.kstest(draws, lambda x: np.exp(-np.exp(-lam * x)))
    assert d < KS_1PCT / math.sqrt(100_000)


def test_plus_stability():
    # (a1 Z1 + a2 Z2 + a3 Z3) / (sum a_i^lam)^(1/lam) ~ P(lam)
    lam = 0.5
    alphas = (1.0, 2.0, 3.0)
    stream = SeededStream(9)
    parts = [a * stable_sample(stream, lam, size=200_000) for a in alphas]
    scale = sum(a**lam for a in alphas) ** (1.0 / lam)
    w = sum(parts) / scale
    for t in (0.5, 1.0, 2.0):
        values = np.exp(-t * w)
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - math.exp(-(t**lam))) < 4.0 * se


@pytest.mark.parametrize("lam", [0.5, 0.1])
def test_max_stability_of_eta(lam):
    # lam*log(sum_j exp((u_j + eta_j)/lam)) ~ log(sum_j exp(u_j)) + eta
    u = np.array([0.0, 1.0])
    n = 100_000
    stream = SeededStream(10)
    eta = lam * np.stack(
        [stable_log_sample(stream, lam, size=n) for _ in u], axis=1
    )
    lhs = lam * np.log(np.exp((u + eta) / lam).sum(axis=1))
    rhs = math.log(np.exp(u).sum()) + lam * stable_log_sample(stream, lam, size=n)
    d, _ = stats.ks_2samp(lhs, rhs)
    assert d < KS_1PCT * math.sqrt(2.0 / n)


def stable_product_check(stream, lam1, lam2, n_draws):
    """Monte Carlo check of the composition law Z1 * Z2^(1/lam1) ~ P(lam1*lam2).

    Draws the product W and returns the estimated Laplace transform at 1,
    E[exp(-W)], whose exact value is exp(-1) whenever the law holds.
    """
    log_z1 = stable_log_sample(stream, lam1, size=n_draws)
    log_z2 = stable_log_sample(stream, lam2, size=n_draws)
    log_w = log_z1 + log_z2 / lam1
    return mean_with_error(np.exp(-np.exp(log_w)))


def test_product_law():
    est = stable_product_check(SeededStream(11), 0.5, 0.6, 50_000)
    assert abs(est.value - math.exp(-1.0)) < 4.0 * est.std_error


# ---------------------------------------------------------------------------
# Moments and the eta link variable
# ---------------------------------------------------------------------------

def test_stable_moment_frozen():
    # Gamma(1/2)/Gamma(3/4) and Gamma(3/4)/Gamma(7/8)
    assert_allclose(stable_moment(0.5, 0.25), 1.4464090846320785, rtol=1e-14)
    assert_allclose(stable_moment(0.5, 0.125), 1.1245941828303596, rtol=1e-14)


def test_stable_moment_domain():
    for lam, kappa in [(0.5, 0.5), (0.5, 0.6), (0.5, 0.0), (0.5, -0.1)]:
        with pytest.raises(DomainError):
            stable_moment(lam, kappa)
    with pytest.raises(DomainError):
        stable_moment(1.2, 0.1)


def test_stable_moment_monte_carlo():
    draws = stable_sample(SeededStream(12), 0.5, size=200_000)
    values = draws**0.125
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - stable_moment(0.5, 0.125)) < 4.0 * se


def test_eta_moments_frozen():
    mean, var = eta_moments(0.5)
    assert_allclose(mean, 0.5 * EULER_GAMMA, rtol=1e-15)
    assert_allclose(var, 0.75 * math.pi**2 / 6.0, rtol=1e-15)
    mean, var = eta_moments(0.9)
    assert_allclose(mean, 0.057721566490153274, rtol=1e-12)
    assert_allclose(var, 0.3125374727011629, rtol=1e-12)
    assert eta_moments(1.0) == (0.0, 0.0)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
def test_eta_moments_monte_carlo(lam):
    # 1% relative agreement of empirical mean/variance at 10^6 draws
    eta = lam * stable_log_sample(SeededStream(13).child(int(10 * lam)), lam, size=1_000_000)
    mean, var = eta_moments(lam)
    assert abs(eta.mean() - mean) / mean < 0.01
    assert abs(eta.var(ddof=1) - var) / var < 0.01


def test_eta_mgf():
    # E[exp(t*eta)] = E[Z^(lam*t)], the fractional moment: at lam = t = 1/2
    # it is stable_moment(0.5, 0.25) = Gamma(1/2)/Gamma(3/4).
    eta = 0.5 * stable_log_sample(SeededStream(14), 0.5, size=200_000)
    values = np.exp(0.5 * eta)
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - stable_moment(0.5, 0.25)) < 4.0 * se


# ---------------------------------------------------------------------------
# Density and survival by Kanter's integral
# ---------------------------------------------------------------------------

# closed form x^(-3/2) exp(-1/(4x)) / (2 sqrt(pi))
HALF_DENSITY = {
    0.25: 0.8302149948411894,
    0.5: 0.48394144903828673,
    1.0: 0.2196956447338612,
    2.0: 0.08801633169107488,
    4.0: 0.03312544154300357,
    8.0: 0.012083378650089039,
}
HALF_GRID = np.logspace(-2.0, 4.0, 25)  # x in [0.01, 1e4]

# (lambda, x) -> density, recorded with mpmath (a test-only dependency)
# as the alternating series summed in 60-digit arithmetic. The lambda =
# 0.999 value, where that series converges slowly, agrees to 1e-15 with
# mpmath's 40-digit quadrature of Kanter's integral split at its peak.
MPMATH_DENSITY = {
    (1e-3, 5.0): 7.3575772873531957e-5,
    (1e-6, 3.0): 1.2262648039040943e-7,
    (0.01, 1.0): 0.0036790355536464259,
    (0.999, 1.0): 23.384653646353642,
}


@pytest.mark.parametrize("x,expected", sorted(HALF_DENSITY.items()))
def test_density_half_closed_form(x, expected):
    assert_allclose(stable_density_half(x), expected, rtol=1e-14)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_density_series_vs_closed_form(x):
    series = stable_density_series(0.5, x)
    closed = stable_density_half(x)
    assert abs(series - closed) / closed < 1e-8


def test_density_half_log_grid():
    # the far left tail too, where an alternating series cancels to noise
    density = [stable_density_series(0.5, x) for x in HALF_GRID]
    assert_allclose(density, [stable_density_half(x) for x in HALF_GRID], rtol=1e-13, atol=0.0)


def test_survival_half_log_grid():
    survival = [stable_survival_series(0.5, x) for x in HALF_GRID]
    assert_allclose(survival, stats.levy(scale=0.5).sf(HALF_GRID), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("lam,x", sorted(MPMATH_DENSITY))
def test_density_against_mpmath(lam, x):
    assert_allclose(stable_density_series(lam, x), MPMATH_DENSITY[lam, x], rtol=1e-12)


def test_density_deep_left_tail():
    # bench/reference.json: scipy.integrate.quad on Kanter's integral at
    # epsrel 1e-13, where the series stops converging
    assert_allclose(stable_density_series(0.7, 0.05), 7.525528056714139e-60, rtol=1e-8)


@pytest.mark.parametrize("lam", [0.9, 0.999])
def test_density_far_right_tail(lam):
    # Three leading terms of the series, which converges fast out here.
    # The peak of Kanter's integrand sits within 3e-9 of pi at lam = 0.999,
    # so this fails if u near pi is not measured from pi.
    x = 1e6
    series = sum(
        (-1) ** (k + 1) / math.factorial(k) * math.sin(k * math.pi * lam) * math.gamma(lam * k + 1) * x ** (-lam * k - 1)
        for k in (1, 2, 3)
    ) / math.pi
    assert_allclose(stable_density_series(lam, x), series, rtol=1e-11)


def test_density_series_other_lambda():
    # sanity at lambda = 0.7: positive, finite, decays in the far tail
    f1 = stable_density_series(0.7, 1.0)
    f8 = stable_density_series(0.7, 8.0)
    assert f1 > f8 > 0.0


def test_survival_series_vs_levy():
    for x in (0.5, 1.0, 4.0, 20.0):
        s = stable_survival_series(0.5, x)
        assert_allclose(s, stats.levy(scale=0.5).sf(x), rtol=1e-10)


@pytest.mark.parametrize("lam", [1e-6, 0.5, 1.0 - 1e-10])
@pytest.mark.parametrize("x", [1e-300, 1e300])
def test_density_and_survival_stay_in_range(lam, x):
    # Rounding can carry the survival sum an ulp past 1 where the
    # integrand is 1 throughout; the result is clamped to [0, 1].
    assert stable_density_series(lam, x) >= 0.0
    assert 0.0 <= stable_survival_series(lam, x) <= 1.0


def test_series_domain():
    with pytest.raises(DomainError):
        stable_density_series(1.0, 1.0)  # no density at the point mass
    with pytest.raises(DomainError):
        stable_density_series(0.5, 0.0)
    with pytest.raises(DomainError):
        stable_density_series(0.5, math.inf)
    with pytest.raises(DomainError):
        stable_survival_series(0.5, -1.0)
    with pytest.raises(DomainError):
        stable_density_half(0.0)


@pytest.mark.parametrize("lam", [0.0, -0.2, 1.0001, float("nan")])
def test_sampler_lambda_domain(lam):
    with pytest.raises(DomainError):
        stable_sample(SeededStream(0), lam, size=2)
