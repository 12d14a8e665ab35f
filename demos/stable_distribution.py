"""
The positive stable mixing factor P(lambda)
===========================================

P(lambda) is the nonnegative law with Laplace transform exp(-t^lambda).
It has no elementary density except at lambda = 1/2, but it can be
sampled exactly from Kanter's representation, and the same representation
gives its density as an integral of a nonnegative function over an angle.
"""

import math

import numpy as np

from nestlogit import SeededStream
from nestlogit.distributions import (
    stable_density_half,
    stable_density_series,
    stable_moment,
    stable_sample,
)

stream = SeededStream(0)

# Sampling: check the defining Laplace transform by Monte Carlo.
lam = 0.5
z = stable_sample(stream, lam, size=200_000)
print("t     mean exp(-tZ)   exp(-t^lambda)")
for t in (0.25, 0.5, 1.0, 2.0, 4.0):
    print(f"{t:4.2f}  {np.mean(np.exp(-t * z)):.6f}        {math.exp(-t**lam):.6f}")

# Moments: E[Z^kappa] is finite only for kappa < lambda and equals
# Gamma(1 - kappa/lambda) / Gamma(1 - kappa). Keep kappa below lambda/2
# here so Z^kappa also has finite variance and the sample mean settles.
print()
print("kappa  mean Z^kappa   gamma ratio")
for kappa in (0.05, 0.1, 0.2):
    print(f"{kappa:4.2f}   {np.mean(z**kappa):.6f}       {stable_moment(lam, kappa):.6f}")

# Density: Kanter's integral agrees with the lambda = 1/2 closed form
# exp(-1/(4x)) / (2 sqrt(pi) x^{3/2}) to near machine precision, deep in
# the left tail too, where the alternating power series for the density
# cancels to noise (at x = 0.01 it gives -0.203).
print()
print("x     Kanter integral  closed form")
for x in (0.01, 0.25, 0.5, 1.0, 2.0, 4.0):
    print(f"{x:4.2f}  {stable_density_series(0.5, x):.12e}  {stable_density_half(x):.12e}")

# Away from 1/2 there is no closed form; the integral is the density.
print()
print("x     density at lambda = 0.7")
for x in (0.05, 0.5, 1.0, 2.0, 4.0):
    print(f"{x:4.2f}  {stable_density_series(0.7, x):.12e}")
