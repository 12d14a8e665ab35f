"""
What the noise vector looks like: marginals and correlation
===========================================================

Simulated utility noise on the depth-3 tree. Every leaf's noise is a
standard Gumbel regardless of the tree, and the correlation between two
leaves is 1 - Lambda_lca^2 where Lambda is the product of lambdas down
to their lowest common ancestor; the tree stores it by slot as tree.scale.
"""

import math

import numpy as np

from nestlogit import SeededStream, load_model, sample_epsilon
from nestlogit.tree import lca

from pathlib import Path

model = load_model(Path(__file__).parent / "models" / "depth3.json")
tree = model.tree

batch = sample_epsilon(model, SeededStream(42), 200_000)
eps = batch.draws

# Marginals: mean gamma_E ~ 0.5772, variance pi^2/6 ~ 1.6449, any leaf.
print("leaf    mean      var")
for j, leaf in enumerate(batch.leaf_order):
    print(f"{leaf:6s}  {eps[:, j].mean():.4f}    {eps[:, j].var():.4f}")
print(f"Gumbel  {0.5772:.4f}    {math.pi**2 / 6:.4f}   (exact)")

# Correlation: read Lambda at the LCA off the tree and compare.
print()
print("pair           empirical   1 - Lambda_lca^2")
order = batch.leaf_order
for i in range(len(order)):
    for j in range(i + 1, len(order)):
        a, b = order[i], order[j]
        rho = 1 - tree.scale[tree.slot[lca(tree, a, b)]] ** 2
        emp = np.corrcoef(eps[:, i], eps[:, j])[0, 1]
        print(f"{a}-{b}    {emp: .4f}     {rho:.4f}")
