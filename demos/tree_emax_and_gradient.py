"""
Multilayer trees: inclusive values, Emax and its gradient
=========================================================

A depth-3 tree (a nest inside a nest) evaluated by the backward
log-sum-exp recursion, plus the Daly-Zachary-Williams identity: the
gradient of the Emax in the utilities is the vector of choice
probabilities.
"""

from pathlib import Path

from nestlogit import backward_utils, cdf, choice_probs, emax, load_model
from nestlogit.verify import finite_difference_gradient, gradient_tolerance

model = load_model(Path(__file__).parent / "models" / "depth3.json")

# Backward pass: every nest's inclusive value u_n = Lambda_n * LSE(u_z / Lambda_n).
u = backward_utils(model)
print("node   inclusive value")
for node in model.tree.nests + model.tree.leaves:
    print(f"{node:6s} {u[node]: .15f}")

# The root inclusive value is the Emax net of the Euler constant.
print()
print("emax:", emax(model))

# Choice probabilities against complex-step derivatives of the Emax,
# within the rounding bound worked out from the model.
probs, grad = choice_probs(model), finite_difference_gradient(model)
print()
print("leaf    P(choice)          d emax / d U")
for leaf in model.tree.leaves:
    print(f"{leaf:6s}  {probs[leaf]:.15f}  {grad[leaf]:.15f}")
print("tolerance:", gradient_tolerance(model))

# The joint noise CDF at the origin: with all bounds zero this is
# exp(-exp(-a_root)) for the backward pass run on the negated bounds.
print()
print("P(all noise <= 0):", cdf(model, {leaf: 0.0 for leaf in model.tree.leaves}))
