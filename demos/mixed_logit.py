"""
Nested logit as a mixed logit
=============================

On any nest tree the nested logit is a logit with random intercepts:
conditional on the positive stable factors of the nests, each leaf's
noise is a Gumbel of scale Lambda_j, and one extra stable factor per leaf
equalizes those scales to the smallest one. Conditional on all factors
the choice probabilities are then a softmax, and averaging softmaxes
over factor draws recovers the nested probabilities without bias. The
demo runs it on the single-layer example, whose nests carry different
lambdas.
"""

from pathlib import Path

from nestlogit import SeededStream, choice_probs, load_model, mixed_logit_probs

model = load_model(Path(__file__).parent / "models" / "single_layer.json")
exact = choice_probs(model)

print("exact:", {leaf: round(p, 6) for leaf, p in exact.items()})
print()
print("draws    P(1) estimate        P(3) estimate")
for k in (100, 1_000, 10_000, 100_000):
    est = mixed_logit_probs(model, SeededStream(123), k)
    print(
        f"{k:6d}   {est['1'].value:.6f} +- {est['1'].std_error:.6f}"
        f"  {est['3'].value:.6f} +- {est['3'].std_error:.6f}"
    )
print()
print("exact    {:.6f}             {:.6f}".format(exact["1"], exact["3"]))
