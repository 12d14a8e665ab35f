"""The analytic passes against a 60-digit decimal oracle.

The oracle re-runs the backward and forward recursions in the stdlib
decimal module, over the tree's description (children and lambda by id)
rather than its compiled slots, with Lambda the exact product of the
lambdas on the root path. Its own error is far below anything a double
can show, so its digits stand for the exact values of the model.

choice_probs is held, wherever the exact probability p is a normal double,
to the relative error

    PROB_C * eps * (1 + |log p|) * (height + 1),

since each level's softmax weight carries a relative error in Lambda and
in the inclusive values into log p. Below the normal range a float 0.0
is allowed only where p is under 2**-1075, the point below which p
rounds to 0, and the absolute error is held to SUBNORMAL_ULPS * 2**-1074.
backward_utils is held to the absolute error
UTIL_C * eps * (height + 1) * (1 + max_j |U_j|).

Measured worst cases: the relative ratio reads 18.4 over the 200 random
300-node trees, 4.0 on the 1,314-leaf wide tree, 0.10 on depth3 and
0.002 on the 3,000-nest chain; the subnormal error reads 207 ulps on the
random trees and 45 on the wide tree; the backward_utils ratio reads 0.13.
depth3 with both nests at lambda 1e-160 is left out: a subnormal
inclusive value there costs its leaves 8.7e-6 of probability, an open
defect of the forward pass.
"""

import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from pathlib import Path

import numpy as np
import pytest

from nestlogit import backward_utils, build, choice_probs, load_model, make_model, random_model

PROB_C = 32
SUBNORMAL_ULPS = 512
UTIL_C = 1

CTX = Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)
EPS = sys.float_info.epsilon
MIN_NORMAL = Decimal(2) ** -1022
SUBNORMAL_ULP = Decimal(2) ** -1074
DEPTH3 = Path(__file__).resolve().parents[1] / "demos" / "models" / "depth3.json"


def exact_passes(model):
    """(u, log_p): the inclusive value of every node and the log choice
    probability of every node, each a 60-digit Decimal, by id."""
    tree = model.tree
    big_lam = {tree.root: Decimal(1)}
    for nest in tree.nests:  # preorder: a parent's Lambda comes first
        for kid in tree.children[nest]:
            if tree.is_nest(kid):
                big_lam[kid] = CTX.multiply(big_lam[nest], Decimal(tree.lam[kid]))
    u = {leaf: Decimal(model.utilities[leaf]) for leaf in tree.leaves}
    for nest in reversed(tree.nests):  # every child nest before its parent
        values = [u[kid] for kid in tree.children[nest]]
        top = max(values)
        total = sum((CTX.exp(CTX.divide(x - top, big_lam[nest])) for x in values), Decimal(0))
        u[nest] = CTX.add(top, CTX.multiply(big_lam[nest], CTX.ln(total)))
    log_p = {tree.root: Decimal(0)}
    for nest in tree.nests:
        for kid in tree.children[nest]:
            log_p[kid] = CTX.add(log_p[nest], CTX.divide(CTX.subtract(u[kid], u[nest]), big_lam[nest]))
    return u, log_p


def oracle_misses(model):
    """Worst ratio of each error to its bound: (normal probabilities,
    subnormal probabilities, inclusive values); the leaves that read 0.0
    where the exact probability is at least 2**-1075; and the kinds of
    leaf seen, (reads 0.0, exact is normal)."""
    tree = model.tree
    height = max(tree.depth)
    u, log_p = exact_passes(model)
    got = choice_probs(model)
    normal = subnormal = 0.0
    false_zeros, kinds = [], set()
    for leaf in tree.leaves:
        exact = CTX.exp(log_p[leaf])
        kinds.add((got[leaf] == 0.0, exact >= MIN_NORMAL))
        err = abs(Decimal(got[leaf]) - exact)
        if exact >= MIN_NORMAL:
            bound = EPS * (1.0 + abs(float(log_p[leaf]))) * (height + 1)
            normal = max(normal, float(err / exact) / bound)
        else:
            subnormal = max(subnormal, float(err / SUBNORMAL_ULP))
            if got[leaf] == 0.0 and exact >= SUBNORMAL_ULP / 2:
                false_zeros.append(leaf)
    scale = EPS * (height + 1) * (1.0 + max(abs(x) for x in model.utilities.values()))
    values = backward_utils(model)
    inclusive = max(float(abs(Decimal(values[node]) - u[node])) / scale for node in u)
    return [normal, subnormal, inclusive], false_zeros, kinds


def chain_model():
    n = 3000
    children = {f"n{i}": (f"n{i + 1}", f"x{i}") for i in range(n - 1)}
    children[f"n{n - 1}"] = ("end", f"x{n - 1}")
    tree = build("n0", children, {f"n{i}": 0.999 for i in range(1, n)})
    return make_model(tree, {leaf: 0.01 * (i % 7) for i, leaf in enumerate(tree.leaves)})


MODELS = {
    "random-300": lambda: [random_model(np.random.default_rng(seed), max_nodes=300) for seed in range(200)],
    "wide": lambda: [random_model(np.random.default_rng(0), max_nodes=2000)],
    "depth3": lambda: [load_model(DEPTH3)],
    "chain-3000": lambda: [chain_model()],
}


@pytest.mark.parametrize("name", MODELS)
def test_analytic_passes_match_the_decimal_oracle(name):
    worst, seen = [0.0, 0.0, 0.0], set()
    for model in MODELS[name]():
        misses, false_zeros, kinds = oracle_misses(model)
        assert false_zeros == []
        worst = [max(w, m) for w, m in zip(worst, misses)]
        seen |= kinds
    assert worst[0] <= PROB_C
    assert worst[1] <= SUBNORMAL_ULPS
    assert worst[2] <= UTIL_C
    if name == "random-300":  # leaves of every kind the bounds tell apart
        assert seen == {(False, True), (False, False), (True, False)}
