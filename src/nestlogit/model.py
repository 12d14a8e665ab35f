"""Analytic nested logit on a nest tree.

Let Lambda_n be the product of lambda over the nests on the root path of
n, which tree.build stores once by slot as tree.scale. A model is the tree
plus a utility on every leaf. The joint noise CDF is

    Pr(eps_j <= A_j for all j) = exp(-exp(-a_root)),
    a_n = -Lambda_n * log sum_z exp(-a_z / Lambda_n)   over children z,

with a_j = A_j on leaves. Backward induction turns leaf utilities into
inclusive values u_n = Lambda_n * log sum_z exp(u_z / Lambda_n), and the
forward pass splits probability mass down the tree with the within-nest
softmax exp((u_z - u_n)/Lambda_n). All sums of exponentials are max-shifted
and probabilities live in log space until the final exponentiation.
Both passes pass lists by slot; only the public functions key by id.

A leaf map (utilities, overrides, the bounds of cdf and simulate.mc_cdf)
has one check, _leaf_values, whose errors name the keys at fault.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping

from .errors import RootHasNoParentError, UtilityError
from .tree import Arborescence, require_nest, require_two_level, to_float

__all__ = [
    "ModelSpec",
    "make_model",
    "with_utilities",
    "backward_utils",
    "forward_probs",
    "choice_probs",
    "choice_probs_single_layer",
    "cdf",
    "emax",
    "emax_gradient",
    "log_odds",
]


class ModelSpec(namedtuple("ModelSpec", "tree utilities")):
    """A nest tree (an Arborescence) and a finite utility for every leaf
    (a mapping of leaf id to float); an immutable named tuple."""

    __slots__ = ()


def _finite_values(values: Mapping[str, float], what: str) -> dict[str, float]:
    out = {str(k): to_float(v) for k, v in values.items()}
    if bad := [k for k, v in out.items() if not math.isfinite(v)]:
        raise UtilityError(f"non-finite {what} for {sorted(bad)}")
    return out


def _leaf_values(tree: Arborescence, values: Mapping[str, float], what: str) -> dict[str, float]:
    # Finite floats on exactly the leaf set, or a UtilityError naming the leaves.
    out = _finite_values(values, what)
    leaf_set = set(tree.leaves)
    if out.keys() != leaf_set:  # the faults are named only on failure
        if missing := sorted(leaf_set - out.keys()):
            raise UtilityError(f"no {what} for leaves {missing}")
        raise UtilityError(f"{what} given for non-leaves {sorted(out.keys() - leaf_set)}")
    return out


def make_model(tree: Arborescence, utilities: Mapping[str, float]) -> ModelSpec:
    """Bundle tree and utilities after checking the utility map covers
    exactly the leaf set with finite values."""
    return ModelSpec(tree=tree, utilities=_leaf_values(tree, utilities, "utility"))


def with_utilities(model: ModelSpec, overrides: Mapping[str, float]) -> ModelSpec:
    """Copy of the model with some leaf utilities replaced, sharing its tree.
    Only the overrides are converted, so a valid call is O(overrides)."""
    merged = {**model.utilities, **_finite_values(overrides, "utility")}
    if len(merged) != len(model.utilities):  # an override named a non-leaf
        _leaf_values(model.tree, merged, "utility")  # raises, naming each one
    return ModelSpec(tree=model.tree, utilities=merged)


def _backward(tree: Arborescence, leaf_values: list[float]) -> list[float]:
    # u by slot from the leaf values by slot: the value at a leaf, the
    # log-sum-exp of the children at a nest, shifted by their maximum. A
    # two-child nest skips max's and sum's calls: its top term is exp(0.0),
    # exactly 1.0, and a two-term sum is one rounding on every Python, so
    # it gives the general branch's bits. The general branch keeps sum,
    # which is compensated from Python 3.12 on, where a += loop is not.
    kids, scale, exp, log = tree.kids, tree.scale, math.exp, math.log
    v = [0.0] * len(kids) + leaf_values
    for i in range(len(kids) - 1, -1, -1):  # every child nest before its parent
        ks, big_lam = kids[i], scale[i]
        if len(ks) == 2:
            a, b = v[ks[0]], v[ks[1]]
            if a < b:  # the top is the first maximum, as max takes it
                a, b = b, a
            v[i] = a + big_lam * log(1.0 + exp((b - a) / big_lam))
        else:  # a one-child nest too: top + Lambda * 0.0 makes a -0.0 utility 0.0
            top = max(map(v.__getitem__, ks))
            v[i] = top + big_lam * log(sum([exp((v[k] - top) / big_lam) for k in ks]))
    return v


def _by_slot(model: ModelSpec) -> list[float]:
    # the model's leaf utilities in slot order, as _backward takes them
    return list(map(model.utilities.__getitem__, model.tree.leaves))


def backward_utils(model: ModelSpec) -> dict[str, float]:
    """Inclusive values u_n for every node by backward induction.

    Leaves carry their utility; each nest aggregates its children through
    the Lambda-scaled log-sum-exp. The recursion is shift-invariant: a
    constant added to every leaf utility adds the same constant to every
    u_n. A single-child nest passes its child's value through, plus 0.0.
    """
    return {**model.utilities, **dict(zip(model.tree.nests, _backward(model.tree, _by_slot(model))))}


def _log_forward(tree: Arborescence, v: list[float]) -> list[float]:
    # log pi by slot from u by slot: 0 at the root, plus each child's (u_z - u_n)/Lambda_n
    # Nests in slot order, every parent before its children: zip reads
    # log_pi[i] when it reaches nest i, after its parent has written it.
    log_pi = [0.0] * len(v)
    for u_n, base, kids, big_lam in zip(v, log_pi, tree.kids, tree.scale):
        for k in kids:
            log_pi[k] = base + (v[k] - u_n) / big_lam
    return log_pi


def forward_probs(model: ModelSpec, u: Mapping[str, float]) -> dict[str, float]:
    """Node probabilities from the inclusive values of backward_utils.

    pi_root = 1 and each nest splits its mass over children z with weight
    exp((u_z - u_n)/Lambda_n), which is already normalized because u_n is
    the Lambda_n-scaled log-sum of the children. Accumulation happens in
    log space; underflow to zero can only occur when the true probability
    is below the smallest positive double.
    """
    ids = model.tree.nests + model.tree.leaves
    return dict(zip(ids, map(math.exp, _log_forward(model.tree, [u[node] for node in ids]))))


def _leaf_probs(tree: Arborescence, v: list[float]) -> dict[str, float]:
    # choice probabilities from u by slot
    return dict(zip(tree.leaves, map(math.exp, _log_forward(tree, v)[len(tree.kids):])))


def choice_probs(model: ModelSpec) -> dict[str, float]:
    """Leaf choice probabilities (backward pass then forward pass)."""
    return _leaf_probs(model.tree, _backward(model.tree, _by_slot(model)))


def choice_probs_single_layer(model: ModelSpec) -> dict[str, float]:
    """Closed-form choice probabilities for a two-level tree.

    Requires every root child to be a nest and every grandchild a leaf.
    Evaluates, per leaf j in nest n with S_n = sum_j exp(U_j/lambda_n),

        pi_j = S_n^lambda_n / (sum_n' S_n'^lambda_n') * exp(U_j/lambda_n) / S_n

    directly, as an independent route to the same numbers as the general
    backward/forward evaluation.
    """
    tree = model.tree
    nests = require_two_level(tree)

    # Per root child, in order: U_j/lambda_n over its leaves, log S_n and lambda_n log S_n.
    scaled, log_s, log_weight = [], [], []
    for nest in nests:
        lam = tree.lam[nest]
        t = [model.utilities[leaf] / lam for leaf in tree.children[nest]]
        top = max(t)
        scaled.append(t)
        log_s.append(top + math.log(sum(math.exp(v - top) for v in t)))
        log_weight.append(lam * log_s[-1])

    top_w = max(log_weight)
    log_denom = top_w + math.log(sum(math.exp(w - top_w) for w in log_weight))
    return {
        leaf: math.exp(w - log_denom + x - s)
        for nest, t, s, w in zip(nests, scaled, log_s, log_weight)
        for leaf, x in zip(tree.children[nest], t)
    }


def cdf(model: ModelSpec, bounds: Mapping[str, float]) -> float:
    """Joint noise CDF Pr(eps_j <= bounds_j for every leaf j).

    bounds must cover exactly the leaf set. The nest recursion for a_n is
    backward_utils run on the utilities -bounds, with a_n = -u_n; negation
    is exact, so this is bit for bit the recursion written out in a_n.
    """
    tree = model.tree
    checked = _leaf_values(tree, bounds, "bound")
    u_root = _backward(tree, [-checked[leaf] for leaf in tree.leaves])[0]
    try:
        return math.exp(-math.exp(u_root))
    except OverflowError:  # exp(u_root) past float range: exp(-inf) = 0
        return 0.0


def emax(model: ModelSpec, at: str | None = None) -> float:
    """Inclusive value u_at of the subtree rooted at nest ``at``.

    This is the expected maximum of U_j + eps_j over the subtree's leaves
    net of the Euler-Mascheroni constant (the noise marginals are standard,
    uncentered Gumbel, so the raw expected maximum is u_at + gamma_E).
    Defaults to the root, i.e. the model's full Emax.
    """
    target = model.tree.root if at is None else at
    require_nest(model.tree, target)
    return _backward(model.tree, _by_slot(model))[model.tree.slot[target]]


def emax_gradient(model: ModelSpec) -> dict[str, float]:
    """Gradient of the root Emax in the leaf utilities.

    Equals the leaf choice probabilities (the Daly-Zachary-Williams
    identity), so this is forward_probs restricted to leaves.
    """
    return choice_probs(model)


def log_odds(model: ModelSpec, z: str) -> float:
    """Within-nest log odds log(pi_z / pi_parent) of a non-root node, from
    the inclusive values by the identity log(pi_z/pi_n) = (u_z - u_n)/Lambda_n.
    Raises for the root, which has no parent to be conditioned on.
    """
    tree = model.tree
    tree.require_node(z)
    if z == tree.root:
        raise RootHasNoParentError("the root has no parent nest")
    slot = tree.slot[z]
    parent, v = tree.up[slot], _backward(tree, _by_slot(model))
    return (v[slot] - v[parent]) / tree.scale[parent]
