"""Analytic nested logit on a nest tree.

Let Lambda_n be the product of lambda over the nests on the root path of
n. The joint noise CDF is

    Pr(eps_j <= A_j for all j) = exp(-exp(-a_root)),
    a_n = -Lambda_n * log sum_z exp(-a_z / Lambda_n)   over children z,

with a_j = A_j on leaves. Backward induction turns leaf utilities into
inclusive values u_n = Lambda_n * log sum_z exp(u_z / Lambda_n), and the
forward pass splits probability mass down the tree with the within-nest
softmax exp((u_z - u_n)/Lambda_n). All sums of exponentials are max-shifted
and probabilities live in log space until the final exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    NotALeafError,
    RootHasNoParentError,
    UnknownNodeError,
    UtilityError,
)
from .tree import Arborescence, TreeMetrics, metrics, require_nest, require_two_level

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


@dataclass(frozen=True)
class ModelSpec:
    """A nest tree, its metrics, and a finite utility for every leaf."""

    tree: Arborescence
    metrics: TreeMetrics
    utilities: Mapping[str, float]


def _finite_utilities(utilities: Mapping[str, float]) -> dict[str, float]:
    values = {str(k): float(v) for k, v in utilities.items()}
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise UtilityError(f"non-finite utility for {sorted(bad)}")
    return values


def make_model(tree: Arborescence, utilities: Mapping[str, float]) -> ModelSpec:
    """Bundle tree and utilities after checking the utility map covers
    exactly the leaf set with finite values."""
    utilities = _finite_utilities(utilities)
    leaf_set = set(tree.leaves)
    missing = leaf_set - set(utilities)
    extra = set(utilities) - leaf_set
    if missing:
        raise UtilityError(f"no utility for leaves {sorted(missing)}")
    if extra:
        raise UtilityError(f"utilities given for non-leaves {sorted(extra)}")
    return ModelSpec(tree=tree, metrics=metrics(tree), utilities=utilities)


def with_utilities(model: ModelSpec, overrides: Mapping[str, float]) -> ModelSpec:
    """Copy of the model with some leaf utilities replaced. The copy shares
    the original's tree and metrics, which do not depend on utilities."""
    for key in overrides:
        if key not in model.tree.parent and key != model.tree.root:
            raise UnknownNodeError(f"unknown node id {key!r}")
        if not model.tree.is_leaf(key):
            raise NotALeafError(f"node {key!r} is a nest, utilities live on leaves")
    merged = dict(model.utilities)
    merged.update(_finite_utilities(overrides))
    return ModelSpec(tree=model.tree, metrics=model.metrics, utilities=merged)


def backward_utils(model: ModelSpec) -> dict[str, float]:
    """Inclusive values u_n for every node by backward induction.

    Leaves carry their utility; each nest aggregates its children through
    the Lambda-scaled log-sum-exp. The recursion is shift-invariant: a
    constant added to every leaf utility adds the same constant to every
    u_n. A single-child nest passes its child's value through unchanged.
    """
    tree, met = model.tree, model.metrics
    u: dict[str, float] = dict(model.utilities)
    for node in reversed(tree.nests):  # every child nest before its parent
        big_lam = met.big_lambda[node]
        kids = tree.children[node]
        top = max(u[k] for k in kids)
        acc = sum(math.exp((u[k] - top) / big_lam) for k in kids)
        u[node] = top + big_lam * math.log(acc)
    return u


def forward_probs(model: ModelSpec, u: Mapping[str, float]) -> dict[str, float]:
    """Node probabilities from the inclusive values of backward_utils.

    pi_root = 1 and each nest splits its mass over children z with weight
    exp((u_z - u_n)/Lambda_n), which is already normalized because u_n is
    the Lambda_n-scaled log-sum of the children. Accumulation happens in
    log space; underflow to zero can only occur when the true probability
    is below the smallest positive double.
    """
    tree, met = model.tree, model.metrics
    log_pi: dict[str, float] = {tree.root: 0.0}
    for node in tree.nests:  # preorder: every parent before its children
        big_lam = met.big_lambda[node]
        u_n = u[node]
        for kid in tree.children[node]:
            log_pi[kid] = log_pi[node] + (u[kid] - u_n) / big_lam
    return {node: math.exp(lp) for node, lp in log_pi.items()}


def choice_probs(model: ModelSpec) -> dict[str, float]:
    """Leaf choice probabilities (backward pass then forward pass)."""
    pi = forward_probs(model, backward_utils(model))
    return {leaf: pi[leaf] for leaf in model.tree.leaves}


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

    scaled: dict[str, dict[str, float]] = {}
    log_s: dict[str, float] = {}
    log_weight: dict[str, float] = {}
    for nest in nests:
        lam = tree.lam[nest]
        t = {leaf: model.utilities[leaf] / lam for leaf in tree.children[nest]}
        top = max(t.values())
        log_s[nest] = top + math.log(sum(math.exp(v - top) for v in t.values()))
        log_weight[nest] = lam * log_s[nest]
        scaled[nest] = t

    top_w = max(log_weight.values())
    log_denom = top_w + math.log(sum(math.exp(w - top_w) for w in log_weight.values()))

    probs: dict[str, float] = {}
    for nest in nests:
        for leaf in tree.children[nest]:
            probs[leaf] = math.exp(
                log_weight[nest] - log_denom + scaled[nest][leaf] - log_s[nest]
            )
    return probs


def cdf(model: ModelSpec, bounds: Mapping[str, float]) -> float:
    """Joint noise CDF Pr(eps_j <= bounds_j for every leaf j).

    bounds must cover exactly the leaf set. The nest recursion mirrors
    backward_utils with negated, min-shifted arguments.
    """
    tree, met = model.tree, model.metrics
    leaf_set = set(tree.leaves)
    if set(bounds) != leaf_set:
        raise UtilityError("bounds must be given for exactly the leaf set")
    a: dict[str, float] = {}
    for leaf in tree.leaves:
        value = float(bounds[leaf])
        if not math.isfinite(value):
            raise UtilityError(f"bound for {leaf!r} is not finite")
        a[leaf] = value
    for node in reversed(tree.nests):
        big_lam = met.big_lambda[node]
        kids = tree.children[node]
        low = min(a[k] for k in kids)
        acc = sum(math.exp(-(a[k] - low) / big_lam) for k in kids)
        a[node] = low - big_lam * math.log(acc)
    return math.exp(-math.exp(-a[tree.root]))


def emax(model: ModelSpec, at: str | None = None) -> float:
    """Inclusive value u_at of the subtree rooted at nest ``at``.

    This is the expected maximum of U_j + eps_j over the subtree's leaves
    net of the Euler-Mascheroni constant (the noise marginals are standard,
    uncentered Gumbel, so the raw expected maximum is u_at + gamma_E).
    Defaults to the root, i.e. the model's full Emax.
    """
    target = model.tree.root if at is None else at
    require_nest(model.tree, target)
    return backward_utils(model)[target]


def emax_gradient(model: ModelSpec) -> dict[str, float]:
    """Gradient of the root Emax in the leaf utilities.

    Equals the leaf choice probabilities (the Daly-Zachary-Williams
    identity), so this is forward_probs restricted to leaves.
    """
    return choice_probs(model)


def log_odds(
    model: ModelSpec,
    z: str,
    u: Mapping[str, float] | None = None,
    pi: Mapping[str, float] | None = None,
) -> float:
    """Within-nest log odds log(pi_z / pi_parent) of a non-root node.

    Computed from pi when given, otherwise from inclusive values u via the
    identity log(pi_z/pi_n) = (u_z - u_n)/Lambda_n; the two routes agree to
    machine precision. Raises for the root, which has no parent to be
    conditioned on.
    """
    tree = model.tree
    tree.require_node(z)
    if z == tree.root:
        raise RootHasNoParentError("the root has no parent nest")
    parent = tree.parent[z]
    if pi is not None:
        return math.log(pi[z]) - math.log(pi[parent])
    if u is None:
        u = backward_utils(model)
    return (u[z] - u[parent]) / model.metrics.big_lambda[parent]
