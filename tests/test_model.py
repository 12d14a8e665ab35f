"""Analytic engine: backward/forward passes, Emax, gradient, CDF, log odds.

Non-obvious expected values are hand evaluations of the closed forms on
the two reference trees: u_b = 0.25 ln 2, u_a = 0.5 ln(1 + sqrt(2)),
single-layer shares built from nest weights sqrt(2) and 1.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nestlogit import (
    DomainError,
    NotALeafError,
    NotANestError,
    RootHasNoParentError,
    ShapeError,
    UnknownNodeError,
    UtilityError,
    backward_utils,
    build,
    cdf,
    choice_probs,
    choice_probs_single_layer,
    emax,
    emax_gradient,
    forward_probs,
    log_odds,
    make_model,
    random_model,
    random_single_layer_model,
    with_utilities,
)

SQRT2 = math.sqrt(2.0)

# hand evaluation of the backward recursion on the depth-3 reference tree
U_B = 0.25 * math.log(2.0)                     # 0.17328679513998632
U_A = 0.5 * math.log(1.0 + SQRT2)              # 0.44068679350977147
U_ROOT = math.log(math.exp(U_A) + 1.0)         # 0.9375722548804855
DEPTH3_PROBS = {
    "leaf0": 0.17820287354720865,
    "leaf1": 0.17820287354720865,
    "leaf2": 0.25201692062432013,
    "leaf3": 0.3915773322812624,
}


def plain_logit(utilities):
    tree = build("root", {"root": tuple(utilities)}, {})
    return make_model(tree, utilities)


def test_backward_utils_depth3(depth3_model):
    u = backward_utils(depth3_model)
    assert_allclose(u["b"], U_B, rtol=1e-15)
    assert_allclose(u["a"], U_A, rtol=1e-15)
    assert_allclose(u["root"], U_ROOT, rtol=1e-15)
    for leaf in depth3_model.tree.leaves:
        assert u[leaf] == 0.0


def test_backward_utils_single_leaf():
    model = plain_logit({"only": 1.25})
    assert backward_utils(model)["root"] == pytest.approx(1.25, abs=0)


def test_backward_utils_plain_logit_closed_form():
    utilities = {"1": 0.3, "2": -1.1, "3": 2.0}
    model = plain_logit(utilities)
    expected = math.log(sum(math.exp(v) for v in utilities.values()))
    assert_allclose(backward_utils(model)["root"], expected, rtol=1e-15)


def test_forward_probs_depth3(depth3_model):
    u = backward_utils(depth3_model)
    pi = forward_probs(depth3_model, u)
    assert pi["root"] == 1.0
    assert_allclose(pi["a"], math.exp(U_A - U_ROOT), rtol=1e-14)
    for leaf, expected in DEPTH3_PROBS.items():
        assert_allclose(pi[leaf], expected, rtol=1e-13)
    # children sum to their parent at every nest
    tree = depth3_model.tree
    for nest in tree.nests:
        assert_allclose(sum(pi[kid] for kid in tree.children[nest]), pi[nest], rtol=1e-13)


def test_choice_probs_single_layer_example(single_layer_model):
    probs = choice_probs_single_layer(single_layer_model)
    assert_allclose(probs["1"], (2.0 - SQRT2) / 2.0, rtol=1e-14)
    assert_allclose(probs["2"], (2.0 - SQRT2) / 2.0, rtol=1e-14)
    assert_allclose(probs["3"], SQRT2 - 1.0, rtol=1e-14)


def test_choice_probs_single_layer_within_nest_weights():
    # one nest, lambda = 0.5, U = (0, ln 2): weights 1 and 4
    tree = build("root", {"root": ("n",), "n": ("1", "2")}, {"n": 0.5})
    model = make_model(tree, {"1": 0.0, "2": math.log(2.0)})
    probs = choice_probs_single_layer(model)
    assert_allclose(probs["1"], 0.2, rtol=1e-14)
    assert_allclose(probs["2"], 0.8, rtol=1e-14)


def test_choice_probs_single_layer_singleton_nests():
    tree = build("root", {"root": ("A", "B"), "A": ("1",), "B": ("2",)}, {"A": 0.4, "B": 0.9})
    model = make_model(tree, {"1": 1.0, "2": 0.0})
    probs = choice_probs_single_layer(model)
    z = math.exp(1.0) + 1.0
    assert_allclose(probs["1"], math.exp(1.0) / z, rtol=1e-14)
    assert_allclose(probs["2"], 1.0 / z, rtol=1e-14)


def test_choice_probs_single_layer_shape(depth3_model):
    with pytest.raises(ShapeError):
        choice_probs_single_layer(depth3_model)
    # a bare leaf directly under the root is not single-layer either
    tree = build("root", {"root": ("A", "x"), "A": ("1", "2")}, {"A": 0.5})
    model = make_model(tree, {"1": 0.0, "2": 0.0, "x": 0.0})
    with pytest.raises(ShapeError):
        choice_probs_single_layer(model)


def test_single_layer_equivalence_random():
    # direct formula vs backward/forward on random height-2 trees
    for seed in range(40):
        model = random_single_layer_model(np.random.default_rng(seed))
        direct = choice_probs_single_layer(model)
        general = choice_probs(model)
        for leaf in model.tree.leaves:
            assert_allclose(direct[leaf], general[leaf], rtol=1e-12)


def test_emax(single_layer_model, depth3_model):
    assert_allclose(emax(single_layer_model), math.log(1.0 + SQRT2), rtol=1e-14)
    assert_allclose(emax(depth3_model), U_ROOT, rtol=1e-15)
    assert_allclose(emax(depth3_model, "b"), U_B, rtol=1e-15)
    assert emax(plain_logit({"only": -3.0})) == pytest.approx(-3.0, abs=0)


def test_emax_errors(depth3_model):
    with pytest.raises(UnknownNodeError):
        emax(depth3_model, "void")
    with pytest.raises(NotANestError):
        emax(depth3_model, "leaf0")


def test_emax_gradient_is_choice_probs(depth3_model):
    grad = emax_gradient(depth3_model)
    probs = choice_probs(depth3_model)
    assert grad == probs
    assert_allclose(sum(grad.values()), 1.0, rtol=1e-12)


def test_emax_gradient_finite_differences(depth3_model):
    step = 1e-5
    grad = emax_gradient(depth3_model)
    for leaf in depth3_model.tree.leaves:
        up = emax(with_utilities(depth3_model, {leaf: step}))
        down = emax(with_utilities(depth3_model, {leaf: -step}))
        assert abs(grad[leaf] - (up - down) / (2 * step)) < 1e-6


def test_gradient_random_models():
    step = 1e-5
    for seed in range(10):
        model = random_model(np.random.default_rng(seed), max_nodes=30)
        grad = emax_gradient(model)
        for leaf in model.tree.leaves:
            base = model.utilities[leaf]
            up = emax(with_utilities(model, {leaf: base + step}))
            down = emax(with_utilities(model, {leaf: base - step}))
            assert abs(grad[leaf] - (up - down) / (2 * step)) < 1e-6


def test_cdf_examples(single_layer_model):
    model = plain_logit({"1": 0.0})
    assert_allclose(cdf(model, {"1": 0.0}), math.exp(-1.0), rtol=1e-14)

    model = plain_logit({"1": 0.0, "2": 0.0})
    assert_allclose(cdf(model, {"1": 0.0, "2": 0.0}), math.exp(-2.0), rtol=1e-14)

    tree = build("root", {"root": ("n",), "n": ("1", "2")}, {"n": 0.5})
    model = make_model(tree, {"1": 0.0, "2": 0.0})
    assert_allclose(cdf(model, {"1": 0.0, "2": 0.0}), math.exp(-SQRT2), rtol=1e-14)
    # utilities do not enter the noise CDF
    assert_allclose(
        cdf(with_utilities(model, {"1": 3.0}), {"1": 0.0, "2": 0.0}),
        math.exp(-SQRT2),
        rtol=1e-14,
    )


def test_cdf_single_layer_closed_form(single_layer_model):
    bounds = {"1": 0.3, "2": -0.2, "3": 1.0}
    total = (math.exp(-0.3 / 0.5) + math.exp(0.2 / 0.5)) ** 0.5 + math.exp(-1.0)
    assert_allclose(cdf(single_layer_model, bounds), math.exp(-total), rtol=1e-13)


def test_cdf_limits_and_monotonicity(depth3_model):
    big = {leaf: 40.0 for leaf in depth3_model.tree.leaves}
    assert cdf(depth3_model, big) > 1.0 - 1e-12
    grid = np.linspace(-2.0, 3.0, 7)
    for leaf in depth3_model.tree.leaves:
        values = []
        for a in grid:
            bounds = {k: 0.0 for k in depth3_model.tree.leaves}
            bounds[leaf] = float(a)
            values.append(cdf(depth3_model, bounds))
        assert all(x < y for x, y in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)


def test_cdf_bounds_validation(depth3_model):
    with pytest.raises(UtilityError):
        cdf(depth3_model, {"leaf0": 0.0})
    with pytest.raises(UtilityError):
        cdf(depth3_model, {**{k: 0.0 for k in depth3_model.tree.leaves}, "extra": 0.0})
    with pytest.raises(UtilityError):
        cdf(depth3_model, {**{k: 0.0 for k in depth3_model.tree.leaves}, "leaf0": math.inf})


def test_log_odds_depth3(depth3_model):
    u = backward_utils(depth3_model)
    pi = forward_probs(depth3_model, u)
    # nest a against the root: (u_a - u_0)/Lambda_root
    expected = U_A - U_ROOT
    assert_allclose(log_odds(depth3_model, "a"), expected, rtol=1e-14)
    assert_allclose(log_odds(depth3_model, "a", u=u), expected, rtol=1e-14)
    assert_allclose(log_odds(depth3_model, "a", pi=pi), expected, rtol=1e-12)
    # leaf2 against nest a: (0 - u_a)/0.5 = -ln(1 + sqrt(2))
    assert_allclose(log_odds(depth3_model, "leaf2"), -math.log(1.0 + SQRT2), rtol=1e-14)
    assert abs(
        log_odds(depth3_model, "leaf2", u=u) - log_odds(depth3_model, "leaf2", pi=pi)
    ) < 1e-12


def test_log_odds_plain_logit():
    utilities = {"1": 0.7, "2": -0.1}
    model = plain_logit(utilities)
    denom = math.log(sum(math.exp(v) for v in utilities.values()))
    assert_allclose(log_odds(model, "1"), 0.7 - denom, rtol=1e-14)


def test_log_odds_root_rejected(depth3_model):
    with pytest.raises(RootHasNoParentError):
        log_odds(depth3_model, "root")


def log_prob_via_odds(model, u, leaf):
    # path sum of log odds: the leaf's log probability without ever
    # exponentiating, so it cannot underflow
    total, node = 0.0, leaf
    while node != model.tree.root:
        total += log_odds(model, node, u=u)
        node = model.tree.parent[node]
    return total


def test_simplex_and_hierarchy_random_sweep():
    for seed in range(25):
        model = random_model(np.random.default_rng(1000 + seed))
        u = backward_utils(model)
        pi = forward_probs(model, u)
        leaf_probs = choice_probs(model)
        for leaf, p in leaf_probs.items():
            # exact zeros are only acceptable as certified underflow of a
            # representable-in-log-space probability
            assert p > 0.0 or log_prob_via_odds(model, u, leaf) < -700.0
        assert abs(sum(leaf_probs.values()) - 1.0) < 1e-12
        tree = model.tree
        for nest in tree.nests:
            kids = sum(pi[kid] for kid in tree.children[nest])
            assert abs(kids - pi[nest]) < 1e-12


def test_translation_invariance(depth3_model):
    c = 2.75
    shifted = with_utilities(
        depth3_model, {leaf: c for leaf in depth3_model.tree.leaves}
    )
    assert_allclose(emax(shifted), emax(depth3_model) + c, rtol=1e-13)
    base = choice_probs(depth3_model)
    moved = choice_probs(shifted)
    for leaf in base:
        assert abs(base[leaf] - moved[leaf]) < 1e-12


def test_lambda_one_collapses_to_softmax():
    utilities = {"w": 0.2, "x": -1.0, "y": 1.4, "z": 0.0}
    tree = build(
        "root",
        {"root": ("m", "z"), "m": ("w", "n"), "n": ("x", "y")},
        {"m": 1.0, "n": 1.0},
    )
    nested = choice_probs(make_model(tree, utilities))
    flat = choice_probs(plain_logit(utilities))
    for leaf in utilities:
        assert_allclose(nested[leaf], flat[leaf], rtol=1e-12)


def test_single_child_nest_is_transparent():
    # wrapping leaf y in a one-child nest must not move any probability
    utilities = {"x": 0.4, "y": -0.3, "z": 1.1}
    wrapped = build(
        "root",
        {"root": ("A", "w"), "A": ("x", "y"), "w": ("z",)},
        {"A": 0.6, "w": 0.35},
    )
    direct = build("root", {"root": ("A", "z"), "A": ("x", "y")}, {"A": 0.6})
    p_wrapped = choice_probs(make_model(wrapped, utilities))
    p_direct = choice_probs(make_model(direct, utilities))
    for leaf in utilities:
        assert abs(p_wrapped[leaf] - p_direct[leaf]) < 1e-12


def test_extreme_utilities_stay_finite():
    # Lambda as small as 0.0025: U/Lambda ~ 2e4 must not overflow
    tree = build(
        "root",
        {"root": ("a",), "a": ("b",), "b": ("1", "2")},
        {"a": 0.05, "b": 0.05},
    )
    model = make_model(tree, {"1": 50.0, "2": -50.0})
    probs = choice_probs(model)
    assert math.isfinite(emax(model))
    assert_allclose(sum(probs.values()), 1.0, rtol=1e-12)
    assert probs["1"] > probs["2"] >= 0.0


def test_make_model_validation(depth3_model):
    tree = depth3_model.tree
    with pytest.raises(UtilityError):
        make_model(tree, {"leaf0": 0.0})  # missing leaves
    full = {leaf: 0.0 for leaf in tree.leaves}
    with pytest.raises(UtilityError):
        make_model(tree, {**full, "a": 0.0})  # utility on a nest
    with pytest.raises(UtilityError):
        make_model(tree, {**full, "leaf0": math.nan})


def test_with_utilities_validation(depth3_model):
    with pytest.raises(UnknownNodeError):
        with_utilities(depth3_model, {"void": 0.0})
    with pytest.raises(NotALeafError):
        with_utilities(depth3_model, {"a": 0.0})
    bumped = with_utilities(depth3_model, {"leaf3": 1.0})
    assert bumped.utilities["leaf3"] == 1.0
    assert depth3_model.utilities["leaf3"] == 0.0  # original untouched
    # metrics depend on the tree alone and are shared, not recomputed
    assert bumped.tree is depth3_model.tree
    assert bumped.metrics is depth3_model.metrics
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(UtilityError):
            with_utilities(depth3_model, {"leaf0": bad})
