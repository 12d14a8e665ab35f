"""Analytic engine: backward/forward passes, Emax, gradient, CDF, log odds.

Non-obvious expected values are hand evaluations of the closed forms on
the two reference trees: u_b = 0.25 ln 2, u_a = 0.5 ln(1 + sqrt(2)),
single-layer shares built from nest weights sqrt(2) and 1.
"""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nestlogit.model
import nestlogit.verify
from nestlogit import (
    DomainError,
    ModelSpec,
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
from reference_tree import walk

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


def _cdf_recursion(model, bounds):
    # The joint CDF's nest recursion written out in a_n, min-shifted.
    tree, big_lambda = model.tree, walk(model.tree).big_lambda
    a = {leaf: float(bounds[leaf]) for leaf in tree.leaves}
    for node in reversed(tree.nests):
        kids = tree.children[node]
        low = min(a[k] for k in kids)
        acc = sum(math.exp(-(a[k] - low) / big_lambda[node]) for k in kids)
        a[node] = low - big_lambda[node] * math.log(acc)
    return math.exp(-math.exp(-a[tree.root]))


@pytest.mark.parametrize("seed", range(10))
def test_cdf_equals_its_recursion_bitwise(seed):
    rng = np.random.default_rng(300 + seed)
    model = random_model(rng, max_nodes=80)
    for scale in (0.5, 2.0, 8.0):
        bounds = {leaf: float(x) for leaf, x in zip(model.tree.leaves, scale * rng.normal(size=len(model.tree.leaves)))}
        assert cdf(model, bounds) == _cdf_recursion(model, bounds)


def test_cdf_limits_and_monotonicity(depth3_model):
    big = {leaf: 40.0 for leaf in depth3_model.tree.leaves}
    assert cdf(depth3_model, big) > 1.0 - 1e-12
    # exp(u_root) past float range: the exact 0, not an OverflowError
    assert cdf(depth3_model, {**big, "leaf0": -800.0}) == 0.0
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
    with pytest.raises(UtilityError, match=r"^no bound for leaves \['leaf1', 'leaf2', 'leaf3'\]$"):
        cdf(depth3_model, {"leaf0": 0.0})
    with pytest.raises(UtilityError, match=r"^bound given for non-leaves \['extra'\]$"):
        cdf(depth3_model, {**{k: 0.0 for k in depth3_model.tree.leaves}, "extra": 0.0})
    with pytest.raises(UtilityError, match=r"^bound given for non-leaves \['a'\]$"):
        cdf(depth3_model, {**{k: 0.0 for k in depth3_model.tree.leaves}, "a": 0.0})
    with pytest.raises(UtilityError, match=r"^non-finite bound for \['leaf0'\]$"):
        cdf(depth3_model, {**{k: 0.0 for k in depth3_model.tree.leaves}, "leaf0": math.inf})


def test_log_odds_depth3(depth3_model):
    pi = forward_probs(depth3_model, backward_utils(depth3_model))
    # nest a against the root: (u_a - u_0)/Lambda_root
    expected = U_A - U_ROOT
    assert_allclose(log_odds(depth3_model, "a"), expected, rtol=1e-14)
    # leaf2 against nest a: (0 - u_a)/0.5 = -ln(1 + sqrt(2))
    assert_allclose(log_odds(depth3_model, "leaf2"), -math.log(1.0 + SQRT2), rtol=1e-14)
    # the identity against the probabilities of the forward pass
    parent = walk(depth3_model.tree).parent
    for node in ("a", "b", "leaf0", "leaf2", "leaf3"):
        via_pi = math.log(pi[node]) - math.log(pi[parent[node]])
        assert abs(log_odds(depth3_model, node) - via_pi) < 1e-12


def test_log_odds_plain_logit():
    utilities = {"1": 0.7, "2": -0.1}
    model = plain_logit(utilities)
    denom = math.log(sum(math.exp(v) for v in utilities.values()))
    assert_allclose(log_odds(model, "1"), 0.7 - denom, rtol=1e-14)


def test_log_odds_root_rejected(depth3_model):
    with pytest.raises(RootHasNoParentError):
        log_odds(depth3_model, "root")


def log_prob_via_odds(model, leaf):
    # path sum of log odds: the leaf's log probability without ever
    # exponentiating, so it cannot underflow
    total, node, parent = 0.0, leaf, walk(model.tree).parent
    while node != model.tree.root:
        total += log_odds(model, node)
        node = parent[node]
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
            assert p > 0.0 or log_prob_via_odds(model, leaf) < -700.0
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
    with pytest.raises(UtilityError, match=r"^no utility for leaves \['leaf1', 'leaf2', 'leaf3'\]$"):
        make_model(tree, {"leaf0": 0.0})  # missing leaves
    full = {leaf: 0.0 for leaf in tree.leaves}
    with pytest.raises(UtilityError, match=r"^utility given for non-leaves \['a'\]$"):
        make_model(tree, {**full, "a": 0.0})  # utility on a nest
    with pytest.raises(UtilityError):
        make_model(tree, {**full, "leaf0": math.nan})


def test_with_utilities_validation(depth3_model):
    # one map with a nest and an unknown id: both are named, as make_model names them
    with pytest.raises(UtilityError, match=r"^utility given for non-leaves \['a', 'void'\]$"):
        with_utilities(depth3_model, {"void": 0.0, "leaf0": 1.0, "a": 0.0})
    bumped = with_utilities(depth3_model, {"leaf3": 1.0})
    assert bumped.utilities["leaf3"] == 1.0
    assert depth3_model.utilities["leaf3"] == 0.0  # original untouched
    # the tree and its metrics depend on nothing else and are shared
    assert bumped.tree is depth3_model.tree
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(UtilityError):
            with_utilities(depth3_model, {"leaf0": bad})


def test_with_utilities_converts_only_the_overrides(monkeypatch):
    # the 3,000-deep chain: a valid override must not revalidate the model
    depth = 3000
    children = {"root": ("n1", "x0")}
    for i in range(1, depth):
        children[f"n{i}"] = (f"n{i + 1}", f"x{i}")
    children[f"n{depth}"] = (f"x{depth}", f"y{depth}")
    tree = build("root", children, {f"n{i}": 0.999 for i in range(1, depth + 1)})
    model = make_model(tree, {leaf: 0.0 for leaf in tree.leaves})
    calls = []
    real = nestlogit.model.to_float

    def counted(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(nestlogit.model, "to_float", counted)
    bumped = with_utilities(model, {"x7": 0.5, "y3000": "1.5"})
    assert calls == [0.5, "1.5"]
    assert bumped.utilities["x7"] == 0.5 and bumped.utilities["y3000"] == 1.5
    assert len(bumped.utilities) == depth + 2


def test_numbers_past_float_range_name_the_leaf():
    tree = build("r", {"r": ("a", "b")}, {})
    with pytest.raises(UtilityError, match=r"non-finite utility for \['a'\]"):
        make_model(tree, {"a": 10**400, "b": 0})
    model = make_model(tree, {"a": 0, "b": 0})
    with pytest.raises(UtilityError, match=r"non-finite utility for \['a'\]"):
        with_utilities(model, {"a": -(10**400)})
    with pytest.raises(UtilityError, match=r"non-finite bound for \['a'\]"):
        cdf(model, {"a": 10**400, "b": 0})


def test_model_is_tree_plus_utilities(depth3_model):
    assert ModelSpec._fields == ("tree", "utilities")
    assert depth3_model == make_model(depth3_model.tree, dict(depth3_model.utilities))
    assert depth3_model != with_utilities(depth3_model, {"leaf0": 1.0})
    with pytest.raises(AttributeError):
        depth3_model.utilities = {}


# --- the id-keyed walks, kept as the bit-for-bit oracle of the slot passes ---

def _reference_backward(model):
    # u_n over tree.children and the walked Lambda, child nests before parents
    tree, big_lambda = model.tree, walk(model.tree).big_lambda
    u = dict(model.utilities)
    for node in reversed(tree.nests):
        values = [u[kid] for kid in tree.children[node]]
        top, big_lam = max(values), big_lambda[node]
        u[node] = top + big_lam * math.log(sum(math.exp((v - top) / big_lam) for v in values))
    return u


def _reference_forward(model, u):
    # log pi down tree.children in preorder, exponentiated at the end
    tree, big_lambda = model.tree, walk(model.tree).big_lambda
    log_pi = {tree.root: 0.0}
    for node in tree.nests:
        for kid in tree.children[node]:
            log_pi[kid] = log_pi[node] + (u[kid] - u[node]) / big_lambda[node]
    return {node: math.exp(lp) for node, lp in log_pi.items()}


def _reference_gradient(model, u):
    # the complex steps of verify.finite_difference_gradient from an
    # id-keyed table over tree.children and the walked Lambda: one factor
    # per child at its parent, multiplied down each leaf's walked root path
    tree, walked, step = model.tree, walk(model.tree), nestlogit.verify._THETA
    factor = {}
    for node in tree.nests:
        kids = tree.children[node]
        top = max(u[kid] for kid in kids)
        logs = [(u[kid] - top) / walked.big_lambda[node] for kid in kids]
        terms = [math.exp(x) for x in logs]
        total = sum(terms)
        for kid, x, term in zip(kids, logs, terms):
            factor[kid] = cmath.log(total - term + cmath.exp(complex(x, step))).imag / step
    grad = {}
    for leaf in tree.leaves:
        path = [leaf]
        while path[-1] in walked.parent:
            path.append(walked.parent[path[-1]])
        product = 1.0
        for node in reversed(path[:-1]):  # from the root's child down
            product *= factor[node]
        grad[leaf] = product
    return grad


def _bits(values):
    # float.hex tells -0.0 from 0.0, which == does not
    return {key: value.hex() for key, value in values.items()}


def _edge_model():
    # Two-child nests with a < b, a == b and a > b; a -0.0 utility under
    # a one-child nest; three terms 1, 1.1e-16, 1.1e-16, which Python
    # 3.12's compensated sum adds to 1.0000000000000002 and a += loop to
    # 1.0; and subnormal Lambdas over two and three children.
    children = {
        "r": ("lt", "eq", "gt", "one", "three", "sub2", "sub3"),
        "lt": ("a", "b"), "eq": ("c", "d"), "gt": ("e", "f"), "one": ("g",),
        "three": ("h", "i", "j"), "sub2": ("k", "l"), "sub3": ("m", "n", "o"),
    }
    lam = {"lt": 0.5, "eq": 0.5, "gt": 0.5, "one": 0.7, "three": 1.0, "sub2": 1e-310, "sub3": 4e-320}
    small = math.log(1.1e-16)
    utilities = {"a": 0.1, "b": 0.4, "c": 0.3, "d": 0.3, "e": 0.9, "f": -0.2, "g": -0.0,
                 "h": 0.0, "i": small, "j": small, "k": 0.5, "l": 0.25, "m": 0.5, "n": 0.5, "o": 0.1}
    return make_model(build("r", children, lam), utilities)


def _reference_cdf(model, bounds):
    negated = make_model(model.tree, {leaf: -value for leaf, value in bounds.items()})
    try:
        return math.exp(-math.exp(_reference_backward(negated)[model.tree.root]))
    except OverflowError:
        return 0.0


def _oracle_chain(n_nests):
    # n0 -> {n1, x0}, n1 -> {n2, x1}, ..., with differing utilities
    children = {f"n{i}": (f"n{i + 1}", f"x{i}") for i in range(n_nests - 1)}
    children[f"n{n_nests - 1}"] = ("end", f"x{n_nests - 1}")
    tree = build("n0", children, {f"n{i}": 0.9 for i in range(1, n_nests)})
    return make_model(tree, {leaf: 0.01 * i for i, leaf in enumerate(tree.leaves)})


def test_passes_equal_the_id_keyed_walks_bit_for_bit(depth3_model, single_layer_model):
    plain = plain_logit({"a": 0.3, "b": -1.0, "c": 2.0})
    rng = np.random.default_rng(909)
    models = [depth3_model, single_layer_model, plain, _oracle_chain(400)]
    models += [random_model(rng, max_nodes=60) for _ in range(30)]
    # Ties for the nest maxima: every utility equal, and integer utilities.
    models += [with_utilities(m, {leaf: 0.0 for leaf in m.tree.leaves}) for m in models[:6]]
    models += [with_utilities(m, {leaf: float(round(3 * v)) for leaf, v in m.utilities.items()}) for m in models[4:12]]
    models.append(_edge_model())
    for model in models:
        tree = model.tree
        u = _reference_backward(model)
        pi = _reference_forward(model, u)
        assert _bits(backward_utils(model)) == _bits(u)
        assert _bits(forward_probs(model, u)) == _bits(pi)
        assert _bits(choice_probs(model)) == _bits({leaf: pi[leaf] for leaf in tree.leaves})
        assert [emax(model, nest).hex() for nest in tree.nests] == [u[nest].hex() for nest in tree.nests]
        assert _bits(nestlogit.verify.finite_difference_gradient(model)) == _bits(_reference_gradient(model, u))
        bounds = {leaf: 0.25 * (i % 5) - 0.5 for i, leaf in enumerate(tree.leaves)}
        assert cdf(model, bounds).hex() == _reference_cdf(model, bounds).hex()
        deep = {**bounds, tree.leaves[0]: -800.0}
        assert cdf(model, deep).hex() == _reference_cdf(model, deep).hex()
