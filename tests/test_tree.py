"""Arborescence construction, validation, metrics, and LCA."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from nestlogit import (
    CycleError,
    DuplicateIdError,
    EmptyNestError,
    InvalidModelError,
    LambdaRangeError,
    NotANestError,
    OrphanNodeError,
    RootLambdaError,
    UnknownNodeError,
    build,
    descendant_leaves,
    from_nested,
    lca,
    metrics,
    random_model,
)
from nestlogit.tree import require_nest

DEPTH3_CHILDREN = {"root": ("a", "leaf3"), "a": ("b", "leaf2"), "b": ("leaf0", "leaf1")}
DEPTH3_LAM = {"a": 0.5, "b": 0.5}


def depth3():
    return build("root", DEPTH3_CHILDREN, DEPTH3_LAM)


def test_basic_shape():
    tree = depth3()
    assert tree.root == "root"
    assert tree.nests == ("root", "a", "b")
    assert tree.leaves == ("leaf0", "leaf1", "leaf2", "leaf3")
    assert tree.parent["leaf2"] == "a"
    assert tree.is_nest("a") and not tree.is_nest("leaf0")
    assert tree.is_leaf("leaf3") and not tree.is_leaf("root")
    # child order is preserved from the input mapping
    assert tree.children["root"] == ("a", "leaf3")


def test_metrics_depth3():
    met = metrics(depth3())
    assert met.depth == {
        "root": 0, "a": 1, "leaf3": 1, "b": 2, "leaf2": 2, "leaf0": 3, "leaf1": 3,
    }
    assert met.height["root"] == 3
    assert met.height["a"] == 2
    assert met.height["b"] == 1
    assert_allclose(met.big_lambda["root"], 1.0)
    assert_allclose(met.big_lambda["a"], 0.5)
    assert_allclose(met.big_lambda["b"], 0.25)
    # leaves inherit the parent nest's product
    assert_allclose(met.big_lambda["leaf0"], 0.25)
    assert_allclose(met.big_lambda["leaf2"], 0.5)
    assert_allclose(met.big_lambda["leaf3"], 1.0)


def test_big_lambda_is_product_along_parent_chain():
    for seed in range(10):
        tree = random_model(np.random.default_rng(seed), max_nodes=60).tree
        met = metrics(tree)
        for node in tree.nodes:
            product = 1.0
            nest = node if tree.is_nest(node) else tree.parent[node]
            while nest != tree.root:
                product *= tree.lam[nest]
                nest = tree.parent[nest]
            assert_allclose(met.big_lambda[node], product, rtol=1e-14)


def test_root_lambda_optional_but_pinned():
    tree = build("root", DEPTH3_CHILDREN, DEPTH3_LAM)
    assert tree.lam["root"] == 1.0
    tree = build("root", DEPTH3_CHILDREN, dict(DEPTH3_LAM, root=1.0))
    assert tree.lam["root"] == 1.0
    with pytest.raises(RootLambdaError):
        build("root", DEPTH3_CHILDREN, dict(DEPTH3_LAM, root=0.9))


def test_single_child_nest_allowed():
    tree = build("r", {"r": ("n",), "n": ("x",)}, {"n": 0.7})
    assert tree.leaves == ("x",)


@pytest.mark.parametrize(
    "children, lam, exc",
    [
        # leaf under two parents
        ({"r": ("a", "b"), "a": ("x",), "b": ("x",)}, {"a": 0.5, "b": 0.5}, DuplicateIdError),
        # nest lists itself
        ({"r": ("x",), "a": ("a",)}, {"a": 0.5}, CycleError),
        # root appears as a child
        ({"r": ("a",), "a": ("r",)}, {"a": 0.5}, CycleError),
        # two nests point at each other off the root
        ({"r": ("x",), "a": ("b",), "b": ("a",)}, {"a": 0.5, "b": 0.5}, CycleError),
        # childless nest
        ({"r": ("a",), "a": ()}, {"a": 0.5}, EmptyNestError),
        # nest never attached to the root
        ({"r": ("x",), "a": ("y",)}, {"a": 0.5}, OrphanNodeError),
        # lambda out of range / missing / on a leaf
        ({"r": ("a",), "a": ("x",)}, {"a": 1.5}, LambdaRangeError),
        ({"r": ("a",), "a": ("x",)}, {"a": 0.0}, LambdaRangeError),
        ({"r": ("a",), "a": ("x",)}, {"a": -0.5}, LambdaRangeError),
        ({"r": ("a",), "a": ("x",)}, {}, LambdaRangeError),
        ({"r": ("a",), "a": ("x",)}, {"a": 0.5, "x": 0.5}, LambdaRangeError),
    ],
)
def test_rejected_trees(children, lam, exc):
    with pytest.raises(exc):
        build("r", children, lam)


def test_rejects_empty_id():
    with pytest.raises(InvalidModelError):
        build("", {"": ("a",)}, {})


def test_rejects_rootless_input():
    with pytest.raises(EmptyNestError):
        build("r", {"a": ("x",)}, {"a": 0.5})


def test_lca_depth3():
    tree = depth3()
    assert lca(tree, "leaf0", "leaf1") == "b"
    assert lca(tree, "leaf0", "leaf2") == "a"
    assert lca(tree, "leaf0", "leaf3") == "root"
    assert lca(tree, "leaf2", "b") == "a"
    assert lca(tree, "leaf0", "leaf0") == "leaf0"
    assert lca(tree, "a", "leaf0") == "a"  # ancestor of the other
    with pytest.raises(UnknownNodeError):
        lca(tree, "leaf0", "nope")


def test_descendant_leaves():
    tree = depth3()
    assert descendant_leaves(tree, "b") == {"leaf0", "leaf1"}
    assert descendant_leaves(tree, "a") == {"leaf0", "leaf1", "leaf2"}
    assert descendant_leaves(tree, "root") == set(tree.leaves)
    assert descendant_leaves(tree, "leaf3") == {"leaf3"}


def test_require_nest():
    tree = depth3()
    require_nest(tree, "a")
    with pytest.raises(NotANestError):
        require_nest(tree, "leaf0")


def test_from_nested():
    doc = {
        "id": "root",
        "lambda": 1.0,
        "children": [
            {"id": "n", "lambda": 0.5, "children": [
                {"id": "x", "utility": 1.5},
                {"id": "y", "utility": -2.0},
            ]},
            {"id": "z", "utility": 0.25},
        ],
    }
    tree, utilities = from_nested(doc)
    assert tree.nests == ("root", "n")
    assert tree.leaves == ("x", "y", "z")
    assert utilities == {"x": 1.5, "y": -2.0, "z": 0.25}


def test_metrics_invariants_random_sweep():
    # full-scan invariants on a spread of random trees
    for seed in range(25):
        tree = random_model(np.random.default_rng(seed), max_nodes=50).tree
        met = metrics(tree)
        seen = set()
        for node in tree.nodes:
            assert node not in seen  # preorder reaches each node once
            seen.add(node)
            if node == tree.root:
                assert met.depth[node] == 0
                continue
            parent = tree.parent[node]
            assert met.depth[node] == met.depth[parent] + 1
            expected = met.big_lambda[parent] * (tree.lam[node] if tree.is_nest(node) else 1.0)
            assert_allclose(met.big_lambda[node], expected, rtol=1e-15)
        assert seen == set(tree.nests) | set(tree.leaves)


@st.composite
def parent_vectors(draw):
    n = draw(st.integers(min_value=2, max_value=100))
    return [draw(st.integers(min_value=0, max_value=i)) for i in range(n - 1)]


@given(parent_vectors())
def test_lca_matches_bruteforce(parents):
    children: dict[str, list[str]] = {}
    for i, p in enumerate(parents):
        children.setdefault(f"v{p}", []).append(f"v{i + 1}")
    if "v0" not in children:
        children["v0"] = ["sentinel"]
    lam = {nest: 0.5 for nest in children if nest != "v0"}
    tree = build("v0", children, lam)

    def ancestors(node):
        chain = [node]
        while node != tree.root:
            node = tree.parent[node]
            chain.append(node)
        return chain

    met = metrics(tree)
    nodes = tree.nodes
    rng = np.random.default_rng(len(parents))
    for _ in range(10):
        a, b = (nodes[int(i)] for i in rng.integers(len(nodes), size=2))
        common = set(ancestors(a)) & set(ancestors(b))
        deepest = max(common, key=lambda n: met.depth[n])
        assert lca(tree, a, b) == deepest
