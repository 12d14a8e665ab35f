"""Arborescence construction, validation, the slots build() stores, and LCA."""

from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from nestlogit import (
    Arborescence,
    CycleError,
    DuplicateIdError,
    EmptyNestError,
    InvalidModelError,
    LambdaRangeError,
    ModelFileError,
    NotANestError,
    OrphanNodeError,
    RootLambdaError,
    UnknownNodeError,
    build,
    descendant_leaves,
    from_nested,
    lca,
    random_model,
)
from nestlogit.tree import require_nest
from reference_tree import walk

DEPTH3_CHILDREN = {"root": ("a", "leaf3"), "a": ("b", "leaf2"), "b": ("leaf0", "leaf1")}
DEPTH3_LAM = {"a": 0.5, "b": 0.5}


def depth3():
    return build("root", DEPTH3_CHILDREN, DEPTH3_LAM)


def test_basic_shape():
    tree = depth3()
    assert tree.root == "root"
    assert tree.nests == ("root", "a", "b")
    assert tree.leaves == ("leaf0", "leaf1", "leaf2", "leaf3")
    assert tree.nests[tree.up[tree.slot["leaf2"]]] == "a" == walk(tree).parent["leaf2"]
    assert tree.is_nest("a") and not tree.is_nest("leaf0")
    assert tree.is_leaf("leaf3") and not tree.is_leaf("root")
    # child order is preserved from the input mapping
    assert tree.children["root"] == ("a", "leaf3")


def by_id(tree, values):
    """A tuple by slot read back as a dict keyed by node id."""
    return dict(zip(tree.nests + tree.leaves, values))


def test_fields_are_the_description_and_its_slots():
    assert Arborescence._fields == (
        "root", "children", "lam", "nests", "leaves", "slot", "kids", "up", "scale", "depth",
    )
    tree = depth3()
    assert tree == depth3() and tree != build("root", DEPTH3_CHILDREN, {"a": 0.5, "b": 0.25})
    with pytest.raises(AttributeError):
        tree.root = "a"
    with pytest.raises(AttributeError):
        tree.extra = 1


def test_metrics_depth3():
    tree = depth3()
    assert by_id(tree, tree.depth) == {
        "root": 0, "a": 1, "leaf3": 1, "b": 2, "leaf2": 2, "leaf0": 3, "leaf1": 3,
    } == walk(tree).depth
    assert max(tree.depth) == 3  # the height validate reports
    big_lambda = by_id(tree, tree.scale)
    assert_allclose(big_lambda["root"], 1.0)
    assert_allclose(big_lambda["a"], 0.5)
    assert_allclose(big_lambda["b"], 0.25)
    # leaves inherit the parent nest's product
    assert_allclose(big_lambda["leaf0"], 0.25)
    assert_allclose(big_lambda["leaf2"], 0.5)
    assert_allclose(big_lambda["leaf3"], 1.0)


def test_big_lambda_is_product_along_parent_chain():
    for seed in range(10):
        tree = random_model(np.random.default_rng(seed), max_nodes=60).tree
        ref = walk(tree)
        for node in ref.nodes:
            product = 1.0
            nest = node if tree.is_nest(node) else ref.parent[node]
            while nest != tree.root:
                product *= tree.lam[nest]
                nest = ref.parent[nest]
            assert_allclose(tree.scale[tree.slot[node]], product, rtol=1e-14)


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
        # cumulative Lambda underflows to 0
        ({"r": ("a",), "a": ("b",), "b": ("x",)}, {"a": 1e-200, "b": 1e-200}, LambdaRangeError),
        # empty leaf id, which a model file could not carry
        ({"r": ("", "a")}, {}, InvalidModelError),
    ],
)
def test_rejected_trees(children, lam, exc):
    with pytest.raises(exc):
        build("r", children, lam)


def test_lambda_past_float_range_is_rejected_by_name():
    with pytest.raises(LambdaRangeError, match="nest 'c'"):
        build("r", {"r": ("a", "b", "c"), "c": ("d",)}, {"c": 10**400})
    with pytest.raises(RootLambdaError):
        build("r", {"r": ("a", "b")}, {"r": 10**400})


def test_underflowing_lambda_product_names_the_first_nest():
    children = {"r": ("a", "c"), "a": ("b",), "b": ("x",), "c": ("d",), "d": ("y",)}
    lam = {"a": 1e-200, "b": 1e-200, "c": 1e-200, "d": 1e-200}
    with pytest.raises(LambdaRangeError, match="nest 'b' underflows"):
        build("r", children, lam)


def test_rejects_empty_id():
    with pytest.raises(InvalidModelError):
        build("", {"": ("a",)}, {})


@pytest.mark.parametrize("root, children, bad", [
    ("r", {"r": ("a", "b\ud800")}, "b\ud800"),
    ("r", {"r": ("n\udfff", "a"), "n\udfff": ("x",)}, "n\udfff"),
    ("r\ud800", {"r\ud800": ("a",)}, "r\ud800"),
])
def test_rejects_lone_surrogate_ids(root, children, bad):
    # No model file can hold such an id, so save_model could not write a
    # tree that load_model reads back.
    lam = {nest: 0.5 for nest in children if nest != root}
    with pytest.raises(InvalidModelError) as info:
        build(root, children, lam)
    assert type(info.value) is InvalidModelError
    assert str(info.value) == f"node id {bad!r} holds a lone surrogate, not Unicode text"
    assert build("r", {"r": ("a", "b\u00e9", "\U0001F68C")}, {}).leaves == ("a", "b\u00e9", "\U0001F68C")


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


# A tree four nests deep: n3 is root.children[1].children[1].children[0].
def nested_doc():
    return {"id": "root", "lambda": 1.0, "children": [
        {"id": "a", "utility": 0.0},
        {"id": "n1", "lambda": 0.5, "children": [
            {"id": "b", "utility": 1.0},
            {"id": "n2", "lambda": 0.5, "children": [
                {"id": "n3", "lambda": 0.8, "children": [
                    {"id": "c", "utility": -1.0},
                    {"id": "d", "utility": 2.0},
                ]},
                {"id": "e", "utility": 0.5},
            ]},
        ]},
    ]}


def node_at(doc, *path):
    for i in path:
        doc = doc["children"][i]
    return doc


N3 = (1, 1, 0)  # the nest n3
D = (1, 1, 0, 1)  # the leaf d under it


def replace_at(path, value):
    return lambda doc: node_at(doc, *path[:-1])["children"].__setitem__(path[-1], value)


def edit_at(path, **fields):
    return lambda doc: node_at(doc, *path).update(fields)


def drop_at(path, key):
    return lambda doc: node_at(doc, *path).pop(key)


N3_PATH = "root.children[1].children[1].children[0]"
D_PATH = N3_PATH + ".children[1]"

# Every schema fault from_nested raises, with its exact message and path.
FAULTS = [
    (replace_at(N3, [1]), ModelFileError, f"{N3_PATH}: expected an object, got list"),
    (replace_at(D, "d"), ModelFileError, f"{D_PATH}: expected an object, got str"),
    (replace_at(D, None), ModelFileError, f"{D_PATH}: expected an object, got NoneType"),
    (drop_at(N3, "lambda"), ModelFileError, f"{N3_PATH}: missing key 'lambda'"),
    (drop_at(N3, "id"), ModelFileError, f"{N3_PATH}: missing key 'id'"),
    (drop_at(D, "id"), ModelFileError, f"{D_PATH}: missing key 'id'"),
    (edit_at(N3, weight=2, extra=1), ModelFileError, f"{N3_PATH}: unexpected key 'extra'"),
    (edit_at(D, lam=0.5), ModelFileError, f"{D_PATH}: unexpected key 'lam'"),
    (edit_at(D, children=[]), ModelFileError, f"{D_PATH}: a node cannot carry both children and a utility"),
    (drop_at(D, "utility"), ModelFileError, f'{D_PATH}: node needs either "children" (nest) or "utility" (leaf)'),
    (edit_at(N3, **{"lambda": True}), ModelFileError, f'{N3_PATH}: "lambda" must be a number'),
    (edit_at(N3, **{"lambda": "0.5"}), ModelFileError, f'{N3_PATH}: "lambda" must be a number'),
    (edit_at(N3, **{"lambda": 10**400}), ModelFileError, f'{N3_PATH}: "lambda" does not fit in a float'),
    (edit_at(D, utility=False), ModelFileError, f'{D_PATH}: "utility" must be a number'),
    (edit_at(D, utility=-10**400), ModelFileError, f'{D_PATH}: "utility" does not fit in a float'),
    (edit_at(D, utility=float("nan")), ModelFileError, f'{D_PATH}: "utility" must be finite'),
    (edit_at(D, utility=float("-inf")), ModelFileError, f'{D_PATH}: "utility" must be finite'),
    (edit_at(N3, children={"id": "c"}), ModelFileError, f'{N3_PATH}: "children" must be a list'),
    (edit_at(N3, children=("c",)), ModelFileError, f'{N3_PATH}: "children" must be a list'),
    (edit_at(N3, children=[]), ModelFileError, f'{N3_PATH}: "children" must not be empty'),
    (edit_at(N3, id=""), ModelFileError, f'{N3_PATH}: "id" must be a non-empty string'),
    (edit_at(D, id=4), ModelFileError, f'{D_PATH}: "id" must be a non-empty string'),
    (edit_at(D, id="d\ud800"), ModelFileError, f"{D_PATH}.id: 'd\\ud800' holds a lone surrogate, not Unicode text"),
    (edit_at(N3, id="\udfffé"), ModelFileError, f"{N3_PATH}.id: '\\udfffé' holds a lone surrogate, not Unicode text"),
    (edit_at(D, id="b"), DuplicateIdError, f"{D_PATH}.id: node id 'b' appears more than once"),
    (edit_at(N3, id="n1"), DuplicateIdError, f"{N3_PATH}.id: node id 'n1' appears more than once"),
    (edit_at((), **{"lambda": 0.5}), ModelFileError, "root.lambda: root lambda must be 1.0, got 0.5"),
    (edit_at((), **{"lambda": 2}), ModelFileError, "root.lambda: root lambda must be 1.0, got 2"),
    (lambda doc: doc.clear() or doc.update(id="r", utility=0.0), ModelFileError, "root: the root must be a nest, not a leaf"),
    (lambda doc: doc.clear(), ModelFileError, 'root: node needs either "children" (nest) or "utility" (leaf)'),
    # The first fault in document order wins: a nest before its children,
    # earlier siblings before later ones.
    (lambda doc: edit_at(N3, **{"lambda": "x"})(doc) or edit_at((1, 0), id="")(doc),
     ModelFileError, 'root.children[1].children[0]: "id" must be a non-empty string'),
    (edit_at(N3, children=[{"id": "c", "utility": 0.0}, {"id": "c", "utility": "x"}]),
     DuplicateIdError, f"{D_PATH}.id: node id 'c' appears more than once"),
    (lambda doc: edit_at((1, 1, 1), utility=None)(doc) or edit_at(D, id="a")(doc),
     DuplicateIdError, f"{D_PATH}.id: node id 'a' appears more than once"),
    (lambda doc: edit_at((), **{"lambda": 0.5})(doc) or edit_at(D, id=1)(doc),
     ModelFileError, "root.lambda: root lambda must be 1.0, got 0.5"),
]


@pytest.mark.parametrize("mutate, exc, message", FAULTS)
def test_from_nested_fault_table(mutate, exc, message):
    doc = nested_doc()
    mutate(doc)
    with pytest.raises(exc) as info:
        from_nested(doc)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_from_nested_reads_any_mapping_and_converts_numbers_once():
    doc = nested_doc()
    node_at(doc, *N3)["children"][1] = MappingProxyType({"id": "d", "utility": 2})
    node_at(doc, 1)["lambda"] = 1  # an int lambda
    tree, utilities = from_nested(MappingProxyType(doc))
    plain = nested_doc()
    node_at(plain, 1)["lambda"] = 1.0
    assert (tree, utilities) == from_nested(plain)
    assert tree.nests == ("root", "n1", "n2", "n3")
    assert tree.leaves == ("a", "b", "c", "d", "e")
    assert tree.lam["n1"] == 1.0 and type(tree.lam["n1"]) is float
    assert utilities == {"a": 0.0, "b": 1.0, "c": -1.0, "d": 2.0, "e": 0.5}
    assert all(type(value) is float for value in utilities.values())


def test_from_nested_reads_a_400_nest_chain():
    doc = leaf = {"id": "n0", "lambda": 1.0, "children": []}
    for i in range(1, 400):
        nest = {"id": f"n{i}", "lambda": 0.99, "children": []}
        leaf["children"] += [nest, {"id": f"x{i}", "utility": float(i % 3)}]
        leaf = nest
    leaf["children"].append({"id": "end", "utility": 0.0})
    tree, utilities = from_nested(doc)
    assert len(tree.nests) == 400 and len(utilities) == 400 and max(tree.depth) == 400
    leaf["children"].append({"id": "n7", "utility": 0.0})
    with pytest.raises(DuplicateIdError, match="'n7'"):
        from_nested(doc)
    leaf["children"][-1] = {"id": "late"}
    with pytest.raises(ModelFileError, match=r"^root(\.children\[0\]){399}\.children\[1\]: node needs either"):
        from_nested(doc)


def root_path(ref, node):
    """node, its parent, ..., the root, from the reference walk: the naive
    reference for depth and lca."""
    path = [node]
    while node in ref.parent:
        node = ref.parent[node]
        path.append(node)
    return path


def assert_slots(tree):
    """The compiled form against the reference walk: nests then leaves,
    each in preorder, and slot, kids, up, scale and depth read back
    through the ids."""
    ids, ref = tree.nests + tree.leaves, walk(tree)
    assert tree.nests == tuple(node for node in ref.nodes if tree.is_nest(node))
    assert tree.leaves == tuple(node for node in ref.nodes if tree.is_leaf(node))
    assert tree.slot == {node: s for s, node in enumerate(ids)}
    assert ids[0] == tree.root and tree.up[0] == -1
    assert len(tree.kids) == len(tree.nests) and len(tree.up) == len(tree.scale) == len(tree.depth) == len(ids)
    for nest, kids in zip(tree.nests, tree.kids):
        assert tuple(ids[k] for k in kids) == tree.children[nest]
    for s in range(1, len(ids)):
        assert tree.up[s] < s
        assert ids[tree.up[s]] == ref.parent[ids[s]]
    assert tree.scale == tuple(ref.big_lambda[node] for node in ids)
    assert tree.depth == tuple(ref.depth[node] for node in ids)


def test_metrics_invariants_random_sweep():
    # build()'s stored depth, Lambda and slots against their definitions
    # on a spread of random trees
    for seed in range(25):
        tree = random_model(np.random.default_rng(seed), max_nodes=50).tree
        ref = walk(tree)
        seen = set()
        for node in ref.nodes:
            assert node not in seen  # preorder reaches each node once
            seen.add(node)
            path = root_path(ref, node)
            assert tree.depth[tree.slot[node]] == len(path) - 1
            product = 1.0
            for nest in reversed(path[1:] if tree.is_leaf(node) else path):
                product *= tree.lam[nest]  # root first, as build() multiplies
            assert tree.scale[tree.slot[node]] == product
        assert seen == set(tree.nests) | set(tree.leaves) == set(tree.slot)
        assert len(tree.depth) == len(tree.scale) == len(seen)
        assert_slots(tree)


def naive_lca(ref, a, b):
    common = set(root_path(ref, a)) & set(root_path(ref, b))
    return next(node for node in root_path(ref, a) if node in common)


def test_lca_matches_ancestor_sets_random_trees():
    for seed in range(30):
        tree = random_model(np.random.default_rng(500 + seed), max_nodes=80).tree
        ref = walk(tree)
        nodes = ref.nodes
        rng = np.random.default_rng(seed)
        for _ in range(40):
            a, b = (nodes[int(i)] for i in rng.integers(len(nodes), size=2))
            assert lca(tree, a, b) == lca(tree, b, a) == naive_lca(ref, a, b)


def test_descendant_leaves_match_ancestor_sets_random_trees():
    # the leaf-slot range against the leaves whose root path holds the node
    for seed in range(20):
        tree = random_model(np.random.default_rng(700 + seed), max_nodes=80).tree
        ref = walk(tree)
        paths = {leaf: set(root_path(ref, leaf)) for leaf in tree.leaves}
        for node in ref.nodes:
            assert descendant_leaves(tree, node) == {leaf for leaf, path in paths.items() if node in path}


def test_lca_on_deep_chain():
    depth = 3000
    children = {f"n{i}": (f"n{i + 1}", f"x{i}") for i in range(depth)}
    children[f"n{depth}"] = (f"x{depth}", f"y{depth}")
    tree = build("n0", children, {f"n{i}": 0.999 for i in range(1, depth + 1)})
    assert tree.depth[tree.slot[f"y{depth}"]] == depth + 1
    assert max(tree.depth) == depth + 1
    ref = walk(tree)
    pairs = [(f"x{depth}", f"y{depth}"), (f"y{depth}", "x0"), ("x1500", "x2999"), ("x2999", "n2999"), ("n0", "x7")]
    for a, b in pairs:
        assert lca(tree, a, b) == naive_lca(ref, a, b)
    assert lca(tree, f"x{depth}", f"y{depth}") == f"n{depth}"
    assert descendant_leaves(tree, f"n{depth - 1}") == {f"x{depth - 1}", f"x{depth}", f"y{depth}"}
    assert descendant_leaves(tree, "n0") == set(tree.leaves)
    assert_slots(tree)
    assert tree.up[depth] == depth - 1 and tree.up[-1] == 0  # n3000 under n2999; x0, last in preorder, under n0


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

    ref = walk(tree)
    nodes = ref.nodes
    rng = np.random.default_rng(len(parents))
    for _ in range(10):
        a, b = (nodes[int(i)] for i in rng.integers(len(nodes), size=2))
        assert lca(tree, a, b) == naive_lca(ref, a, b)
