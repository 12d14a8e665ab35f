"""Shared fixtures: the two reference models used across the suite, and a
model document nested too deeply for the JSON reader."""

import pytest

from nestlogit import build, make_model


@pytest.fixture
def depth3_model():
    # root -> {a(0.5) -> {b(0.5) -> {leaf0, leaf1}, leaf2}, leaf3}, U = 0
    tree = build(
        "root",
        {"root": ("a", "leaf3"), "a": ("b", "leaf2"), "b": ("leaf0", "leaf1")},
        {"a": 0.5, "b": 0.5},
    )
    return make_model(tree, {leaf: 0.0 for leaf in tree.leaves})


@pytest.fixture
def single_layer_model():
    # two nests A = {1, 2} with lambda 0.5 and B = {3} with lambda 1, U = 0
    tree = build(
        "root",
        {"root": ("A", "B"), "A": ("1", "2"), "B": ("3",)},
        {"A": 0.5, "B": 1.0},
    )
    return make_model(tree, {"1": 0.0, "2": 0.0, "3": 0.0})


@pytest.fixture
def deep_chain_text():
    # 50,000 nests, each holding the next and a leaf: past the JSON reader's
    # limit on every supported interpreter (about 495 nests on 3.10 and 3.11,
    # which use the recursion limit; a few hundred to a few thousand on 3.12
    # and later, which use a separate C limit). Written out by hand: json.dumps
    # would recurse as deeply as json.loads.
    depth = 50_000
    opens = "".join(f'{{"id": "n{i}", "lambda": {1.0 if i == 0 else 0.5}, "children": [' for i in range(depth))
    closes = "".join(f', {{"id": "x{i}", "utility": 0.0}}]}}' for i in reversed(range(depth)))
    return '{"root": ' + opens + '{"id": "leaf", "utility": 0.0}' + closes + "}"
