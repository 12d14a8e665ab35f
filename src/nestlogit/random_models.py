"""Random example models for tests, demos and round-trip checks.

Trees are grown by attaching each new node under a uniformly chosen
existing nest; a fraction of nodes open new nests, the rest are leaves,
and any nest still childless at the end is demoted to a leaf (the root is
protected by seeding it with a first child). Nest parameters are uniform
on [0.05, 1] and leaf utilities uniform on [-5, 5], matching the ranges
the property suites exercise.
"""

from __future__ import annotations

import numpy as np

from .model import ModelSpec, make_model
from .tree import build

__all__ = ["random_model", "random_single_layer_model"]

LAMBDA_RANGE = (0.05, 1.0)
UTILITY_RANGE = (-5.0, 5.0)
NEST_SHARE = 0.3  # random_model: the chance that a new node opens a nest
MAX_NESTS, MAX_LEAVES_PER_NEST = 5, 6  # random_single_layer_model's bounds


def _finish(rng: np.random.Generator, children: dict[str, list[str]]) -> ModelSpec:
    childless = [n for n, kids in children.items() if not kids]
    for nest in childless:
        del children[nest]  # demoted: it stays a child of its parent
    lam = {
        nest: float(rng.uniform(*LAMBDA_RANGE))
        for nest in children
        if nest != "root"
    }
    lam["root"] = 1.0
    tree = build("root", children, lam)
    utilities = {
        leaf: float(rng.uniform(*UTILITY_RANGE)) for leaf in tree.leaves
    }
    return make_model(tree, utilities)


def random_model(rng: np.random.Generator, max_nodes: int = 50) -> ModelSpec:
    """A random nest tree with between 3 and max_nodes nodes."""
    if max_nodes < 3:
        raise ValueError("need at least 3 nodes for a root, a nest or leaf, and a leaf")
    target = int(rng.integers(3, max_nodes + 1))
    children: dict[str, list[str]] = {"root": []}
    open_nests = ["root"]
    total = 1
    serial = 0
    while total < target:
        serial += 1
        parent = "root" if total == 1 else open_nests[int(rng.integers(len(open_nests)))]
        if rng.random() < NEST_SHARE and total + 1 < target:
            node = f"n{serial}"
            children[node] = []
            open_nests.append(node)
        else:
            node = f"alt{serial}"
        children[parent].append(node)
        total += 1
    return _finish(rng, children)


def random_single_layer_model(rng: np.random.Generator) -> ModelSpec:
    """A random two-level tree: root -> nests -> leaves."""
    n_nests = int(rng.integers(1, MAX_NESTS + 1))
    children: dict[str, list[str]] = {"root": []}
    serial = 0
    for i in range(n_nests):
        nest = f"n{i}"
        children["root"].append(nest)
        children[nest] = []
        for _ in range(int(rng.integers(1, MAX_LEAVES_PER_NEST + 1))):
            serial += 1
            children[nest].append(f"alt{serial}")
    return _finish(rng, children)
