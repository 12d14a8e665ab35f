"""Nest trees (arborescences) and their structural metrics.

A nest tree is a finite rooted tree whose internal nodes ("nests") carry a
dissimilarity parameter lambda in (0, 1] and whose leaves are the choice
alternatives. The root is a nest with lambda fixed at 1. Everything
downstream (choice probabilities, noise simulation) is driven by two
derived quantities computed here: the depth-first preorder of the nodes,
walked once when the tree is built, and the cumulative parameter Lambda,
the product of lambda over each node's root path.

Traversals are iterative throughout; deep chains must not hit the
interpreter recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    CycleError,
    DuplicateIdError,
    EmptyNestError,
    InvalidModelError,
    LambdaRangeError,
    NotANestError,
    OrphanNodeError,
    RootLambdaError,
    ShapeError,
    UnknownNodeError,
)

__all__ = ["Arborescence", "TreeMetrics", "build", "metrics", "lca", "descendant_leaves"]


@dataclass(frozen=True)
class Arborescence:
    """Validated nest tree.

    children maps each nest to its ordered child tuple; parent covers every
    node except the root; lam holds lambda for every nest (root included,
    always 1.0). nodes lists every node in depth-first preorder, children
    in declaration order, so a parent always precedes its children; nests
    and leaves are its two subsequences. Instances are immutable after
    build() and safe to share across threads.
    """

    root: str
    children: Mapping[str, tuple[str, ...]]
    parent: Mapping[str, str]
    lam: Mapping[str, float]
    nests: tuple[str, ...]
    leaves: tuple[str, ...]
    nodes: tuple[str, ...]

    def is_nest(self, node: str) -> bool:
        return node in self.children

    def is_leaf(self, node: str) -> bool:
        return node in self.parent and node not in self.children

    def require_node(self, node: str) -> None:
        if node != self.root and node not in self.parent:
            raise UnknownNodeError(f"unknown node id {node!r}")


@dataclass(frozen=True)
class TreeMetrics:
    """Per-node structural quantities, O(nodes) in time and memory.

    depth counts edges from the root; height is the longest downward path
    (0 on leaves). big_lambda[n] is the product of lambda over the nests on
    the root path of n, the node itself included when it is a nest; a leaf
    inherits its parent's value. They depend on the tree alone, so models
    that differ only in utilities share one instance.
    """

    depth: Mapping[str, int]
    height: Mapping[str, int]
    big_lambda: Mapping[str, float]


def _as_unique_children(raw: Mapping[str, Iterable[str]]) -> dict[str, tuple[str, ...]]:
    out = {}
    for nest, kids in raw.items():
        out[str(nest)] = tuple(str(k) for k in kids)
    return out


def build(
    root: str,
    children: Mapping[str, Iterable[str]],
    lam: Mapping[str, float],
) -> Arborescence:
    """Validate a raw tree description and freeze it into an Arborescence.

    Inputs
    ------
    root : id of the root nest.
    children : nest id -> ordered child ids. Every key is a nest; ids
        absent from the keys are leaves.
    lam : nest id -> dissimilarity parameter. The root entry may be
        omitted (it defaults to 1.0) but, when present, must equal 1.0.

    Raises DuplicateIdError, CycleError, EmptyNestError, LambdaRangeError,
    RootLambdaError or OrphanNodeError when the description is not a valid
    nest tree.
    """
    root = str(root)
    children = _as_unique_children(children)
    lam = {str(k): float(v) for k, v in lam.items()}

    for node in list(children) + list(lam) + [root]:
        if not node:
            raise InvalidModelError("node ids must be non-empty strings")

    parent: dict[str, str] = {}
    for nest, kids in children.items():
        if not kids:
            raise EmptyNestError(f"nest {nest!r} has no children")
        for kid in kids:
            if kid in parent:
                raise DuplicateIdError(f"node {kid!r} appears under two parents")
            if kid == nest:
                raise CycleError(f"nest {nest!r} lists itself as a child")
            parent[kid] = nest
    if root in parent:
        raise CycleError(f"root {root!r} appears as a child")
    if root not in children:
        raise EmptyNestError(f"root {root!r} has no children")

    # Reachability from the root, walked once in depth-first preorder.
    # Unreached nodes with a parent chain that loops are a cycle; unreached
    # nodes hanging off nothing are orphans.
    order = []
    reached = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for kid in reversed(children.get(node, ())):
            if kid in reached:
                raise CycleError(f"node {kid!r} reached twice from the root")
            reached.add(kid)
            stack.append(kid)

    declared = set(children) | set(lam) | set(parent)
    unreachable = declared - reached
    if unreachable:
        probe = min(unreachable)  # deterministic pick for the message
        seen = set()
        node = probe
        while node in parent:
            if node in seen:
                raise CycleError(f"nodes around {node!r} form a cycle off the root")
            seen.add(node)
            node = parent[node]
        raise OrphanNodeError(f"node {probe!r} is not reachable from root {root!r}")

    # Lambda placement and range. Nests need lambda in (0, 1]; leaves must
    # not carry one; the root is pinned at 1.
    nests = tuple(n for n in order if n in children)
    leaves = tuple(n for n in order if n not in children)
    for nest in nests:
        if nest == root:
            continue
        if nest not in lam:
            raise LambdaRangeError(f"nest {nest!r} has no lambda")
        value = lam[nest]
        if not (0.0 < value <= 1.0) or not math.isfinite(value):
            raise LambdaRangeError(f"lambda for nest {nest!r} is {value!r}, not in (0, 1]")
    if root in lam and lam[root] != 1.0:
        raise RootLambdaError(f"root lambda must be 1.0, got {lam[root]!r}")
    for node in lam:
        if node not in children:
            raise LambdaRangeError(f"lambda given for {node!r}, which is not a nest")

    lam_full = {n: (1.0 if n == root else lam[n]) for n in nests}
    return Arborescence(
        root=root,
        children=children,
        parent=parent,
        lam=lam_full,
        nests=nests,
        leaves=leaves,
        nodes=tuple(order),
    )


def from_nested(doc: Mapping) -> tuple[Arborescence, dict[str, float]]:
    """Flatten a nested node document into an Arborescence plus utilities.

    The document is the in-memory form of the model file: a nest is a dict
    with "id", "lambda" and a non-empty "children" list; a leaf has "id"
    and "utility". Returns the built tree and the leaf utility map.
    Structural validation is delegated to build(); schema validation (key
    spelling, types) belongs to the model file reader.
    """
    children: dict[str, list[str]] = {}
    lam: dict[str, float] = {}
    utilities: dict[str, float] = {}
    seen: set[str] = set()

    root_id = str(doc["id"])
    stack = [doc]
    while stack:
        node = stack.pop()
        node_id = str(node["id"])
        if node_id in seen:
            raise DuplicateIdError(f"node id {node_id!r} appears more than once")
        seen.add(node_id)
        if "children" in node:
            lam[node_id] = float(node["lambda"])
            children[node_id] = [str(kid["id"]) for kid in node["children"]]
            stack.extend(node["children"])
        else:
            utilities[node_id] = float(node["utility"])

    tree = build(root_id, children, lam)
    return tree, utilities


def metrics(tree: Arborescence) -> TreeMetrics:
    """Depth, height and cumulative Lambda for every node."""
    depth: dict[str, int] = {tree.root: 0}
    big_lambda: dict[str, float] = {tree.root: 1.0}

    order = tree.nodes
    for node in order:
        if node == tree.root:
            continue
        par = tree.parent[node]
        depth[node] = depth[par] + 1
        if tree.is_nest(node):
            big_lambda[node] = big_lambda[par] * tree.lam[node]
        else:
            # A leaf shares the cumulative parameter of its parent nest.
            big_lambda[node] = big_lambda[par]

    height: dict[str, int] = {}
    for node in reversed(order):  # children precede parents
        kids = tree.children.get(node, ())
        height[node] = 1 + max(height[k] for k in kids) if kids else 0

    return TreeMetrics(depth=depth, height=height, big_lambda=big_lambda)


def lca(tree: Arborescence, a: str, b: str) -> str:
    """Lowest common ancestor of two nodes.

    Walks both parent chains after equalizing depths; O(depth) per query,
    which is all these small trees ever need. lca(x, x) = x and the root
    is a universal ancestor.
    """
    tree.require_node(a)
    tree.require_node(b)

    def chain_depth(node: str) -> int:
        d = 0
        while node != tree.root:
            node = tree.parent[node]
            d += 1
        return d

    da, db = chain_depth(a), chain_depth(b)
    while da > db:
        a = tree.parent[a]
        da -= 1
    while db > da:
        b = tree.parent[b]
        db -= 1
    while a != b:
        a = tree.parent[a]
        b = tree.parent[b]
    return a


def descendant_leaves(tree: Arborescence, node: str) -> frozenset[str]:
    """Set of leaves below a node; a leaf yields the singleton of itself."""
    tree.require_node(node)
    if tree.is_leaf(node):
        return frozenset((node,))
    found = []
    stack = [node]
    while stack:
        cur = stack.pop()
        kids = tree.children.get(cur, ())
        if kids:
            stack.extend(kids)
        else:
            found.append(cur)
    return frozenset(found)


def require_nest(tree: Arborescence, node: str) -> None:
    """Raise unless node is a nest of the tree."""
    tree.require_node(node)
    if not tree.is_nest(node):
        raise NotANestError(f"node {node!r} is a leaf, expected a nest")


def require_two_level(tree: Arborescence) -> tuple[str, ...]:
    """The root's children, after checking the tree is root -> nests ->
    leaves; raises ShapeError otherwise."""
    nests = tree.children[tree.root]
    for nest in nests:
        if not tree.is_nest(nest):
            raise ShapeError(f"root child {nest!r} is a leaf, need root -> nests -> leaves")
        for leaf in tree.children[nest]:
            if tree.is_nest(leaf):
                raise ShapeError(f"nest {nest!r} contains nest {leaf!r}, tree is deeper than 2")
    return nests
