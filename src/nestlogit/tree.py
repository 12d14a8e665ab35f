"""Nest trees (arborescences), compiled once into slots.

A nest tree is a finite rooted tree whose internal nodes ("nests") carry a
dissimilarity parameter lambda in (0, 1] and whose leaves are the choice
alternatives. The root is a nest with lambda fixed at 1. build() keeps the
description it was given and compiles it once into slots, the one index
form of the tree: each node gets a number, the nests in depth-first
preorder and then the leaves in preorder, and each nest's child slots,
each node's parent slot, depth and cumulative parameter Lambda (the
product of lambda over its root path) are stored by slot. Everything
downstream (choice probabilities, noise simulation) reads those slots.
They depend on the tree alone, so models that differ only in utilities
share them.

build() owns the structural rules (non-empty, writable ids, lambda in
(0, 1], a nonzero Lambda, no cycles, orphans or empty nests);
from_nested() and from_flat() own the schemas of a model file's two node
documents, the nested tree and the flat node list, check each node with
one shared routine and report each fault with its JSON path. The
modelfile module only decodes and writes the JSON text.

Traversals are iterative throughout; deep chains must not hit the
interpreter recursion limit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping

from .errors import (
    CycleError,
    DuplicateIdError,
    EmptyNestError,
    InvalidModelError,
    LambdaRangeError,
    ModelFileError,
    NotALeafError,
    NotANestError,
    OrphanNodeError,
    RootLambdaError,
    ShapeError,
    UnknownNodeError,
)

__all__ = ["Arborescence", "build", "from_nested", "lca", "descendant_leaves"]


class Arborescence(namedtuple("Arborescence", "root children lam nests leaves slot kids up scale depth")):
    """Validated nest tree.

    root, children and lam are the description build() was given:
    children maps each nest to its ordered child tuple, and lam holds
    lambda for every nest (root included, always 1.0). The rest is its
    compiled form. slot numbers every node: nests holds the nests in
    depth-first preorder, children in declaration order, at slots
    0..N-1, and leaves the leaves in the same order at slots N..N+L-1.
    By slot, kids[i] holds nest i's child slots, up[s] the parent slot of
    s (-1 for the root, else below s), scale[s] its Lambda, the product of
    lambda over the nests on its root path (a leaf inherits its parent's
    value), and depth[s] its number of edges from the root, so the
    tree's height is max(depth). Instances are immutable named tuples,
    compared field by field, and safe to share across threads.
    """

    __slots__ = ()

    def is_nest(self, node: str) -> bool:
        return node in self.children

    def is_leaf(self, node: str) -> bool:
        return node in self.slot and node not in self.children

    def require_node(self, node: str) -> None:
        if node not in self.slot:
            raise UnknownNodeError(f"unknown node id {node!r}")


def metrics(up: tuple[int, ...], lam: list[float]) -> tuple[list[int], list[float]]:
    """Depth and cumulative Lambda by slot, from the parent slots and lambda
    by slot (1.0 at the root and at the leaves); build() calls it once."""
    depth, scale = [0], [1.0]
    for par, value in zip(up[1:], lam[1:]):
        depth.append(depth[par] + 1)
        scale.append(scale[par] * value)
    return depth, scale


def to_float(value) -> float:
    """float(value), reading an integer past float range as a signed infinity
    that the range and finiteness checks then reject by name."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def build(
    root: str,
    children: Mapping[str, Iterable[str]],
    lam: Mapping[str, float],
) -> Arborescence:
    """Validate a raw tree description and compile it, once, into an
    Arborescence with its slots, depths and cumulative Lambda.

    Inputs
    ------
    root : id of the root nest.
    children : nest id -> ordered child ids. Every key is a nest; ids
        absent from the keys are leaves.
    lam : nest id -> dissimilarity parameter. The root entry may be
        omitted (it defaults to 1.0) but, when present, must equal 1.0.

    Raises DuplicateIdError, CycleError, EmptyNestError, LambdaRangeError,
    RootLambdaError or OrphanNodeError when the description is not a valid
    nest tree, and InvalidModelError for an empty id or one that is not
    Unicode text (a lone surrogate), which no model file could hold.
    """
    root = str(root)
    children = {str(nest): tuple(map(str, kids)) for nest, kids in children.items()}
    lam = {str(k): to_float(v) for k, v in lam.items()}

    if not root or "" in children or "" in lam or any("" in kids for kids in children.values()):
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

    # Depth-first preorder from the root, split into nests and leaves. With
    # one parent per node and none for the root, it meets each node once;
    # a declared node it misses is on a cycle or hangs off nothing (orphan).
    nests, leaves = [], []
    stack = [root]
    while stack:
        node = stack.pop()
        if node in children:
            nests.append(node)
            stack.extend(reversed(children[node]))
        else:
            leaves.append(node)

    ids = nests + leaves
    slot = dict(zip(ids, range(len(ids))))
    if not children.keys() <= slot.keys() or not parent.keys() <= slot.keys() or not lam.keys() <= slot.keys():
        unreachable = (children.keys() | lam.keys() | parent.keys()).difference(slot)
        probe = min(unreachable)  # deterministic pick for the message
        seen = set()
        node = probe
        while node in parent:
            if node in seen:
                raise CycleError(f"nodes around {node!r} form a cycle off the root")
            seen.add(node)
            node = parent[node]
        raise OrphanNodeError(f"node {probe!r} is not reachable from root {root!r}")
    if not _writable("".join(ids)):  # UTF-8 refuses every surrogate, so none spans two ids
        bad = next(node for node in ids if not _writable(node))
        raise InvalidModelError(f"node id {bad!r} holds a lone surrogate, not Unicode text")

    # Lambda placement and range. Nests need lambda in (0, 1]; leaves must
    # not carry one; the root is pinned at 1.
    lam_full = {root: 1.0}
    for nest in nests[1:]:  # the root comes first
        if nest not in lam:
            raise LambdaRangeError(f"nest {nest!r} has no lambda")
        value = lam_full[nest] = lam[nest]
        if not (0.0 < value <= 1.0):
            raise LambdaRangeError(f"lambda for nest {nest!r} is {value!r}, not in (0, 1]")
    if root in lam and lam[root] != 1.0:
        raise RootLambdaError(f"root lambda must be 1.0, got {lam[root]!r}")
    for node in lam:
        if node not in children:
            raise LambdaRangeError(f"lambda given for {node!r}, which is not a nest")

    up = (-1, *map(slot.__getitem__, map(parent.__getitem__, ids[1:])))
    depth, scale = metrics(up, [*lam_full.values(), *[1.0] * len(leaves)])
    if 0.0 in scale:  # nests come first, so this names the first in preorder
        raise LambdaRangeError(f"the product of lambda down to nest {ids[scale.index(0.0)]!r} underflows to 0")
    return Arborescence(
        root=root,
        children=children,
        lam=lam_full,
        nests=tuple(nests),
        leaves=tuple(leaves),
        slot=slot,
        kids=tuple(tuple(map(slot.__getitem__, children[nest])) for nest in nests),
        up=up,
        scale=tuple(scale),
        depth=tuple(depth),
    )


def _writable(text: str) -> bool:
    """Whether text encodes as UTF-8. A JSON escape can decode to a lone
    surrogate, which does not, and which no output can then write."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _read_node(node, form: tuple, lam: Mapping, utilities: Mapping, fault) -> tuple[str, bool, float]:
    """(id, is_nest, value) of one node of either model-file form, its
    lambda or utility converted once, or the first fault, built by
    fault(message, field="", error=ModelFileError) with the node's path.
    form is (marker, nest keys, leaf keys, wording): a nest holds the
    marker and exactly the nest keys, a leaf "utility" and exactly the
    leaf keys. lam and utilities hold the ids read so far."""
    marker, nest_keys, leaf_keys, both = form
    if type(node) is not dict and not isinstance(node, Mapping):
        raise fault(f"expected an object, got {type(node).__name__}")
    if marker in node:
        if "utility" in node:
            raise fault(f"a node cannot carry both {both} and a utility")
        expected, key, is_nest = nest_keys, "lambda", True
    elif "utility" in node:
        expected, key, is_nest = leaf_keys, "utility", False
    else:
        raise fault(f'node needs either "{marker}" (nest) or "utility" (leaf)')
    if node.keys() != expected:
        keys = set(node)
        if unknown := keys - expected:
            raise fault(f"unexpected key {sorted(unknown)[0]!r}")
        raise fault(f"missing key {sorted(expected - keys)[0]!r}")
    node_id = node["id"]
    if not isinstance(node_id, str) or not node_id:
        raise fault('"id" must be a non-empty string')
    if not node_id.isascii() and not _writable(node_id):
        raise fault(f"{node_id!r} holds a lone surrogate, not Unicode text", ".id")
    if node_id in lam or node_id in utilities:
        raise fault(f"node id {node_id!r} appears more than once", ".id", DuplicateIdError)
    value = node[key]
    if type(value) is not float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise fault(f'"{key}" must be a number')
        try:
            value = float(value)
        except OverflowError:  # an integer literal past float range
            raise fault(f'"{key}" does not fit in a float') from None
    if not is_nest and not math.isfinite(value):
        raise fault('"utility" must be finite')
    return node_id, is_nest, value


def _check_root(node: Mapping, is_nest: bool, value: float, fault) -> None:
    if not is_nest:
        raise fault("the root must be a nest, not a leaf")
    if value != 1.0:
        raise fault(f"root lambda must be 1.0, got {node['lambda']!r}", ".lambda")


def from_nested(doc: Mapping) -> tuple[Arborescence, dict[str, float]]:
    """Read a nested node document into an Arborescence plus utilities.

    The document is the "root" object of a nested model file: a nest is a
    dict with exactly "id", "lambda" and a non-empty "children" list, a
    leaf one with exactly "id" and "utility". One walk in document order
    gives each node the check from_flat shares and raises at the first
    fault with its JSON path (for instance root.children[1].lambda),
    built only then from the child lists read so far: DuplicateIdError
    for a repeated id, else ModelFileError. build() then applies the
    structural rules. Returns the tree and the leaf utility map.
    """
    children: dict[str, list[str]] = {}
    up: dict[str, str | None] = {}  # nest -> its parent nest, for the path of a fault
    lam: dict[str, float] = {}
    utilities: dict[str, float] = {}
    form = ("children", {"id", "lambda", "children"}, {"id", "utility"}, "children")

    def fault(message: str, field: str = "", error=ModelFileError) -> InvalidModelError:
        # The node being read is the next child of parent.
        steps, node, at = [], None, parent
        while at is not None:
            steps.append(len(children[at]) if node is None else children[at].index(node))
            node, at = at, up[at]
        path = "".join(f".children[{i}]" for i in reversed(steps))
        return error(f"root{path}{field}: {message}")

    stack: list[tuple[object, str | None]] = [(doc, None)]
    while stack:
        node, parent = stack.pop()
        node_id, is_nest, value = _read_node(node, form, lam, utilities, fault)
        if is_nest:
            kids = node["children"]
            if not isinstance(kids, list):
                raise fault('"children" must be a list')
            if not kids:
                raise fault('"children" must not be empty')
            lam[node_id] = value
            children[node_id] = []  # filled as each child is read
            up[node_id] = parent
            stack += [(kid, node_id) for kid in reversed(kids)]
        else:
            utilities[node_id] = value
        if parent is not None:
            children[parent].append(node_id)
        else:
            _check_root(node, is_nest, value, fault)
    return build(doc["id"], children, lam), utilities


def from_flat(nodes: list) -> tuple[Arborescence, dict[str, float]]:
    """Read the flat node list of a model file into an Arborescence plus
    utilities.

    The list is the "nodes" array of a model file: a nest is a dict with
    exactly "id", "parent" and "lambda", a leaf one with exactly "id",
    "parent" and "utility". The root comes first, with a null parent;
    every other node names as its parent a nest listed before it, so one
    pass in list order reads the tree, nothing recurses, and no list can
    describe a cycle. A nest's children are the nodes that name it, in
    list order. Each node gets from_nested's check, then its parent's, and
    a fault raises as there, with the path nodes[i] or nodes[i].field.
    build() then applies the structural rules.
    """
    children: dict[str, list[str]] = {}
    lam: dict[str, float] = {}
    utilities: dict[str, float] = {}
    form = ("lambda", {"id", "parent", "lambda"}, {"id", "parent", "utility"}, "a lambda")

    def fault(message: str, field: str = "", error=ModelFileError) -> InvalidModelError:
        return error(f"nodes[{i}]{field}: {message}")

    for i, node in enumerate(nodes):
        node_id, is_nest, value = _read_node(node, form, lam, utilities, fault)
        # Checked before the node is stored: a node naming itself is not listed yet.
        parent = node["parent"]
        if type(parent) is str and parent in children:
            children[parent].append(node_id)
        elif parent is None:
            if i:
                raise fault("only the first node, the root, has a null parent", ".parent")
            _check_root(node, is_nest, value, fault)
        elif not isinstance(parent, str):
            raise fault('"parent" must be a node id, or null for the root', ".parent")
        elif parent in utilities:
            raise fault(f"{parent!r} is a leaf, not a nest", ".parent")
        else:
            raise fault(f"{parent!r} is not a nest listed before this node", ".parent")
        if is_nest:
            lam[node_id] = value
            children[node_id] = []  # filled as each child is read
        else:
            utilities[node_id] = value
    if not children:
        raise ModelFileError("nodes: the list is empty, so there is no root")
    return build(next(iter(children)), children, lam), utilities


def lca(tree: Arborescence, a: str, b: str) -> str:
    """Lowest common ancestor of two nodes.

    A parent's slot is below its child's, so the node with the larger slot
    is never an ancestor of the other, and climbing it keeps the answer;
    O(distance to the ancestor) per query. lca(x, x) = x and the root is a
    universal ancestor.
    """
    tree.require_node(a)
    tree.require_node(b)
    up, s, t = tree.up, tree.slot[a], tree.slot[b]
    while s != t:
        s, t = (up[s], t) if s > t else (s, up[t])
    return a if a == b else tree.nests[s]  # a common ancestor of two nodes is a nest


def descendant_leaves(tree: Arborescence, node: str) -> frozenset[str]:
    """Set of leaves below a node; a leaf yields the singleton of itself.

    Leaves are numbered in preorder, so those below a node take the
    consecutive slots from its first-child descent to its last-child
    descent; O(depth) to find, plus the leaves returned.
    """
    tree.require_node(node)
    kids, n = tree.kids, len(tree.nests)
    first = last = tree.slot[node]
    while first < n:
        first = kids[first][0]
    while last < n:
        last = kids[last][-1]
    return frozenset(tree.leaves[first - n:last - n + 1])


def require_nest(tree: Arborescence, node: str) -> None:
    """Raise unless node is a nest of the tree."""
    tree.require_node(node)
    if not tree.is_nest(node):
        raise NotANestError(f"node {node!r} is a leaf, expected a nest")


def require_leaf(tree: Arborescence, node: str, why: str) -> None:
    """Raise unless node is a leaf of the tree; why ends the message."""
    tree.require_node(node)
    if not tree.is_leaf(node):
        raise NotALeafError(f"node {node!r} is a nest, {why}")


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
