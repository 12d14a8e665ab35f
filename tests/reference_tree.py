"""A test-side reference for the compiled tree.

walk() computes every node's parent, depth and cumulative Lambda, and the
depth-first preorder of the nodes, from the description alone (the tree's
root, children and lam) with a walk of its own. It shares no code with
build()'s slots or with tree.metrics, the loop that fills tree.scale and
tree.depth, so a test that reads it can catch a fault in that loop.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Walked:
    nodes: tuple[str, ...]  # depth-first preorder, children in declaration order
    parent: dict[str, str]  # every node but the root
    depth: dict[str, int]  # edges from the root
    big_lambda: dict[str, float]  # product of lambda down to the node, root first


def walk(tree) -> Walked:
    children, lam = tree.children, tree.lam
    nodes, parent = [], {}
    depth, big_lambda = {tree.root: 0}, {tree.root: 1.0}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for kid in reversed(children.get(node, ())):
            parent[kid] = node
            depth[kid] = depth[node] + 1
            big_lambda[kid] = big_lambda[node] * lam[kid] if kid in children else big_lambda[node]
            stack.append(kid)
    return Walked(tuple(nodes), parent, depth, big_lambda)
