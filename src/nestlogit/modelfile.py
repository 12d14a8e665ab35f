"""Reading and writing model files.

A model file is a JSON document with a single "root" key holding the nest
tree. A nest is {"id": str, "lambda": number, "children": [node, ...]}
with a non-empty child list; a leaf is {"id": str, "utility": number}.
The root's lambda must be exactly 1.0. Examples live under demos/models.

Schema violations are reported with the JSON path of the offending node
(for instance root.children[1].lambda) so files can be fixed without
guesswork; structural violations (duplicate ids, bad lambda ranges) are
raised by the tree builder with their own diagnostics. Utilities are only
legal on leaves; a "utility" on a nest is rejected rather than ignored.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

from .errors import ModelFileError
from .model import ModelSpec, make_model
from .tree import from_nested

__all__ = ["load_model", "loads_model", "save_model", "model_to_doc"]

_NEST_KEYS = {"id", "lambda", "children"}
_LEAF_KEYS = {"id", "utility"}


def _fail(path: str, message: str) -> ModelFileError:
    return ModelFileError(f"{path}: {message}")


def _check_node(node, path: str) -> None:
    """Iteratively validate types and key spelling of the node document."""
    stack = [(node, path)]
    while stack:
        cur, where = stack.pop()
        if not isinstance(cur, Mapping):
            raise _fail(where, f"expected an object, got {type(cur).__name__}")
        keys = set(cur)
        if "children" in keys and "utility" in keys:
            raise _fail(where, "a node cannot carry both children and a utility")
        if "children" in keys:
            expected = _NEST_KEYS
        elif "utility" in keys:
            expected = _LEAF_KEYS
        else:
            raise _fail(where, 'node needs either "children" (nest) or "utility" (leaf)')
        unknown = keys - expected
        if unknown:
            raise _fail(where, f"unexpected key {sorted(unknown)[0]!r}")
        missing = expected - keys
        if missing:
            raise _fail(where, f"missing key {sorted(missing)[0]!r}")
        if not isinstance(cur["id"], str) or not cur["id"]:
            raise _fail(where, '"id" must be a non-empty string')
        if "children" in keys:
            if not isinstance(cur["lambda"], (int, float)) or isinstance(cur["lambda"], bool):
                raise _fail(where, '"lambda" must be a number')
            if not isinstance(cur["children"], list):
                raise _fail(where, '"children" must be a list')
            if not cur["children"]:
                raise _fail(where, '"children" must not be empty')
            for i, kid in enumerate(cur["children"]):
                stack.append((kid, f"{where}.children[{i}]"))
        else:
            value = cur["utility"]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise _fail(where, '"utility" must be a number')
            if not math.isfinite(float(value)):
                raise _fail(where, '"utility" must be finite')


def loads_model(text: str) -> ModelSpec:
    """Parse a model document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise _fail("$", f"expected a top-level object, got {type(doc).__name__}")
    unknown = set(doc) - {"root"}
    if unknown:
        raise _fail("$", f"unexpected top-level key {sorted(unknown)[0]!r}")
    if "root" not in doc:
        raise _fail("$", 'missing top-level key "root"')
    _check_node(doc["root"], "root")
    if "children" not in doc["root"]:
        raise _fail("root", "the root must be a nest, not a leaf")
    if float(doc["root"]["lambda"]) != 1.0:
        raise _fail("root.lambda", f"root lambda must be 1.0, got {doc['root']['lambda']!r}")
    tree, utilities = from_nested(doc["root"])
    return make_model(tree, utilities)


def load_model(path) -> ModelSpec:
    """Read and validate a model file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return loads_model(text)


def model_to_doc(model: ModelSpec) -> dict:
    """Nested document form of a model, suitable for json.dump."""
    tree = model.tree
    built: dict[str, dict] = {}
    for node in reversed(tree.nodes):  # children first
        if tree.is_nest(node):
            built[node] = {
                "id": node,
                "lambda": tree.lam[node],
                "children": [built[kid] for kid in tree.children[node]],
            }
        else:
            built[node] = {"id": node, "utility": model.utilities[node]}
    return {"root": built[tree.root]}


def save_model(model: ModelSpec, path) -> None:
    """Write the model as a JSON document (2-space indent, trailing newline)."""
    doc = model_to_doc(model)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
