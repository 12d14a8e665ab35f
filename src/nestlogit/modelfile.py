"""Reading and writing model files.

A model file is a JSON document in one of two forms. The nested form has
a single "root" key holding the nest tree. A nest is {"id": str,
"lambda": number, "children": [node, ...]} with a non-empty child list;
a leaf is {"id": str, "utility": number}. The flat form has a single
"nodes" key holding a list of nodes in document preorder: a nest is
{"id": str, "parent": str | null, "lambda": number}, a leaf {"id": str,
"parent": str, "utility": number}, the root comes first with a null
parent, and every other node names a nest listed before it. Either way
the root's lambda must be exactly 1.0. Examples live under demos/models.

This module owns the JSON text: decoding, the top-level key and writing.
tree.from_nested and tree.from_flat, one pass over the nodes each, own
the node schemas and report each violation with the JSON path of the
offending node (for instance root.children[1].lambda or nodes[3].parent)
so files can be fixed without guesswork; tree.build owns the structural
rules. A model takes their utilities as they stand, checked once.

model_to_doc assembles the document from the compiled tree without
recursion. Up to FLAT_HEIGHT levels it is the nested form, which the
JSON reader and writer handle on every supported interpreter. Past it
the document is the flat form, whose depth is the same at any height,
so any tree build() accepts can be saved and loaded. A nested document
deeper than the JSON reader allows (about 495 nests on Python 3.10 and
3.11, which use the recursion limit, and more from 3.12 on) is refused
with a ModelFileError.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from .errors import ModelFileError
from .model import ModelSpec
from .tree import from_flat, from_nested

__all__ = ["load_model", "loads_model", "save_model", "model_to_doc"]

FLAT_HEIGHT = 256  # the tallest tree saved in the nested form

_TOO_DEEP = "the document nests too deeply for the JSON reader"


def loads_model(text: str) -> ModelSpec:
    """Parse a model document, nested or flat, from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ModelFileError(f"a number has too many digits to read: {exc}") from exc
    except RecursionError:
        raise ModelFileError(_TOO_DEEP) from None
    if not isinstance(doc, Mapping):
        raise ModelFileError(f"$: expected a top-level object, got {type(doc).__name__}")
    unknown = set(doc) - {"root", "nodes"}
    if unknown:
        raise ModelFileError(f"$: unexpected top-level key {sorted(unknown)[0]!r}")
    if "nodes" in doc:
        if "root" in doc:
            raise ModelFileError('$: a document holds "root" or "nodes", not both')
        nodes = doc["nodes"]
        if not isinstance(nodes, list):
            raise ModelFileError(f"nodes: expected a list, got {type(nodes).__name__}")
        return ModelSpec(*from_flat(nodes))
    if "root" not in doc:
        raise ModelFileError('$: missing top-level key "root" (or "nodes")')
    return ModelSpec(*from_nested(doc["root"]))


def load_model(path) -> ModelSpec:
    """Read and validate a model file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"cannot read {path}: not UTF-8 text, invalid byte at offset {exc.start}") from None
    return loads_model(text)


def model_to_doc(model: ModelSpec) -> dict:
    """The document save_model writes, suitable for json.dump: the nested
    form up to FLAT_HEIGHT levels, the flat form past it."""
    tree = model.tree
    if max(tree.depth) > FLAT_HEIGHT:
        return {"nodes": _flat_nodes(model)}
    built = {leaf: {"id": leaf, "utility": model.utilities[leaf]} for leaf in tree.leaves}
    for nest in reversed(tree.nests):  # a child nest comes after its parent in preorder
        built[nest] = {
            "id": nest,
            "lambda": tree.lam[nest],
            "children": [built[kid] for kid in tree.children[nest]],
        }
    return {"root": built[tree.root]}


def _flat_nodes(model: ModelSpec) -> list[dict]:
    # The nodes in document preorder, nests and leaves interleaved as the
    # nested form lists them, so that each nest's children reload in order.
    # (Slot order would put every nest before every leaf.)
    tree = model.tree
    ids, n_nests = tree.nests + tree.leaves, len(tree.kids)
    nodes, stack = [], [0]
    while stack:
        s = stack.pop()
        node_id, parent = ids[s], ids[tree.up[s]] if s else None
        if s < n_nests:
            nodes.append({"id": node_id, "parent": parent, "lambda": tree.lam[node_id]})
            stack += reversed(tree.kids[s])
        else:
            nodes.append({"id": node_id, "parent": parent, "utility": model.utilities[node_id]})
    return nodes


def save_model(model: ModelSpec, path) -> None:
    """Write the model as a JSON document with a trailing newline: the
    nested form with a 2-space indent up to FLAT_HEIGHT levels, the flat
    form with one node per line past it."""
    # Serialized before the file is opened, so a failure leaves no file.
    doc = model_to_doc(model)
    if "nodes" in doc:
        # json's C encoder writes the whole list in one call. A string
        # cannot hold an unescaped quote, so '}, {"id": ' occurs only
        # between two nodes, and the newline goes between tokens.
        nodes = json.dumps(doc["nodes"])[1:-1].replace('}, {"id": ', '},\n  {"id": ')
        text = '{"nodes": [\n  ' + nodes + "\n]}"
    else:
        text = json.dumps(doc, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")
