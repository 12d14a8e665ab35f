"""Reading and writing model files.

A model file is a JSON document with a single "root" key holding the nest
tree. A nest is {"id": str, "lambda": number, "children": [node, ...]}
with a non-empty child list; a leaf is {"id": str, "utility": number}.
The root's lambda must be exactly 1.0. Examples live under demos/models.

This module owns the JSON text: decoding, the top-level "root" key and
writing. tree.from_nested, the one walk over the nodes, owns the node
schema and reports each violation with the JSON path of the offending
node (for instance root.children[1].lambda) so files can be fixed
without guesswork; tree.build owns the structural rules. A model takes
from_nested's utilities as they stand, checked once. model_to_doc
assembles the document from the compiled tree without recursion: the
leaves first, then the nests in reverse preorder. The JSON reader and
writer recurse once per level, so a document nested deeper
than the interpreter allows is refused with a ModelFileError. The limit
depends on the interpreter version: about 495 nests on Python 3.10 and
3.11, which use the recursion limit, and more from 3.12 on.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from .errors import ModelFileError
from .model import ModelSpec
from .tree import from_nested

__all__ = ["load_model", "loads_model", "save_model", "model_to_doc"]

_TOO_DEEP = "the document nests too deeply for the JSON reader"


def loads_model(text: str) -> ModelSpec:
    """Parse a model document from a JSON string."""
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
    unknown = set(doc) - {"root"}
    if unknown:
        raise ModelFileError(f"$: unexpected top-level key {sorted(unknown)[0]!r}")
    if "root" not in doc:
        raise ModelFileError('$: missing top-level key "root"')
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
    """Nested document form of a model, suitable for json.dump."""
    tree = model.tree
    built = {leaf: {"id": leaf, "utility": model.utilities[leaf]} for leaf in tree.leaves}
    for nest in reversed(tree.nests):  # a child nest comes after its parent in preorder
        built[nest] = {
            "id": nest,
            "lambda": tree.lam[nest],
            "children": [built[kid] for kid in tree.children[nest]],
        }
    return {"root": built[tree.root]}


def save_model(model: ModelSpec, path) -> None:
    """Write the model as a JSON document (2-space indent, trailing newline)."""
    # Serialized before the file is opened, so a failure leaves no file.
    try:
        text = json.dumps(model_to_doc(model), indent=2)
    except RecursionError:
        raise ModelFileError(_TOO_DEEP) from None
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")
