"""Model file parsing, diagnostics, and round-tripping."""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import nestlogit.model
from nestlogit import (
    DuplicateIdError,
    EmptyNestError,
    LambdaRangeError,
    ModelFileError,
    ModelSpec,
    NestLogitError,
    build,
    choice_probs,
    load_model,
    loads_model,
    make_model,
    model_to_doc,
    random_model,
    modelfile,
    save_model,
)
from nestlogit.cli import main
from nestlogit.tree import from_flat, from_nested
from test_tree import FAULTS, nested_doc

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "models"

GOOD = {
    "root": {
        "id": "root",
        "lambda": 1.0,
        "children": [
            {"id": "A", "lambda": 0.5, "children": [
                {"id": "1", "utility": 0.25},
                {"id": "2", "utility": -1.0},
            ]},
            {"id": "3", "utility": 0.0},
        ],
    }
}


def test_loads_model():
    model = loads_model(json.dumps(GOOD))
    assert model.tree.leaves == ("1", "2", "3")
    assert model.tree.lam["A"] == 0.5
    assert model.utilities["2"] == -1.0


def test_loading_checks_each_utility_once(tmp_path, monkeypatch):
    # from_nested converts each utility once and refuses a missing or
    # non-finite one, so loading never runs make_model's checks again.
    wide = tmp_path / "wide.json"
    save_model(random_model(np.random.default_rng(0), max_nodes=2000), wide)
    paths = [Path(__file__).resolve().parents[1] / "demos" / "models" / "depth3.json", wide]
    checked = [make_model(*from_nested(json.loads(path.read_text())["root"])) for path in paths]

    def refuse(*args):
        raise AssertionError("a loaded model's utilities were checked twice")

    monkeypatch.setattr(nestlogit.model, "_finite_values", refuse)
    for path, want in zip(paths, checked):
        model = load_model(path)
        assert model == want and list(model.utilities) == list(want.utilities)
        assert all(type(value) is float for value in model.utilities.values())


@pytest.mark.parametrize("mutate, exc, message", [row for row in FAULTS if "utility" in row[2]])
def test_loading_keeps_each_bad_utility_message(mutate, exc, message):
    doc = nested_doc()
    mutate(doc)
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        loads_model(json.dumps({"root": doc}))


def test_round_trip(tmp_path):
    model = loads_model(json.dumps(GOOD))
    path = tmp_path / "m.json"
    save_model(model, path)
    again = load_model(path)
    assert model_to_doc(again) == GOOD
    before, after = choice_probs(model), choice_probs(again)
    for leaf in before:
        assert_allclose(after[leaf], before[leaf], rtol=0)


def test_save_format(tmp_path):
    path = tmp_path / "m.json"
    save_model(loads_model(json.dumps(GOOD)), path)
    text = path.read_text()
    assert text.endswith("}\n")
    assert '  "root"' in text  # 2-space indent


def test_not_json():
    with pytest.raises(ModelFileError, match="not valid JSON"):
        loads_model("{nope")


def test_top_level_shape():
    with pytest.raises(ModelFileError, match=r"\$.*top-level object"):
        loads_model("[1, 2]")
    with pytest.raises(ModelFileError, match=r'missing top-level key "root"'):
        loads_model("{}")
    with pytest.raises(ModelFileError, match="unexpected top-level key 'extra'"):
        loads_model(json.dumps({"root": GOOD["root"], "extra": 1}))


def broken(mutate):
    doc = json.loads(json.dumps(GOOD))  # deep copy
    mutate(doc)
    return json.dumps(doc)


def test_diagnostics_carry_json_paths():
    # unknown key on a nested child is reported at its path
    text = broken(lambda d: d["root"]["children"][0]["children"][1].update(weight=2))
    with pytest.raises(ModelFileError, match=r"root\.children\[0\]\.children\[1\]: unexpected key 'weight'"):
        loads_model(text)

    text = broken(lambda d: d["root"]["children"][0].pop("lambda"))
    with pytest.raises(ModelFileError, match=r"root\.children\[0\]: missing key 'lambda'"):
        loads_model(text)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["root"]["children"][1].pop("utility"), "either"),
        (lambda d: d["root"]["children"][1].update(children=[]), "both children and a utility"),
        (lambda d: d["root"]["children"][0].update(children=[]), "must not be empty"),
        (lambda d: d["root"]["children"][0].update(children="x"), "must be a list"),
        (lambda d: d["root"]["children"][0].update({"lambda": True}), '"lambda" must be a number'),
        (lambda d: d["root"]["children"][1].update(utility="big"), '"utility" must be a number'),
        (lambda d: d["root"]["children"][1].update(utility=float("inf")), "must be finite"),
        (lambda d: d["root"]["children"][0].update(id=""), "non-empty string"),
        (lambda d: d["root"]["children"][0].update(id=7), "non-empty string"),
        (lambda d: d["root"].update({"lambda": 0.9}), "root lambda must be 1.0"),
        (lambda d: d.update(root={"id": "r", "utility": 0.0}), "must be a nest"),
    ],
)
def test_rejected_documents(mutate, message):
    with pytest.raises(ModelFileError, match=message):
        loads_model(broken(mutate))


def test_structural_errors_pass_through():
    # ids colliding across branches surface as tree-builder errors
    text = broken(lambda d: d["root"]["children"][1].update(id="1"))
    with pytest.raises(DuplicateIdError):
        loads_model(text)
    text = broken(lambda d: d["root"]["children"][0].update({"lambda": 1.5}))
    with pytest.raises(LambdaRangeError):
        loads_model(text)


def test_load_missing_file(tmp_path):
    with pytest.raises(ModelFileError, match="cannot read"):
        load_model(tmp_path / "absent.json")


def test_load_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"root": 1}')
    with pytest.raises(ModelFileError, match=r"^cannot read .*bad\.json: not UTF-8 text"):
        load_model(path)


# A JSON escape of a lone surrogate decodes to a str that no UTF-8 output
# can encode, so sample --out and --pretty could not write the id.
LONE_SURROGATE = json.dumps(GOOD).replace('"id": "2"', '"id": "2\\ud800"')


def test_lone_surrogate_id_is_refused():
    with pytest.raises(ModelFileError, match=r"^root\.children\[0\]\.children\[1\]\.id: .*lone surrogate"):
        loads_model(LONE_SURROGATE)


def test_cli_refuses_undecodable_model_files(tmp_path):
    (tmp_path / "bytes.json").write_bytes(b'\xff\xfe{"root": 1}')
    (tmp_path / "surrogate.json").write_text(LONE_SURROGATE, encoding="ascii")
    for name in ("bytes.json", "surrogate.json"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["validate", str(tmp_path / name), "--pretty"]) == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


def test_integer_literal_too_long_to_convert():
    # Valid JSON, but Python refuses to convert an integer literal of over
    # 4,300 digits.
    with pytest.raises(ModelFileError, match="^a number has too many digits to read: "):
        loads_model('{"root": ' + "9" * 5000 + "}")


def test_too_deep_to_read(deep_chain_text):
    with pytest.raises(ModelFileError, match="nests too deeply"):
        loads_model(deep_chain_text)


def _chain(height, utilities=None, leaf_first=False):
    """A root plus height - 1 nests in a line, each holding the next nest
    and one leaf (the leaf first if leaf_first), and two leaves at the
    bottom: a tree of the given height."""
    pairs = [(f"n{i + 1}", f"x{i}") for i in range(height - 1)] + [("end", f"x{height - 1}")]
    children = {f"n{i}": pair[::-1] if leaf_first else pair for i, pair in enumerate(pairs)}
    tree = build("n0", children, {f"n{i}": 0.999 for i in range(1, height)})
    if utilities is None:
        utilities = np.random.default_rng(height).normal(0.0, 10.0, len(tree.leaves)).tolist()
    return make_model(tree, dict(zip(tree.leaves, utilities)))


def _same_bits(a, b):
    # Model equality compares floats by value, where -0.0 == 0.0.
    assert a.tree == b.tree and list(a.tree.lam) == list(b.tree.lam)
    assert list(a.utilities) == list(b.utilities)
    assert [u.hex() for u in a.utilities.values()] == [u.hex() for u in b.utilities.values()]
    assert [lam.hex() for lam in a.tree.lam.values()] == [lam.hex() for lam in b.tree.lam.values()]


@pytest.mark.parametrize("height, form", [
    (modelfile.FLAT_HEIGHT - 1, "root"),
    (modelfile.FLAT_HEIGHT, "root"),
    (modelfile.FLAT_HEIGHT + 1, "nodes"),
    (3000, "nodes"),
])
def test_round_trips_either_side_of_the_flat_height(height, form, tmp_path):
    model = _chain(height)
    extremes = {"x0": -0.0, "x1": 5e-324, "x2": -1e300, "end": 0.1}
    model = make_model(model.tree, {**model.utilities, **extremes})
    path = tmp_path / "chain.json"
    save_model(model, path)
    assert list(json.loads(path.read_text())) == [form]
    again = load_model(path)
    _same_bits(again, model)
    assert choice_probs(again) == choice_probs(model)


def test_the_flat_form_writes_one_node_per_line_in_document_order(tmp_path):
    # Document preorder, not slot order: each nest's leaf comes before the
    # nest listed after it, so that the children reload in their order.
    model = _chain(modelfile.FLAT_HEIGHT + 1, leaf_first=True)
    path = tmp_path / "chain.json"
    save_model(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == '{"nodes": [' and lines[-1] == "]}"
    nodes = [json.loads(line.rstrip(",")) for line in lines[1:-1]]
    assert nodes == json.loads(path.read_text())["nodes"]
    assert nodes[:4] == [
        {"id": "n0", "parent": None, "lambda": 1.0},
        {"id": "x0", "parent": "n0", "utility": model.utilities["x0"]},
        {"id": "n1", "parent": "n0", "lambda": 0.999},
        {"id": "x1", "parent": "n1", "utility": model.utilities["x1"]},
    ]
    again = load_model(path)
    assert again.tree.children["n0"] == ("x0", "n1")
    _same_bits(again, model)


def _reference_text(model):
    # The nested writer as it stands for trees up to the flat height, from
    # a recursive walk of the tree's own description.
    tree = model.tree

    def node(name):
        if name in tree.children:
            return {"id": name, "lambda": tree.lam[name], "children": [node(kid) for kid in tree.children[name]]}
        return {"id": name, "utility": model.utilities[name]}

    return json.dumps({"root": node(tree.root)}, indent=2) + "\n"


def test_demos_and_the_wide_tree_save_as_before(tmp_path):
    path = tmp_path / "m.json"
    for demo in sorted(DEMOS.glob("*.json")):
        save_model(load_model(demo), path)
        assert path.read_bytes() == demo.read_bytes(), demo.name
    wide = random_model(np.random.default_rng(0), max_nodes=2000)
    assert max(wide.tree.depth) == 12
    save_model(wide, path)
    assert path.read_text() == _reference_text(wide)


def test_the_cli_reads_the_flat_form(tmp_path):
    path = tmp_path / "chain.json"
    save_model(_chain(3000), path)
    for command in ("validate", "grad-check"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([command, str(path)]) == 0
    assert json.loads(out.getvalue())["results"]["passed"] is True


@pytest.mark.parametrize("height", [3, 50_000])
def test_a_failed_save_leaves_no_file(height, tmp_path):
    # Serialized before the file is opened: a utility json cannot encode
    # fails the save in either form, and no file is written or truncated.
    # (50,000 nests: past every interpreter's JSON limit, so the nested
    # form could not be written at all before the flat form.)
    model = _chain(height, utilities=[0.0] * (height + 1))
    broken = ModelSpec(model.tree, {**model.utilities, "end": 1j})
    path, kept = tmp_path / "absent.json", tmp_path / "kept.json"
    kept.write_text("before\n")
    for target in (path, kept):
        with pytest.raises(TypeError, match="complex"):
            save_model(broken, target)
    assert not path.exists() and kept.read_text() == "before\n"
    save_model(model, path)
    assert load_model(path) == model


GOOD_FLAT = {"nodes": [
    {"id": "root", "parent": None, "lambda": 1.0},
    {"id": "a", "parent": "root", "utility": 0.0},
    {"id": "n1", "parent": "root", "lambda": 0.5},
    {"id": "b", "parent": "n1", "utility": 1.0},
    {"id": "c", "parent": "n1", "utility": -1.0},
]}


def test_the_flat_form_loads_as_the_nested_one():
    nested = {"root": {"id": "root", "lambda": 1.0, "children": [
        {"id": "a", "utility": 0.0},
        {"id": "n1", "lambda": 0.5, "children": [{"id": "b", "utility": 1.0}, {"id": "c", "utility": -1.0}]},
    ]}}
    assert loads_model(json.dumps(GOOD_FLAT)) == loads_model(json.dumps(nested))


def _nodes(mutate):
    doc = json.loads(json.dumps(GOOD_FLAT))  # deep copy
    mutate(doc["nodes"])
    return doc


# Every fault of the flat form, with its exact message and path.
FLAT_FAULTS = [
    (lambda n: n[3].update(parent="zz"), ModelFileError, "nodes[3].parent: 'zz' is not a nest listed before this node"),
    (lambda n: n.insert(1, n.pop(3)), ModelFileError, "nodes[1].parent: 'n1' is not a nest listed before this node"),
    (lambda n: n[2].update(parent="n1"), ModelFileError, "nodes[2].parent: 'n1' is not a nest listed before this node"),
    (lambda n: n[3].update(parent="a"), ModelFileError, "nodes[3].parent: 'a' is a leaf, not a nest"),
    (lambda n: n[3].update(parent=1), ModelFileError, 'nodes[3].parent: "parent" must be a node id, or null for the root'),
    (lambda n: n[3].update(parent=["n1"]), ModelFileError, 'nodes[3].parent: "parent" must be a node id, or null for the root'),
    (lambda n: n[4].update(id="b"), DuplicateIdError, "nodes[4].id: node id 'b' appears more than once"),
    (lambda n: n[2].update(id="root"), DuplicateIdError, "nodes[2].id: node id 'root' appears more than once"),
    (lambda n: n.clear(), ModelFileError, "nodes: the list is empty, so there is no root"),
    (lambda n: n.pop(0), ModelFileError, "nodes[0].parent: 'root' is not a nest listed before this node"),
    (lambda n: n[2].update(parent=None), ModelFileError, "nodes[2].parent: only the first node, the root, has a null parent"),
    (lambda n: n[0].update({"lambda": 0.5}), ModelFileError, "nodes[0].lambda: root lambda must be 1.0, got 0.5"),
    (lambda n: n[0].update({"lambda": 2}), ModelFileError, "nodes[0].lambda: root lambda must be 1.0, got 2"),
    (lambda n: n[0].pop("lambda") and n[0].update(utility=0.0), ModelFileError, "nodes[0]: the root must be a nest, not a leaf"),
    (lambda n: n[2].update(utility=0.0), ModelFileError, "nodes[2]: a node cannot carry both a lambda and a utility"),
    (lambda n: n[1].pop("utility"), ModelFileError, 'nodes[1]: node needs either "lambda" (nest) or "utility" (leaf)'),
    (lambda n: n[1].pop("parent"), ModelFileError, "nodes[1]: missing key 'parent'"),
    (lambda n: n[2].update(children=[]), ModelFileError, "nodes[2]: unexpected key 'children'"),
    (lambda n: n.__setitem__(1, "a"), ModelFileError, "nodes[1]: expected an object, got str"),
    (lambda n: n[2].update({"lambda": "0.5"}), ModelFileError, 'nodes[2]: "lambda" must be a number'),
    (lambda n: n[4].update(utility=10**400), ModelFileError, 'nodes[4]: "utility" does not fit in a float'),
    (lambda n: n[4].update(utility=float("inf")), ModelFileError, 'nodes[4]: "utility" must be finite'),
    (lambda n: n[3].update(id=""), ModelFileError, 'nodes[3]: "id" must be a non-empty string'),
    (lambda n: n[3].update(id="b\ud800"), ModelFileError, "nodes[3].id: 'b\\ud800' holds a lone surrogate, not Unicode text"),
    # A node's own id is not listed while its parent is checked, and its
    # number is checked before its parent, as in the nested form.
    (lambda n: n[1].update(parent="a"), ModelFileError, "nodes[1].parent: 'a' is not a nest listed before this node"),
    (lambda n: n[3].update(parent="zz", utility="x"), ModelFileError, 'nodes[3]: "utility" must be a number'),
    # The structural rules are build()'s.
    (lambda n: n.append({"id": "n2", "parent": "root", "lambda": 0.5}), EmptyNestError, "nest 'n2' has no children"),
    (lambda n: n[2].update({"lambda": 1.5}), LambdaRangeError, "lambda for nest 'n1' is 1.5, not in (0, 1]"),
]


@pytest.mark.parametrize("mutate, exc, message", FLAT_FAULTS)
def test_flat_fault_table(mutate, exc, message):
    with pytest.raises(exc) as info:
        loads_model(json.dumps(_nodes(mutate)))
    assert type(info.value) is exc
    assert str(info.value) == message


def _both_forms(index, edit):
    """GOOD_FLAT's node list and the same tree in the nested form, with
    edit applied to node index of each."""
    flat = json.loads(json.dumps(GOOD_FLAT["nodes"]))
    ids, kids = [node["id"] for node in flat], [[] for _ in flat]
    nested = [
        {"id": node["id"], "lambda": node["lambda"], "children": children} if "lambda" in node
        else {"id": node["id"], "utility": node["utility"]}
        for node, children in zip(flat, kids)
    ]
    flat[index], nested[index] = edit(flat[index]), edit(nested[index])
    for node, copy in zip(GOOD_FLAT["nodes"][1:], nested[1:]):
        kids[ids.index(node["parent"])].append(copy)
    return flat, nested[0]


def _without(*keys):
    return lambda node: {key: value for key, value in node.items() if key not in keys}


# Each node fault both forms share: the index in GOOD_FLAT of the node to
# edit, and the edit.
SHARED_FAULTS = {
    "object": (3, lambda node: [1]),
    "unexpected-key": (2, lambda node: {**node, "w": 0}),
    "missing-key": (3, _without("id")),
    "id": (3, lambda node: {**node, "id": 4}),
    "lone-surrogate": (2, lambda node: {**node, "id": "n\ud800"}),
    "duplicate": (4, lambda node: {**node, "id": "b"}),
    "lambda-number": (2, lambda node: {**node, "lambda": "0.5"}),
    "utility-number": (3, lambda node: {**node, "utility": True}),
    "utility-overflow": (4, lambda node: {**node, "utility": 10**400}),
    "lambda-overflow": (2, lambda node: {**node, "lambda": -10**400}),
    "nan": (3, lambda node: {**node, "utility": float("nan")}),
    "infinite": (1, lambda node: {**node, "utility": float("-inf")}),
    "root-leaf": (0, lambda node: {**_without("lambda", "children")(node), "utility": 0.0}),
    "root-lambda": (0, lambda node: {**node, "lambda": 0.5}),
}
# GOOD_FLAT's nodes by index, as paths in the nested form.
NESTED_PATHS = ["root", "root.children[0]", "root.children[1]", "root.children[1].children[0]", "root.children[1].children[1]"]
_NODE_PATH = re.compile(r"(root(?:\.children\[\d+\])*|nodes\[\d+\])(\.\w+)?: (.*)")


@pytest.mark.parametrize("index, edit", SHARED_FAULTS.values(), ids=list(SHARED_FAULTS))
def test_both_forms_report_a_node_fault_alike(index, edit):
    flat, nested = _both_forms(index, edit)
    faults = []
    for read, doc in ((from_flat, flat), (from_nested, nested)):
        with pytest.raises(NestLogitError) as info:
            read(doc)
        path, field, tail = _NODE_PATH.fullmatch(str(info.value)).groups()
        faults.append((path, type(info.value), field, tail))
    assert [path for path, *_ in faults] == [f"nodes[{index}]", NESTED_PATHS[index]]
    assert faults[0][1:] == faults[1][1:]


@pytest.mark.parametrize("doc, message", [
    ({"nodes": {"id": "root"}}, "nodes: expected a list, got dict"),
    ({"nodes": None}, "nodes: expected a list, got NoneType"),
    ({**GOOD, **GOOD_FLAT}, '$: a document holds "root" or "nodes", not both'),
])
def test_flat_top_level_faults(doc, message):
    with pytest.raises(ModelFileError) as info:
        loads_model(json.dumps(doc))
    assert str(info.value) == message


def _slots(value, path=()):
    """The path of every value inside a document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "lambda", "children", "utility", "w"]), inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_slots(GOOD))), JSON_VALUES), max_size=3))
def test_any_document_loads_or_fails_cleanly(edits):
    doc = json.loads(json.dumps(GOOD))
    for path, value in edits:
        target = doc
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit replaced this slot's container
    text = json.dumps(doc)
    try:
        loads_model(text)
    except NestLogitError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["validate", path]) in (0, 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_slots(GOOD_FLAT))), JSON_VALUES), max_size=3))
def test_any_flat_document_loads_or_fails_cleanly(edits):
    doc = json.loads(json.dumps(GOOD_FLAT))
    for path, value in edits:
        target = doc
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit replaced this slot's container
    try:
        loads_model(json.dumps(doc))
    except NestLogitError:
        pass
