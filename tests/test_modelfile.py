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
    LambdaRangeError,
    ModelFileError,
    NestLogitError,
    build,
    choice_probs,
    load_model,
    loads_model,
    make_model,
    model_to_doc,
    random_model,
    save_model,
)
from nestlogit.cli import main
from nestlogit.tree import from_nested
from test_tree import FAULTS, nested_doc

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


def test_too_deep_to_write_leaves_no_file(tmp_path):
    # Deep enough for the C encoder too, which serializes with an indent
    # from Python 3.13 on and has a higher limit than the Python one.
    depth = 50_000
    children = {f"n{i}": (f"n{i + 1}", f"x{i}") for i in range(depth - 1)}
    children[f"n{depth - 1}"] = ("leaf", f"x{depth - 1}")
    tree = build("n0", children, {f"n{i}": 0.9999 for i in range(1, depth)})
    path = tmp_path / "deep.json"
    with pytest.raises(ModelFileError, match="nests too deeply"):
        save_model(make_model(tree, {leaf: 0.0 for leaf in tree.leaves}), path)
    assert not path.exists()


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
