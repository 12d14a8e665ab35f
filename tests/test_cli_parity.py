"""The command line's lean path against the plain one: main parses with a
parser holding only the named command, and encodes reports with
cli._dumps; both must give exactly what the full parser and
json.dumps(indent=2) give."""

import json
from pathlib import Path

import numpy as np
import pytest

import make_fingerprints as fp
import nestlogit.cli as cli
from nestlogit import DomainError, random_model, save_model

DEPTH3 = str(Path(__file__).resolve().parents[1] / "demos" / "models" / "depth3.json")
AT = ["--at", "leaf0=0", "--at", "leaf1=0.5", "--at", "leaf2=-1", "--at", "leaf3=2"]
COMMANDS = ["validate", "probs", "emax", "sample", "stable", "grad-check", "cdf", "verify", "frechet-corr"]


def outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ["probs", DEPTH3, "--bogus"],
    ["nope"],
    ["nope", DEPTH3],
    [],
    ["-h"],
    *[[command, "-h"] for command in COMMANDS],
    ["stable", "density", "-h"],
    ["stable"],
    ["stable", "nope"],
    ["--version"],
    ["--version", "probs"],
    ["probs", DEPTH3, "--version"],
    ["probs"],
    ["probs", DEPTH3, "--draws", "0"],
    ["probs", DEPTH3, "--method", "nope", "--utilities", "leaf0=1", "--utilities", "leaf1=2"],
    ["emax", DEPTH3, "--node", "a", "--all"],
    ["grad-check", DEPTH3, "extra"],
    ["stable", "density", "--lambda", "0.5"],
    ["verify", DEPTH3, "--seed", "-1"],
    # Repeated --at and --utilities go through _Parser's splice, which
    # reads the named command's repeatable flags.
    ["cdf", DEPTH3, *AT],
    ["cdf", DEPTH3, *AT, "--bogus"],
    ["cdf", DEPTH3, *AT[:6], "--at"],
    ["cdf", DEPTH3, *AT, "--utilities", "leaf0=1", "--utilities", "leaf3=-1"],
    ["cdf", DEPTH3, "--a", "leaf0=0", "--at", "leaf1=0", "--at", "leaf2=0", "--at", "leaf3=0"],
    ["probs", DEPTH3, "--utilities", "leaf0=1", "--utilities", "leaf1=2", "--utilities", "leaf2=3"],
    ["probs", DEPTH3, "--utilities", "leaf0=1", "--utilities", "leaf1=2", "--", "x"],
], ids=lambda argv: " ".join(argv).replace(DEPTH3, "depth3") or "no arguments")
def test_parse_matches_the_full_parser(capsys, monkeypatch, argv):
    lean = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda args: cli._build_parser().parse_args(args))
    assert lean == outcome(capsys, argv)


def test_a_named_command_builds_one_subparser():
    parser = cli._build_parser("cdf")
    assert list(parser._commands) == ["cdf"]
    assert list(cli._build_parser()._commands) == COMMANDS


def assert_reports_match(capsys, monkeypatch, argv):
    reports = []
    emit = cli._emit

    def recording(report, pretty):
        reports.append((report, pretty))
        emit(report, pretty)

    monkeypatch.setattr(cli, "_emit", recording)
    cli.main(argv)
    (report, pretty), = reports
    want = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    assert cli._dumps(report, "\n") == want
    if not pretty:
        assert capsys.readouterr().out == want + "\n"


@pytest.mark.parametrize("command", fp.BATTERY)
def test_fingerprint_reports_encode_as_json_dumps(capsys, monkeypatch, command):
    with fp.workdir():
        assert_reports_match(capsys, monkeypatch, fp.BATTERY[command])


@pytest.fixture(scope="module")
def wide_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("wide") / "wide.json"
    save_model(random_model(np.random.default_rng(0), max_nodes=2000), path)
    return str(path)


@pytest.mark.parametrize("args", [["validate"], ["probs"], ["emax", "--all"], ["cdf"], ["grad-check"]],
                         ids=lambda args: " ".join(args))
def test_wide_tree_reports_encode_as_json_dumps(capsys, monkeypatch, wide_path, args):
    argv = [args[0], wide_path, *args[1:]]
    if args[0] == "cdf":
        cli.main(["validate", wide_path])
        leaves = json.loads(capsys.readouterr().out)["results"]["leaves"]
        argv += [token for i, leaf in enumerate(leaves) for token in ("--at", f"{leaf}={0.5 * (i % 7)}")]
    assert_reports_match(capsys, monkeypatch, argv)


@pytest.mark.parametrize("obj", [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}]},
    [{"name": "x", "passed": True, "observed": 0.5, "detail": ""}, {"name": "y", "passed": False, "observed": 2}],
    {"quotes": 'say "hi"', "backslash": "a\\b", "newline": "a\nb\tc", "text": "λ = ½, ☃, 𝔼", "": "empty key"},
    {'k"ey\\\n': ["λ", 'q"', " ", "\x00"]},
    {"ints": [0, -1, 2**70], "bools": [True, False], "none": None, "floats": [-0.0, 5e-324, 1e308, 0.1]},
    {"z": 1, "a": {"m": [1, [2, [3, {"deep": [None]}]]], "b": 2.5}},
    [1, "two", None, True, [3.0]],
    {"tuple": (1, 2), "nested": ((1,), ())},
    "a string",
    -0.0,
])
def test_dumps_is_json_dumps_with_indent(obj):
    assert cli._dumps(obj, "\n") == json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("pretty", [False, True])
def test_nonfinite_report_names_its_first_field(capsys, pretty):
    report = {"b": {"x": [1.0, float("-inf")]}, "a": {"y": 2.0, "z": [float("nan")]}}
    with pytest.raises(DomainError, match=r"^a\.z\[0\] is nan; a report holds finite numbers only$"):
        cli._emit(report, pretty)
    with pytest.raises(DomainError, match=r"^b\.x\[1\] is -inf;"):
        cli._emit({"b": report["b"], "a": {"y": 2.0}}, pretty)
    assert capsys.readouterr().out == ""
