"""Two properties over random command lines.

Built from the parser's own subcommands and flags, with each value drawn
from a valid one and a set of edge cases, every command line exits 0, 1 or
2 and none ends in a traceback. main runs in process, so an escaping
exception fails the test with the command line that raised it. A report on
stdout must be strict JSON: NaN and Infinity are not JSON.

Built from repeats of --at and --utilities in every form argparse reads
them, the CLI's parser gives what plain argparse gives: the same namespace
and leftovers, or the same exit code and output."""

import argparse
import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nestlogit import cli

# Values every numeric flag is tried with, next to a valid one.
EDGE = ("0", "-1", "-800", "nan", "inf", "1e308", "1e-300", "1000000000000000", "abc")
VALID = {
    "draws": "64", "mc": "64", "seed": "7", "threads": "2", "lam": "0.5", "x": "1",
    "kappa": "0.25", "t": "1", "alpha": "8", "node": "a", "out": "noise.csv",
}
# Drawn on every command that takes it: the defaults draw up to a million.
ALWAYS = {"draws"}
LEAVES = ("leaf0", "leaf1", "leaf2", "leaf3", "nope")
MODELS = ("depth3.json", "depth3.json", "broken.json", "missing.json")
DEPTH3 = {"id": "root", "lambda": 1.0, "children": [
    {"id": "a", "lambda": 0.5, "children": [
        {"id": "b", "lambda": 0.5, "children": [
            {"id": "leaf0", "utility": 0.0}, {"id": "leaf1", "utility": 0.0}]},
        {"id": "leaf2", "utility": 0.0}]},
    {"id": "leaf3", "utility": 0.0}]}


def leaf_commands(parser, prefix=()):
    """(name, parser) of every command, nested subcommands included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_commands(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


PARSER = cli._build_parser()
COMMANDS = dict(leaf_commands(PARSER))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "depth3.json").write_text(json.dumps({"root": DEPTH3}))
    (path / "broken.json").write_text('{"root": {"id": "root", "lambda": 1.0, "children": []}}')
    return path


def value(valid):
    """The valid value or one of the edge cases."""
    return st.one_of(st.just(valid), st.sampled_from(EDGE))


def draw_argv(data, workdir):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv = name.split()
    for action in COMMANDS[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:  # the model file
            argv.append(str(workdir / data.draw(st.sampled_from(MODELS))))
            continue
        flag = action.option_strings[0]
        if not (action.required or action.dest in ALWAYS or data.draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(flag)
        elif action.metavar == "LEAF=VALUE":  # every leaf half the time, as cdf needs
            leaves = data.draw(st.one_of(st.just(LEAVES[:-1]), st.lists(st.sampled_from(LEAVES), min_size=1, max_size=4)))
            for leaf in leaves:
                argv += [flag, f"{leaf}={data.draw(value('0.5'))}"]
        elif action.choices:
            argv += [flag, data.draw(st.sampled_from([*action.choices, "bogus"]))]
        else:
            text = data.draw(value(VALID[action.dest]))
            argv += [flag, str(workdir / text) if action.dest == "out" else text]
    return argv


def no_constant(name):
    raise ValueError(f"{name} in a JSON report")


@settings(derandomize=True, max_examples=250, deadline=None)
@given(data=st.data())
def test_any_command_line_exits_cleanly(workdir, data):
    argv = draw_argv(data, workdir)
    out, err = io.StringIO(), io.StringIO()
    report = True
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors, which print no report
            rc, report = exc.code, False
    assert rc in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if report and rc in (0, 2) and "--pretty" not in argv:
        json.loads(out.getvalue(), parse_constant=no_constant)


# A run of exact "--flag V" repeats, which the parser shortens, between
# fragments of a command line: the "=" form, abbreviations, values that
# read as options, a flag with no value, "--", and other commands' flags.
VALUES = ("leaf0=1", "leaf1=-2", "x", "", "-1", "-x", "--", "-", "a=b=c")
FLAGS = ("--at", "--at", "--utilities")
RUN = st.lists(
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(("leaf0=1", "x", "", "-1"))), min_size=1, max_size=6,
).map(lambda pairs: [token for pair in pairs for token in pair])
FRAGMENTS = st.lists(st.one_of(
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
    st.builds(lambda flag, text: [f"{flag}={text}"], st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.sampled_from([["--at"], ["--utilities"], ["--"], ["--pretty"], ["--pr"], ["--draws", "5"], ["--draws"],
                     ["--method", "mc"], ["--node", "a"], ["--lambda", "0.5"], ["--bogus"], ["model.json"], ["-x"],
                     ["-"], ["-h"], ["--version"], ["stable"], ["cdf"], ["--a", "x"], ["--util", "x"], ["--u=x"],
                     ["--ut"], ["--="]]),
), max_size=4).map(lambda fragments: [token for fragment in fragments for token in fragment])
# What stands between two runs: nothing, the end of options, or an option
# left without its value.
EDGES = st.sampled_from([[], ["--"], ["--at"], ["--utilities"], ["--draws"], ["--node"], ["--method"], ["--pretty"]])
# Every command, no command, and more often the commands that take the flags.
COMMAND_LINES = st.one_of(st.sampled_from([*sorted(COMMANDS), ""]), st.sampled_from(["cdf", "probs", "sample"]))


def outcome(parse, argv):
    """(namespace as a dict, leftovers) of parse(argv), or its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, extras = parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return vars(namespace), extras


def plain_parse(argv):
    # Every level of the parser, subcommands included, as plain argparse.
    with mock.patch.object(cli._Parser, "parse_known_args", argparse.ArgumentParser.parse_known_args):
        return PARSER.parse_known_args(argv)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(command=COMMAND_LINES, before=FRAGMENTS, first=RUN, edge=EDGES, second=RUN, after=FRAGMENTS)
@example("emax", ["m.json"], ["--utilities", "a"], ["--node"], ["--utilities", "b"], ["x"])
@example("cdf", [], ["--at", "a"], ["--"], ["--at", "b", "--at", "c"], [])
@example("cdf", ["m.json"], ["--at", "a", "--at", "b"], [], ["--at", "c"], ["--at=d", "--a", "e"])
@example("cdf", ["m.json"], ["--at", "a", "--at", "b"], ["--at", "-1"], ["--at", "c"], ["--at"])
def test_repeated_flags_parse_as_plain_argparse(command, before, first, edge, second, after):
    argv = command.split() + before + first + edge + second + after
    assert outcome(PARSER.parse_known_args, argv) == outcome(plain_parse, argv), argv
