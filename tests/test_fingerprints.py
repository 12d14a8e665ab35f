"""Seeded output of the command line held to tests/fingerprints.json.

Each command of the battery in make_fingerprints.py runs in process; one
that draws must give the same bytes at --threads 1 and 2. Where numpy's
version and the machine match the file's tag, every digest must match
exactly. Elsewhere numpy may draw other Generator streams and the C
library may round its exp or log differently in the last bit, so the
analytic commands are held to their exit codes and to their numbers within
1e-12 relative, and the drawing commands to thread equality alone.

An intended change of output regenerates the file with
`python tests/make_fingerprints.py`.
"""

import json
import math

import pytest

import make_fingerprints as fp

RECORDED = json.loads(fp.FILE.read_text())
EXACT = RECORDED["tag"] == fp.tag()


@pytest.fixture(scope="module")
def battery_dir():
    with fp.workdir():
        yield


def test_file_holds_the_battery():
    assert list(RECORDED["commands"]) == list(fp.BATTERY)


@pytest.mark.parametrize("command", fp.BATTERY)
def test_fingerprint(battery_dir, command):
    got = fp.run(command)  # raises, naming the command, if --threads 2 differs
    want = RECORDED["commands"][command]
    if EXACT:
        assert got == want, f"{command}: output differs from tests/fingerprints.json"
    elif command not in fp.STOCHASTIC:
        assert got["exit"] == want["exit"], command
        assert [path for path, _ in got["numbers"]] == [path for path, _ in want["numbers"]], command
        for (path, value), (_, recorded) in zip(got["numbers"], want["numbers"]):
            assert math.isclose(value, recorded, rel_tol=1e-12), f"{command}: {path} is {value!r}, recorded {recorded!r}"
