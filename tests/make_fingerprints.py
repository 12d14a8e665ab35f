"""Seeded-output fingerprints of the nestlogit command line.

A fixed battery of commands runs in process through nestlogit.cli.main on
copies of the two demo models (depth3 and single_layer), saved under fixed
names in a scratch directory that is the working directory while the
battery runs, so that the report's echoed `path` and `out` never change.
Each command that draws runs at --threads 1 and at --threads 2, and the
two must print and write the same bytes. Per command the battery records
the exit code, the sha256 of stdout and of each file it writes, and every
number of the report by its JSON path.

    python tests/make_fingerprints.py

rewrites tests/fingerprints.json from the current code; tests/test_fingerprints.py
holds the code to that file. Run it only for an intended change of output,
and name each command whose fingerprint changed in the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FILE = HERE / "fingerprints.json"
MODELS = HERE.parent / "demos" / "models"
DEPTH3, SINGLE = "depth3.json", "single_layer.json"
OUT = "noise.csv"  # the one file the battery writes

# Commands that make no draws. Where the recorded tag does not match, their
# numbers are held to 1e-12 relative. A --pretty report is not JSON, so it
# is held to its digest alone.
ANALYTIC = [
    ["validate", DEPTH3],
    ["validate", SINGLE],
    ["validate", DEPTH3, "--pretty"],
    ["probs", DEPTH3, "--utilities", "leaf0=0.3", "--utilities", "leaf3=-1.25"],
    ["probs", SINGLE, "--utilities", "2=0.5"],
    ["emax", DEPTH3, "--all", "--utilities", "leaf1=2", "--utilities", "leaf2=-0.5"],
    ["emax", SINGLE, "--all"],
    ["emax", DEPTH3, "--all", "--pretty"],
    ["emax", DEPTH3, "--node", "a"],
    ["cdf", DEPTH3, "--at", "leaf0=0.5", "--at", "leaf1=0", "--at", "leaf2=1.5", "--at", "leaf3=-0.25"],
    ["cdf", SINGLE, "--at", "1=0.2", "--at", "2=-0.1", "--at", "3=1"],
    ["grad-check", DEPTH3, "--utilities", "leaf0=0.7"],
    ["grad-check", SINGLE],
    ["stable", "density", "--lambda", "0.5", "--x", "1"],
    ["stable", "moment", "--lambda", "0.7", "--kappa", "0.3"],
    ["frechet-corr", "--alpha", "3", "--lambda", "0.5"],
]

# Commands that draw; each runs at --threads 1 and 2. The two `probs
# --method mc` and `stable laplace` runs go past one 65,536-draw chunk.
DRAWING = [
    ["probs", DEPTH3, "--method", "mc", "--draws", "70000", "--seed", "1"],
    ["probs", SINGLE, "--method", "mc", "--draws", "5000", "--seed", "2", "--utilities", "3=0.4"],
    ["probs", DEPTH3, "--method", "mixed", "--draws", "4000", "--seed", "3"],
    ["probs", SINGLE, "--method", "mixed", "--draws", "4000", "--seed", "4"],
    ["verify", DEPTH3, "--draws", "20000", "--seed", "5"],
    ["verify", SINGLE, "--draws", "20000", "--seed", "6"],
    ["sample", DEPTH3, "--out", OUT, "--draws", "300", "--seed", "7"],
    ["sample", SINGLE, "--out", OUT, "--draws", "300", "--seed", "8"],
    ["stable", "sample", "--lambda", "0.3", "--draws", "40", "--seed", "9"],
    ["stable", "laplace", "--lambda", "0.5", "--t", "1", "--draws", "70000", "--seed", "10"],
    ["stable", "laplace", "--lambda", "0.5", "--t", "0", "--draws", "1000", "--seed", "10"],
    ["frechet-corr", "--alpha", "3", "--lambda", "0.5", "--mc", "5000", "--seed", "11"],
]

BATTERY = {" ".join(argv): argv for argv in ANALYTIC + DRAWING}
STOCHASTIC = {" ".join(argv) for argv in DRAWING}


def tag() -> dict:
    """What the digests depend on besides the code: numpy's Generator
    streams and vector math kernels, and the C library's math."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "cpu": sorted(name for name, on in __cpu_features__.items() if on),
    }


def numbers(obj, where: str = "") -> list:
    """[JSON path, value] for every number in a report, in printed order."""
    if isinstance(obj, dict):
        return [pair for key in sorted(obj) for pair in numbers(obj[key], f"{where}.{key}" if where else key)]
    if isinstance(obj, list):
        return [pair for i, value in enumerate(obj) for pair in numbers(value, f"{where}[{i}]")]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [[where, obj]]
    return []


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_once(argv: list[str]) -> dict:
    """One in-process run in the current directory: its exit code, stdout
    digest, report numbers and the digests of the files it wrote."""
    from nestlogit import cli

    with contextlib.suppress(FileNotFoundError):
        os.remove(OUT)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = stdout.getvalue()
    files = {OUT: sha256(Path(OUT).read_bytes())} if os.path.exists(OUT) else {}
    return {
        "exit": code,
        "stdout": sha256(text.encode()),
        "files": files,
        "numbers": numbers(json.loads(text)) if text and "--pretty" not in argv else [],
    }


def run(command: str) -> dict:
    """The fingerprint of one battery command. A drawing command runs at
    --threads 1 and 2, and a difference between the two raises."""
    argv = BATTERY[command]
    record = run_once(argv)
    if command in STOCHASTIC:
        two = run_once([*argv, "--threads", "2"])
        if two != record:
            raise AssertionError(f"{command}: --threads 2 differs from --threads 1")
    return record


@contextlib.contextmanager
def workdir():
    """A scratch working directory holding the two models under fixed names."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name in (DEPTH3, SINGLE):
            shutil.copy(MODELS / name, Path(scratch) / name)
        os.chdir(scratch)
        try:
            yield
        finally:
            os.chdir(home)


def main() -> None:
    with workdir():
        commands = {command: run(command) for command in BATTERY}
    FILE.write_text(json.dumps({"tag": tag(), "commands": commands}, indent=1) + "\n")
    print(f"wrote {len(commands)} fingerprints to {FILE}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    main()
