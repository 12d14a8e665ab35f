"""The benchmark's three workloads: their models, set-up and operation lists.

depth3-cli  The depth-3 demo and the single-layer demo, every operation a
            `nestlogit` subprocess. Interpreter start, the numpy import and
            the sampling kernels dominate; tree and model work is tiny, so
            this is the control that tree-compile work must leave alone.
wide-tree   random_model(default_rng(0), max_nodes=2000): 1,314 leaves,
            388 nests, height 12, written as a ~290 KB model file and
            driven in process through nestlogit.cli.main. Per-node Python
            (grad-check's 2L model rebuilds) and the n x L noise matrix
            dominate.
deep-chain  A root plus 3,000 nests in a line with lambda = 0.999, each
            nest holding the next nest and one leaf, the last two leaves
            (3,002 leaves). The model file cannot hold it, so it runs
            through the library. O(leaves x depth) noise assembly and the
            O(depth^2) root paths dominate.

Tree shapes and utilities are fixed so that the recorded references stay
valid; the workload seed only feeds the Monte Carlo seeds.
"""

from __future__ import annotations

import compileall
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Work per operation. "small" runs every operation once at these sizes in
# the benchmark's own tests; tree shapes do not shrink.
SIZES = {
    "full": {"mc": 1_000_000, "verify": 50_000, "sample": 100_000, "wide_mc": 5_000,
             "wide_verify": 1_000, "wide_sample": 500, "deep_mc": 256, "reevals": 20},
    "small": {"mc": 20_000, "verify": 5_000, "sample": 2_000, "wide_mc": 500,
              "wide_verify": 200, "wide_sample": 50, "deep_mc": 16, "reevals": 2},
}

ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC),
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared as recorded."""


@dataclass
class Op:
    """One benchmark operation: a CLI argv or a library call, its gate
    check, and the work it stands for. ``defect`` names the ROADMAP item
    that fixes a known defect the gate is expected to reject."""

    name: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None
    kind: str = "other"  # mc | analytic | sample | other
    draws: int = 0
    evals: int = 0
    rows: int = 0
    defect: str = ""


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def run_subprocess(argv: list) -> gate.Outcome:
    """`python -m nestlogit argv` with its resident-set peak from wait4."""
    with open("op.out", "w+b") as out, open("op.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "nestlogit", *argv], stdout=out, stderr=err, env=ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return gate.Outcome(
            rc=proc.returncode,
            stdout=out.read().decode(),
            stderr=err.read().decode(),
            seconds=seconds,
            rss_mb=usage.ru_maxrss / 1024.0,
        )


def run_in_process(argv: list) -> gate.Outcome:
    """nestlogit.cli.main(argv) with stdout and stderr captured; an escaped
    exception is written to stderr as a traceback, as the interpreter would."""
    import nestlogit.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = nestlogit.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            rc = None
            traceback.print_exc(file=err)
    return gate.Outcome(rc=rc, stdout=out.getvalue(), stderr=err.getvalue(), seconds=time.perf_counter() - t0)


def run_call(call: Callable) -> gate.Outcome:
    t0 = time.perf_counter()
    try:
        value, rc, err = call(), 0, ""
    except Exception:
        value, rc, err = None, None, traceback.format_exc()
    return gate.Outcome(rc=rc, stderr=err, value=value, seconds=time.perf_counter() - t0)


def compile_program() -> None:
    """Bytecode compile, a cold cost users pay once per install."""
    if not compileall.compile_dir(str(SRC / "nestlogit"), force=True, quiet=1):
        raise SetupError("bytecode compile failed")


def at_args(bounds: dict) -> list:
    return [arg for leaf, value in bounds.items() for arg in ("--at", f"{leaf}={value!r}")]


def threaded(name: str, argv: list, check: Callable, files=(), **work) -> list:
    """An MC command at --threads 1 and its --threads 2 twin, which must
    print the same bytes."""
    first = gate.remember_files(check, files) if files else check
    return [
        Op(name + "-t1", first, argv + ["--threads", "1"], **work),
        Op(name + "-t2", gate.same_output(name + "-t1", check, files), argv + ["--threads", "2"], **work),
    ]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def verify_grids(leaves) -> list:
    """The bound vectors of verify.run_checks' joint-CDF check."""
    return [
        {leaf: 0.0 for leaf in leaves},
        {leaf: 1.0 for leaf in leaves},
        {leaf: -0.5 for leaf in leaves},
        {leaf: 2.0 for leaf in leaves},
        {leaf: 0.25 * (i % 5) - 0.5 for i, leaf in enumerate(leaves)},
    ]


# ---------------------------------------------------------------------------
# depth3-cli
# ---------------------------------------------------------------------------

DEPTH3, SINGLE = "depth3.json", "single_layer.json"
DEPTH3_LEAVES = ["leaf0", "leaf1", "leaf2", "leaf3"]
DEPTH3_BOUNDS = {leaf: 0.0 for leaf in DEPTH3_LEAVES}
DENSITIES = [  # (lambda, x, ROADMAP item that fixes a known defect)
    (0.5, 1.0, ""),
    (0.7, 1.0, ""),
    (0.5, 0.01, "ROADMAP item 4: the series returns -0.203 where the density is 3.9e-9"),
    (0.7, 0.05, "ROADMAP item 4: the series does not converge"),
]
FRECHET = ["frechet-corr", "--alpha", "6", "--lambda", "0.5"]


def depth3_analytic() -> dict:
    return {
        "validate-depth3": ["validate", DEPTH3],
        "validate-single": ["validate", SINGLE],
        "probs-depth3": ["probs", DEPTH3],
        "probs-single": ["probs", SINGLE],
        "emax-all": ["emax", DEPTH3, "--all"],
        "cdf": ["cdf", DEPTH3, *at_args(DEPTH3_BOUNDS)],
        "moment": ["stable", "moment", "--lambda", "0.5", "--kappa", "0.25"],
        "frechet": FRECHET,
    }


class Depth3Cli:
    name = "depth3-cli"
    run = staticmethod(run_subprocess)

    def __init__(self, size: str, reference: dict):
        self.size = SIZES[size]
        self.ref = reference[self.name]
        self.density_ref = reference["density"]

    def setup(self) -> None:
        compile_program()
        for name in (DEPTH3, SINGLE):
            shutil.copyfile(ROOT / "demos" / "models" / name, name)
        for argv in (["--version"], ["probs", DEPTH3]):
            if run_subprocess(argv).rc != 0:
                raise SetupError(f"warm-up `nestlogit {' '.join(argv)}` failed")

    def ops(self, seed: int) -> list:
        ref, n = self.ref, self.size
        analytic = depth3_analytic()
        p3 = ref["probs-depth3"]["results"]["probabilities"]
        p1 = ref["probs-single"]["results"]["probabilities"]
        cdf0 = ref["cdf"]["results"]["cdf"]
        rho = ref["frechet"]["results"]["correlation"]
        s = [str(seed + k) for k in range(7)]
        ops = [
            Op(name, gate.analytic(ref[name]), analytic[name],
               **({"kind": "analytic", "evals": 1} if name in ("probs-depth3", "probs-single", "emax-all", "cdf") else {}))
            for name in ("validate-depth3", "validate-single", "probs-depth3", "probs-single", "emax-all", "cdf")
        ]
        ops += threaded("probs-mc", ["probs", DEPTH3, "--method", "mc", "--draws", str(n["mc"]), "--seed", s[0]],
                        gate.mc_probs(p3, n["mc"], seed), kind="mc", draws=n["mc"])
        ops += threaded("probs-mixed", ["probs", SINGLE, "--method", "mixed", "--draws", str(n["mc"]), "--seed", s[1]],
                        gate.mixed_probs(p1, n["mc"], seed + 1), kind="mc", draws=n["mc"])
        ops += threaded("verify", ["verify", DEPTH3, "--draws", str(n["verify"]), "--seed", s[2]],
                        gate.verify(p3, ref["verify_cdf"], n["verify"], seed + 2))
        # Two sample pairs, like wide-tree's, so that the write path is
        # sampled at four points of the pass.
        for k, sample_seed in ((1, seed + 3), (2, seed + 7)):
            ops += threaded(f"sample{k}", ["sample", DEPTH3, "--draws", str(n["sample"]), "--seed", str(sample_seed), "--out", "sample.csv"],
                            gate.sample_csv(DEPTH3_LEAVES, n["sample"], sample_seed, DEPTH3_BOUNDS, cdf0, "sample.csv"),
                            files=("sample.csv",), kind="sample", rows=n["sample"])
        ops += threaded("stable-sample", ["stable", "sample", "--lambda", "0.5", "--draws", "10", "--seed", s[4]],
                        gate.stable_sample(10, seed + 4))
        ops += threaded("stable-laplace", ["stable", "laplace", "--lambda", "0.3", "--t", "2", "--draws", str(n["mc"]), "--seed", s[5]],
                        gate.laplace(0.3, 2.0, n["mc"], seed + 5), kind="mc", draws=n["mc"])
        ops += [
            Op(f"density-{lam}@{x}", gate.density(self.density_ref[f"{lam}@{x}"]),
               ["stable", "density", "--lambda", str(lam), "--x", str(x)], defect=defect)
            for lam, x, defect in DENSITIES
        ]
        ops.append(Op("moment", gate.analytic(ref["moment"]), analytic["moment"]))
        ops += threaded("frechet-mc", FRECHET + ["--mc", str(n["mc"]), "--seed", s[6]],
                        gate.frechet(rho, n["mc"], seed + 6), kind="mc", draws=n["mc"])
        ops.append(Op("negative-seed", gate.clean_error("seed"),
                      ["probs", DEPTH3, "--method", "mc", "--draws", "1000", "--seed", "-1"],
                      defect="ROADMAP item 5: --seed -1 ends in a ValueError traceback"))
        return ops


# ---------------------------------------------------------------------------
# wide-tree
# ---------------------------------------------------------------------------

WIDE = "wide.json"


def wide_model():
    import nestlogit

    return nestlogit.random_model(np.random.default_rng(0), max_nodes=2000)


def model_digest(model) -> str:
    """sha256 of the tree and utilities, independent of the file format."""
    tree = model.tree
    doc = [tree.root, sorted(tree.children.items()), sorted(tree.lam.items()), sorted(model.utilities.items())]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def wide_bounds(leaves) -> dict:
    return {leaf: 7.0 + 0.25 * (i % 5) for i, leaf in enumerate(leaves)}


def wide_analytic(leaves) -> dict:
    return {
        "validate": ["validate", WIDE],
        "probs": ["probs", WIDE],
        "emax-all": ["emax", WIDE, "--all"],
        "cdf": ["cdf", WIDE, *at_args(wide_bounds(leaves))],
    }


class WideTree:
    name = "wide-tree"
    run = staticmethod(run_in_process)

    def __init__(self, size: str, reference: dict):
        self.size = SIZES[size]
        self.ref = reference[self.name]
        self.leaves = self.ref["validate"]["results"]["leaves"]

    def setup(self) -> None:
        import nestlogit

        compile_program()
        model = wide_model()
        if model_digest(model) != self.ref["digest"]:
            raise SetupError("random_model(default_rng(0), max_nodes=2000) no longer gives the recorded tree")
        nestlogit.save_model(model, WIDE)
        if run_in_process(["validate", WIDE]).rc != 0:
            raise SetupError("warm-up validate failed")

    def ops(self, seed: int) -> list:
        ref, n = self.ref, self.size
        analytic = wide_analytic(self.leaves)
        probs = ref["probs"]["results"]["probabilities"]
        bounds = wide_bounds(self.leaves)
        ops = [Op("validate", gate.analytic(ref["validate"]), analytic["validate"])]
        ops += [
            Op(name, gate.analytic(ref[name]), analytic[name], kind="analytic", evals=1)
            for name in ("probs", "emax-all", "cdf")
        ]
        # 2L + 1 backward passes: the analytic probabilities plus two
        # re-evaluations per leaf for the central differences.
        ops.append(Op("grad-check", gate.grad_check(probs), ["grad-check", WIDE],
                      kind="analytic", evals=2 * len(self.leaves) + 1))
        ops.append(Op("verify", gate.verify(probs, ref["verify_cdf"], n["wide_verify"], seed),
                      ["verify", WIDE, "--draws", str(n["wide_verify"]), "--seed", str(seed)]))
        # The short MC and sample commands run twice per pass, so that
        # their samples straddle the long grad-check and verify.
        for k in (1, 2):
            mc_seed, sample_seed = seed + 2 * k - 1, seed + 2 * k
            ops += threaded(f"probs-mc{k}", ["probs", WIDE, "--method", "mc", "--draws", str(n["wide_mc"]), "--seed", str(mc_seed)],
                            gate.mc_probs(probs, n["wide_mc"], mc_seed), kind="mc", draws=n["wide_mc"])
            ops += threaded(f"sample{k}", ["sample", WIDE, "--draws", str(n["wide_sample"]), "--seed", str(sample_seed), "--out", "sample.csv"],
                            gate.sample_csv(self.leaves, n["wide_sample"], sample_seed, bounds,
                                            ref["cdf"]["results"]["cdf"], "sample.csv"),
                            files=("sample.csv",), kind="sample", rows=n["wide_sample"])
        ops.append(Op("negative-seed", gate.clean_error("seed"),
                      ["probs", WIDE, "--method", "mc", "--draws", "1000", "--seed", "-1"],
                      defect="ROADMAP item 5: --seed -1 ends in a ValueError traceback"))
        return ops


# ---------------------------------------------------------------------------
# deep-chain
# ---------------------------------------------------------------------------

DEPTH = 3000
CHAIN_LAMBDA = 0.999
CORR_PAIR = ("x350", "x351")  # lca n350: rho = 1 - 0.999^700 ~ 0.50
CHECK_LEAVES = ["x0", "x1", "x350", "x1500", "x2999", f"x{DEPTH}", f"y{DEPTH}"]
CHAIN_BOUND = 6.0
LCA_PAIRS = [(f"x{DEPTH - i}", f"y{DEPTH}") for i in range(10)]


def chain_model():
    import nestlogit

    children = {"root": ("n1", "x0")}
    for i in range(1, DEPTH):
        children[f"n{i}"] = (f"n{i + 1}", f"x{i}")
    children[f"n{DEPTH}"] = (f"x{DEPTH}", f"y{DEPTH}")
    tree = nestlogit.build("root", children, {f"n{i}": CHAIN_LAMBDA for i in range(1, DEPTH + 1)})
    return nestlogit.make_model(tree, {leaf: 0.0 for leaf in tree.leaves})


def reevaluations(leaves, count: int) -> list:
    """Distinct single-leaf utility overrides."""
    return [(leaves[(k * 149) % len(leaves)], 0.5 + 0.1 * k) for k in range(count)]


def write_noise_csv(batch, path: str) -> str:
    """The CSV layout of `nestlogit sample --out`."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(batch.leaf_order) + "\n")
        np.savetxt(handle, batch.draws, fmt="%.17g", delimiter=",", newline="\n")
    return path


class DeepChain:
    name = "deep-chain"
    run = None  # library calls only

    def __init__(self, size: str, reference: dict):
        self.size = SIZES[size]
        self.ref = reference[self.name]
        self.model = None

    def setup(self) -> None:
        import nestlogit

        compile_program()
        self.model = chain_model()
        nestlogit.choice_probs(self.model)  # warm-up

    def ops(self, seed: int) -> list:
        import nestlogit as nl

        m, ref, n = self.model, self.ref, self.size
        leaves = list(m.tree.leaves)
        probs = dict(zip(leaves, ref["probs"]))
        bounds = {leaf: CHAIN_BOUND for leaf in leaves}
        rho = 1.0 - CHAIN_LAMBDA ** (2 * int(CORR_PAIR[0][1:]))
        ops = [
            Op("choice_probs", gate.value_close(probs), call=lambda: nl.choice_probs(m), kind="analytic", evals=1),
            Op("emax", gate.value_close(ref["emax"]), call=lambda: nl.emax(m), kind="analytic", evals=1),
            Op("cdf", gate.value_close(ref["cdf"]), call=lambda: nl.cdf(m, bounds), kind="analytic", evals=1),
        ]
        for k, (leaf, value) in enumerate(reevaluations(leaves, n["reevals"])):
            ops.append(Op(f"reevaluate-{k}", _reevaluated(ref["reevals"][k]),
                          call=lambda leaf=leaf, value=value: nl.choice_probs(nl.with_utilities(m, {leaf: value})),
                          kind="analytic", evals=1))
        ops.append(Op("lca-deepest", gate.value_close([f"n{DEPTH - i}" for i in range(len(LCA_PAIRS))]),
                      call=lambda: [nl.lca(m.tree, a, b) for a, b in LCA_PAIRS]))
        ops.append(Op("mc_choice_probs", gate.library_counts(probs, n["deep_mc"]),
                      call=lambda: nl.mc_choice_probs(m, nl.SeededStream(seed), n["deep_mc"]),
                      kind="mc", draws=n["deep_mc"]))
        ops.append(Op("mc_correlation", gate.library_corr(rho, n["deep_mc"]),
                      call=lambda: nl.mc_correlation(m, nl.SeededStream(seed + 1), *CORR_PAIR, n["deep_mc"]),
                      kind="mc", draws=n["deep_mc"]))
        ops.append(Op("sample", _noise_file(leaves, n["deep_mc"], bounds, ref["cdf"]),
                      call=lambda: write_noise_csv(nl.sample_epsilon(m, nl.SeededStream(seed + 2), n["deep_mc"]), "sample.csv"),
                      kind="sample", rows=n["deep_mc"]))
        ops.append(Op("save_model", _saved(leaves), call=lambda: nl.save_model(m, "deep.json"),
                      defect="ROADMAP item 5: save_model raises RecursionError on the chain"))
        return ops


def _reevaluated(expected: dict):
    def check(out, ctx):
        probs = gate.returned(out)
        gate.close({leaf: probs[leaf] for leaf in expected["probs"]}, expected["probs"])
        gate.close(math.fsum(probs.values()), expected["total"])
    return check


def _noise_file(leaves, n, bounds, joint_p):
    def check(out, ctx):
        gate.check_noise_file(gate.returned(out), leaves, n, bounds, joint_p)
    return check


def _saved(leaves):
    """save_model must write a file that loads back to the same leaves, or
    that the reader refuses with ModelFileError (a documented depth limit)."""
    def check(out, ctx):
        import nestlogit

        gate.returned(out)
        try:
            back = nestlogit.load_model("deep.json")
        except nestlogit.ModelFileError:
            return
        except RecursionError:
            raise gate.Reject("load_model raises RecursionError") from None
        gate.require(list(back.tree.leaves) == leaves, "saved chain does not load back")
    return check


def spread(ops: list) -> list:
    """Order a pass so that each kind of op is spread evenly through it:
    op i of a kind's k ops sits at (i + 1/2)/k of the way along. A metric
    then samples the whole pass, not one episode of the host's speed.
    The order within a kind, and so every twin after its first run, is
    kept."""
    count, seen, keyed = Counter(op.kind for op in ops), Counter(), []
    for op in ops:
        keyed.append(((seen[op.kind] + 0.5) / count[op.kind], op))
        seen[op.kind] += 1
    return [op for _, op in sorted(keyed, key=lambda pair: pair[0])]


WORKLOADS = {cls.name: cls for cls in (Depth3Cli, WideTree, DeepChain)}
