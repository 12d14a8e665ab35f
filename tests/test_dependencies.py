"""The package runs on numpy alone: scipy is a test and benchmark
dependency, so no module under src/nestlogit may import it. The analytic
core needs not even numpy: the package serves its numpy-backed names on
first use, and the commands that draw nothing never import it."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nestlogit

PACKAGE = Path(nestlogit.__file__).resolve().parent
DEPTH3 = str(Path(__file__).resolve().parents[1] / "demos" / "models" / "depth3.json")

# The package's public names: its API and the submodules it binds.
PUBLIC = [
    "Arborescence", "CheckResult", "CycleError", "DomainError",
    "DuplicateIdError", "EULER_GAMMA", "EmptyNestError", "EstimateWithError",
    "InvalidModelError", "LambdaRangeError", "ModelFileError", "ModelSpec",
    "NestLogitError", "NotALeafError", "NotANestError", "OrphanNodeError",
    "RootHasNoParentError", "RootLambdaError", "SampleBatch",
    "SeededStream", "ShapeError", "UnknownNodeError", "UtilityError", "backward_utils",
    "build", "cdf", "choice_probs", "choice_probs_single_layer", "copula",
    "descendant_leaves", "distributions", "emax", "emax_gradient", "errors",
    "eta_moments", "forward_probs", "frechet_corr", "frechet_pair_sample", "from_nested",
    "gumbel_sample", "lca", "load_model", "loads_model", "log_odds", "make_model",
    "mc_cdf", "mc_choice_probs", "mc_correlation", "mc_emax", "mc_frechet_corr",
    "mixed_logit_probs", "model", "model_to_doc", "modelfile", "montecarlo",
    "random_model", "random_models", "random_single_layer_model", "run_checks",
    "sample_epsilon", "save_model", "simulate", "stable_density_half",
    "stable_density_series", "stable_log_sample", "stable_moment", "stable_sample",
    "stable_survival_series", "streams", "tree", "verify", "with_utilities",
]


def imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    offenders = [m.name for m in modules if "scipy" in imported_roots(m)]
    assert offenders == []


def test_no_module_imports_dataclasses_or_typing():
    # The value types are named tuples, and a type-only import hides
    # behind a module-level TYPE_CHECKING = False.
    modules = sorted(PACKAGE.glob("*.py"))
    offenders = [m.name for m in modules if {"dataclasses", "typing"} & imported_roots(m)]
    assert offenders == []


def fresh(code: str, *argv: str) -> str:
    """stdout of `code` run by a new interpreter with sys.argv[1:] = argv."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


RUN_MAIN = """
import contextlib, io, sys
from nestlogit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:  # --version
        rc = exc.code
print(rc, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["validate", DEPTH3],
    ["probs", DEPTH3],
    ["emax", DEPTH3, "--all"],
    ["cdf", DEPTH3, "--at", "leaf0=1", "--at", "leaf1=1", "--at", "leaf2=1", "--at", "leaf3=1"],
    ["stable", "density", "--lambda", "0.5", "--x", "1"],
    ["stable", "moment", "--lambda", "0.5", "--kappa", "0.25"],
    ["frechet-corr", "--alpha", "8", "--lambda", "0.5"],
    ["grad-check", DEPTH3],
], ids=lambda argv: " ".join(argv[:2]).replace(DEPTH3, "depth3"))
def test_analytic_commands_never_import_numpy(argv):
    assert fresh(RUN_MAIN, *argv).split() == ["0", "False"]


LEAN_MAIN = RUN_MAIN.replace('"numpy" in sys.modules', '*sorted({"dataclasses", "inspect", "typing"} & set(sys.modules))')


@pytest.mark.parametrize("argv", [
    ["validate", DEPTH3],
    ["probs", DEPTH3],
    ["emax", DEPTH3],
    ["cdf", DEPTH3, "--at", "leaf0=1", "--at", "leaf1=1", "--at", "leaf2=1", "--at", "leaf3=1"],
    ["grad-check", DEPTH3],
    ["stable", "density", "--lambda", "0.5", "--x", "1"],
    ["stable", "moment", "--lambda", "0.5", "--kappa", "0.25"],
    ["frechet-corr", "--alpha", "8", "--lambda", "0.5"],
], ids=lambda argv: " ".join(argv[:2]).replace(DEPTH3, "depth3"))
def test_analytic_commands_start_without_dataclasses(argv):
    # Under -S, so that nothing site-packages loads at start-up counts:
    # dataclasses pulls in inspect, ast, dis and tokenize, and typing alone
    # costs several milliseconds.
    proc = subprocess.run([sys.executable, "-S", "-c", LEAN_MAIN, *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_drawing_commands_import_numpy():
    assert fresh(RUN_MAIN, "probs", DEPTH3, "--method", "mc", "--draws", "10").split() == ["0", "True"]


DRAWING_MAIN = RUN_MAIN.replace('"numpy" in sys.modules', '*sorted({"dataclasses", "concurrent.futures"} & set(sys.modules))')


@pytest.mark.parametrize("argv", [
    ["probs", DEPTH3, "--method", "mc", "--draws", "100"],
    ["probs", DEPTH3, "--method", "mixed", "--draws", "100"],
    ["sample", DEPTH3, "--draws", "10", "--out", os.devnull],
    ["verify", DEPTH3, "--draws", "1000"],
    ["stable", "sample", "--lambda", "0.5", "--draws", "10"],
    ["stable", "laplace", "--lambda", "0.5", "--t", "1", "--draws", "10"],
    ["frechet-corr", "--alpha", "3", "--lambda", "0.5", "--mc", "100"],
], ids=lambda argv: " ".join(argv[:4]).replace(DEPTH3, "depth3"))
def test_drawing_commands_start_without_dataclasses_or_a_thread_pool(argv):
    # At the default --threads 1 no thread pool is made, so none is imported.
    assert fresh(DRAWING_MAIN, *argv).split() == ["0"]


SAMPLE_MAIN = """
import contextlib, io, sys
import nestlogit.cli as cli
print(cli._csv_tables.cache_info().currsize, "numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(rc, cli._csv_tables.cache_info().currsize, *sorted({"decimal", "fractions"} & set(sys.modules)))
"""


def test_sample_builds_its_tables_on_first_use(tmp_path):
    # The CSV writer's digit groups and powers of ten cost nothing at import,
    # and are worked out in integers, without fractions or decimal.
    lines = fresh(SAMPLE_MAIN, "sample", DEPTH3, "--draws", "10", "--out", str(tmp_path / "noise.csv")).splitlines()
    assert lines == ["0 False", "0 1"]


def test_public_names():
    assert nestlogit.__all__ == PUBLIC
    listed = fresh("import nestlogit; print(*dir(nestlogit))").split()
    assert [name for name in listed if not name.startswith("_")] == PUBLIC
    assert fresh("from nestlogit import *; print(*sorted(n for n in dir() if not n.startswith('_')))").split() == PUBLIC
    # a submodule not imported yet is still an attribute of the package
    assert fresh("import sys, nestlogit; print(nestlogit.verify is sys.modules['nestlogit.verify'])") == "True\n"


def test_lazy_names_are_the_defining_modules_objects():
    for name, module in nestlogit._HOME.items():
        assert getattr(nestlogit, name) is getattr(importlib.import_module(f"nestlogit.{module}"), name)
    with pytest.raises(AttributeError, match="'nestlogit' has no attribute 'nope'"):
        nestlogit.nope


def public_names(module) -> set[str]:
    """What ``from module import *`` binds."""
    return set(getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")]))


def test_core_names_are_declared_once():
    # The package binds from its analytic core exactly the public names of
    # those modules, and lists each lazy name where it is defined.
    core = [importlib.import_module(f"nestlogit.{m}") for m in ("errors", "model", "modelfile", "tree")]
    eager = {
        name for name, value in vars(nestlogit).items()
        if not name.startswith("_") and name not in nestlogit._HOME and not inspect.ismodule(value)
    }
    assert eager == set().union(*map(public_names, core))
    for module in core:
        assert all(getattr(nestlogit, name) is getattr(module, name) for name in public_names(module))
    for module, names in nestlogit._LAZY.items():
        assert set(names) <= set(importlib.import_module(f"nestlogit.{module}").__all__)
