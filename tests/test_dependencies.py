"""The package runs on numpy alone: scipy is a test and benchmark
dependency, so no module under src/nestlogit may import it."""

import ast
from pathlib import Path

import nestlogit

PACKAGE = Path(nestlogit.__file__).resolve().parent


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
