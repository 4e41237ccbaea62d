"""The package, its tests and its demos import only the standard library,
numpy and firmglass itself (the tests pytest too), so the suite runs on a
machine with nothing else installed, numba, scipy and sympy included.
``perfbench/`` is left out."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"src": {"numpy", "firmglass"}, "demos": {"numpy", "firmglass"},
           "tests": {"numpy", "firmglass", "pytest"}}


def imported_modules(path):
    """The top-level name of every absolute import in a Python file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("folder", sorted(ALLOWED))
def test_imports_are_stdlib_numpy_or_firmglass(folder):
    files = sorted((ROOT / folder).rglob("*.py"))
    assert files, folder
    allowed = sys.stdlib_module_names | ALLOWED[folder]
    outside = {f"{path.relative_to(ROOT)}: {name}"
               for path in files for name in imported_modules(path)
               if name not in allowed}
    assert not outside, sorted(outside)
