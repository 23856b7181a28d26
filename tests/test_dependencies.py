"""Runtime dependencies stay numpy only: each module of the package imports
from the package itself, numpy and the standard library, and nothing else."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wva_sense"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_imports_only_numpy_and_the_standard_library(module):
    tree = ast.parse((PACKAGE / module).read_text(), module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # not an import, or a package-relative one
        for name in names:
            top = name.partition(".")[0]
            assert top == "numpy" or top in sys.stdlib_module_names, (
                f"{module}:{node.lineno} imports {name}")
