"""The package needs nothing beyond the Python standard library: every
absolute import under src/resultantforge/ names a standard-library module;
the package reaches its own modules by relative imports only."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "resultantforge"
MODULES = sorted(PACKAGE.rglob("*.py"))


def absolute_imports(path: pathlib.Path) -> set:
    """The top-level names of path's absolute imports, wherever they sit."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_module_is_found():
    assert {"cli.py", "groebner.py", "__init__.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(PACKAGE)))
def test_absolute_imports_are_standard_library(path):
    assert absolute_imports(path) - sys.stdlib_module_names == set()
