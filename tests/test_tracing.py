"""The benchmark tracer's binding sites: every name it patches exists where
perfbench/tracing.py looks for it, and is put back afterwards. A refactor
that drops or renames a bound name fails here, not in a traced run."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import resultantforge

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE = pathlib.Path(resultantforge.__file__).parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_site_is_patched_and_restored():
    tracing = load_tracing()
    sites = []
    for owner_path, attr, _, _ in tracing.BINDINGS:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module("resultantforge." + module)
        if cls:
            owner = getattr(owner, cls)
        # the tracer reads vars(owner)[attr]: the name must be bound there itself
        assert attr in vars(owner), f"{owner_path}.{attr} is not bound"
        sites.append((owner_path, owner, attr, vars(owner)[attr]))
    assert sites
    with tracing.Tracer().installed():
        for owner_path, owner, attr, original in sites:
            assert vars(owner)[attr] is not original, f"{owner_path}.{attr} was not patched"
    for owner_path, owner, attr, original in sites:
        assert vars(owner)[attr] is original, f"{owner_path}.{attr} was not restored"


def unread_imports(path: pathlib.Path) -> set:
    """The names a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return imported - read


# __init__ imports the public API without reading it; test_public_api.py pins that list
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_unread_import_is_a_binding_site(path):
    """An import that nothing in its module reads is kept only for the
    tracer; once its binding goes, the import must go too."""
    bound = {attr for owner_path, attr, _, _ in load_tracing().BINDINGS if owner_path == path.stem}
    assert unread_imports(path) - bound == set(), f"{path.stem} imports names it never reads"


def test_an_unread_import_is_found(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from __future__ import annotations\nimport os.path\nfrom x import a, b as c\n\nprint(a)\n")
    assert unread_imports(module) == {"os", "c"}
