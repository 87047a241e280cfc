"""Dead imports and stale exports in the package sources."""

import ast
import importlib
from pathlib import Path

import pytest

import quotavia

PACKAGE = Path(quotavia.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
LIBRARY = [stem for stem in MODULES if stem != "__main__"]  # importing __main__ runs the CLI


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import statement binds -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("stem", MODULES)
def test_every_import_is_used(stem):
    tree = _tree(stem)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert unused == {}, f"{stem}.py imports names it never uses"


@pytest.mark.parametrize("stem", LIBRARY)
def test_all_entries_resolve(stem):
    module = importlib.import_module(f"quotavia.{stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_reexports_resolve():
    for node in _tree("__init__").body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"quotavia.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"quotavia.{node.module}.{alias.name}"
