"""Dead imports, stale exports and eager numpy imports in the package sources,
and stale names in README."""

import ast
import dataclasses
import hashlib
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quotavia
from test_scenario_cli import SIMULATE_DIGESTS

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


def _eager_imports(nodes):
    """Import statements that run when their module is imported: all but
    those in a function body or under ``if TYPE_CHECKING:``."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            yield from _eager_imports(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        yield from _eager_imports(ast.iter_child_nodes(node))


@pytest.mark.parametrize("stem", ["__init__", *MODULES])
def test_numpy_is_imported_where_it_is_used(stem):
    """``check`` and ``simulate`` run no numpy operation, so no module loads
    numpy on import; the functions that call it import it themselves."""
    eager = {}
    for node in _eager_imports(_tree(stem).body):
        modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if node.level == 0 else [])
        eager.update((name, node.lineno) for name in modules if name.split(".")[0] == "numpy")
    assert eager == {}, f"{stem}.py imports numpy at module level"


_SCALAR_COMMANDS = """
import sys
from quotavia.cli import main
config, out = sys.argv[1:]
codes = [main(["check", "--config", config]), main(["simulate", "--config", config, "--out", out])]
print(codes, "numpy" in sys.modules)
"""


def test_check_and_simulate_run_without_numpy(tmp_path, canonical_scenario_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _SCALAR_COMMANDS,
                           os.path.abspath(canonical_scenario_path), str(tmp_path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == SIMULATE_DIGESTS["canonical"]["trajectory.csv"]


README = PACKAGE.parents[1] / "README.md"


def _resolves(dotted: str) -> bool | None:
    """Whether a dotted name resolves in the package: a module attribute, a
    class attribute or a dataclass field.  None when its first part is
    neither the package, one of its modules nor a class it exports."""
    first, *rest = dotted.split(".")
    if first == "quotavia":
        obj = quotavia
    elif first in LIBRARY:
        obj = importlib.import_module(f"quotavia.{first}")
    elif isinstance(getattr(quotavia, first, None), type):
        obj = getattr(quotavia, first)
    else:
        return None
    for i, part in enumerate(rest):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:   # a field without a class attribute, such as EconParams.weight
            return (i == len(rest) - 1 and dataclasses.is_dataclass(obj)
                    and part in {f.name for f in dataclasses.fields(obj)})
    return True


def test_readme_names_resolve():
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    resolved = {span: _resolves(span) for span in spans
                if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span)}
    assert any(resolved.values()) and [name for name, ok in resolved.items() if ok is False] == []
    bench = [span for span in spans if re.fullmatch(r"BENCH_\w+\.json", span)]
    assert bench and [name for name in bench if not (README.parent / name).is_file()] == []
