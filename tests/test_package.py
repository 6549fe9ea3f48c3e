import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import rsbarrier

ROOT = Path(__file__).resolve().parent.parent


def test_every_all_entry_resolves():
    # __main__ runs the command line on import, so it is left out
    names = ["rsbarrier"] + [f"rsbarrier.{m.name}" for m in pkgutil.iter_modules(rsbarrier.__path__)
                             if m.name != "__main__"]
    assert len(names) > 10
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ lists undefined {missing}"


def test_imports_are_stdlib_or_declared_dependencies():
    # the package may import the standard library, itself, and what
    # pyproject.toml declares, so a dependency cannot come back unannounced
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {dep.split(">")[0].split("=")[0].split("<")[0].strip().lower()
                for dep in project["dependencies"]}
    allowed = set(sys.stdlib_module_names) | declared | {"rsbarrier"}
    imported = set()
    for path in (ROOT / "src" / "rsbarrier").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - allowed == set()
