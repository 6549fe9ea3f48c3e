import ast
import importlib
import os
import pkgutil
import subprocess
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
    for _, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - allowed == set()


def test_every_imported_name_is_used():
    # the project declares no linter, so this stands in for an unused-import
    # rule: a module uses each name it imports or lists it in __all__
    unused = {}
    for path, tree in module_trees():
        imported, exported = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__" for target in node.targets):
                exported |= set(ast.literal_eval(node.value))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used - exported:
            unused[path.name] = sorted(imported - used - exported)
    assert unused == {}


def test_cli_import_loads_no_process_pool():
    # the worker pool is imported when a price forks workers, not when the
    # command line starts: a cold import of concurrent.futures.process
    # costs about 35 ms, against about 0.15 s for the whole set-up
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, rsbarrier.cli; print(sorted(m for m in sys.modules if m in "
             "('multiprocessing', 'concurrent.futures.process')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


MODEL_CLASSES = {"BrownianDrift", "KouJumpDiffusion", "KoBoL"}
# models.py holds each family's formulas, config.py maps wire names to the
# classes, and __init__.py exports them
MAY_NAME_MODEL_CLASSES = {"models.py", "config.py", "__init__.py"}


def test_only_models_names_a_model_class():
    # a regime's family decides its formulas in models.py alone: any other
    # module asks the model, never tests or imports its class
    found = []
    for path, tree in module_trees():
        if path.name in MAY_NAME_MODEL_CLASSES:
            continue
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in MODEL_CLASSES]
    assert found == []


# parameter names that stand for a setting held by GridConfig, Tolerances,
# InversionPlan or McConfig.  damping_scale, damping_cap, decay_tol,
# max_outer, gamma, sigma0 and lambda0 are constants of the method now, and
# antithetic and bridge are gone; they stay here to stop one from coming back
# as a keyword default.
SETTING_NAMES = {"m_power", "domain_factor", "damping_scale", "damping_cap", "decay_tol",
                 "tol_inner", "tol_outer", "max_outer", "max_sweeps", "n_nodes", "n_gaver",
                 "gamma", "target_tol", "sigma0", "bridge", "antithetic", "lambda0"}


def test_settings_defaults_written_once():
    # a setting's default lives on its dataclass field alone: no function of
    # the package gives a parameter named after a setting a default of its own
    found = []
    for path, tree in module_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            found += [f"{path.name}:{node.lineno} {arg.arg}" for arg in defaulted
                      if arg.arg in SETTING_NAMES]
    assert found == []


# definitions no module of the package reads, and who reads them instead
READ_OUTSIDE_THE_PACKAGE = {
    "IterationStats.max_ratio": "criterion 5 bounds the sweeps' contraction by it",
    "WHFactorization.product_residual": "the bench's inspect_pricer checks each contour",
    "ContourSymbols.omega": "the bench's inspect_pricer passes it to product_residual",
    "brownian_band_series": "tests and bench/test_oracle.py; it leaves src/ with the bench",
}


def test_every_definition_is_read_by_the_package():
    # a function, class, method or dataclass field that no module of the
    # package loads is dead weight, or a figure that the pricing path drops;
    # members count as read only through an attribute load, so a field that
    # is written but never read shows, and dunder methods are left out
    defined, names, attributes = {}, set(), set()
    for path, tree in module_trees():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined[node.name] = False
            if not isinstance(node, ast.ClassDef):
                continue
            dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    defined[f"{node.name}.{item.name}"] = True
                elif (dataclass and isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    defined[f"{node.name}.{item.target.id}"] = True
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    unread = {name for name, member in defined.items()
              if name.split(".")[-1] not in (attributes if member else names | attributes)}
    assert unread == set(READ_OUTSIDE_THE_PACKAGE)


def module_trees():
    """(path, syntax tree) of every module of the package."""
    for path in sorted((ROOT / "src" / "rsbarrier").glob("*.py")):
        yield path, ast.parse(path.read_text())
