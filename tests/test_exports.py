"""Every name a wrenyi module exports in ``__all__`` exists, every name
a module imports is used (a stand-in for a linter's unused-import rule),
and every function the benchmark's tracer wraps exists."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pytest

import wrenyi

MODULES = ["wrenyi"] + [f"wrenyi.{m.name}" for m in pkgutil.iter_modules(wrenyi.__path__)]
SOURCES = sorted(
    p for p in pathlib.Path(wrenyi.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Top-level imported names that the module neither uses nor lists in
    ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [n for n in imported if n not in used]


def test_unused_import_check_sees_an_unused_name():
    src = "import math\nfrom os import path, sep\n__all__ = ['sep']\nprint(path)\n"
    assert unused_imports(src) == ["math"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _tracer_layers() -> dict:
    """``LAYERS`` of ``perfbench/tracer.py``, loaded without writing bytecode."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module.LAYERS


@pytest.mark.parametrize(
    "layer, fname",
    [(layer, fname) for layer, fns in _tracer_layers().items() for fname in fns],
    ids=lambda v: v,
)
def test_every_traced_function_exists(layer, fname):
    # The traced benchmark run wraps each of these by name and stops on
    # the first that is gone.
    owner = importlib.import_module(f"wrenyi.{layer}")
    for part in fname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
