"""Every name a module exports exists, and the package re-exports only
exported names: a deletion may not leave a dangling export."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gausslind"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _declares_all(module: str) -> bool:
    return any(isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
               for node in _tree(module).body)


EXPORTING = sorted(p.stem for p in PACKAGE.glob("*.py") if _declares_all(p.stem))
#: (module, name) of each `from .module import name` in the package's __init__
REEXPORTS = [(node.module, alias.name) for node in _tree("__init__").body
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
             for alias in node.names]


def test_modules_found():
    assert {"closed", "cosmology", "opensys"} <= set(EXPORTING)
    assert ("opensys", "evolve_open") in REEXPORTS


@pytest.mark.parametrize("module", EXPORTING)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"gausslind.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", sorted({m for m, _ in REEXPORTS}))
def test_package_imports_only_exported_names(module):
    exported = importlib.import_module(f"gausslind.{module}").__all__
    assert [name for m, name in REEXPORTS if m == module and name not in exported] == []
