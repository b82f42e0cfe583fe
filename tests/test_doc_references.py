"""Names the documentation cites must exist: every backticked
`module.name` of a gausslind module in README.md, and every backticked
private `_name` in the docstrings and comments of each gausslind module
(an attribute of that module)."""

import ast
import functools
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import gausslind

ROOT = Path(__file__).resolve().parents[1]
MODULES = {m.name for m in pkgutil.iter_modules(gausslind.__path__)}


def _resolves(module: str, dotted: str) -> bool:
    try:
        functools.reduce(getattr, dotted.split("."),
                         importlib.import_module(f"gausslind.{module}"))
    except AttributeError:
        return False
    return True


def _doc_texts(source: str) -> list:
    """The docstrings and the comments of a module's source."""
    texts = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))]
    return texts + [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                    if tok.type == tokenize.COMMENT]


def test_readme_module_references_resolve():
    refs = [(module, dotted) for module, dotted in
            re.findall(r"`(\w+)\.(\w+(?:\.\w+)*)", (ROOT / "README.md").read_text("utf-8"))
            if module in MODULES]
    assert refs
    assert [f"{m}.{d}" for m, d in refs if not _resolves(m, d)] == []


def test_private_names_in_source_docs_resolve():
    missing, cited = [], 0
    for module in sorted(MODULES):
        source = (Path(gausslind.__file__).parent / f"{module}.py").read_text("utf-8")
        for text in _doc_texts(source):
            for name in re.findall(r"`(_\w+)", text):
                cited += 1
                if not _resolves(module, name):
                    missing.append(f"{module}: {name}")
    assert cited and missing == []
