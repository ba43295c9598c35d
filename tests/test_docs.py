"""The README's library examples and the package's docstrings name only what
the package has."""

import ast
import importlib
import re
import sys
from pathlib import Path

import recliff

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(recliff.__file__).resolve().parent


def test_readme_library_names_resolve():
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.S | re.M)
    names = {name for block in blocks for name in re.findall(r"\brc\.(\w+)", block)}
    assert "compile_circuit" in names  # the pattern finds the examples
    assert sorted(name for name in names if not hasattr(recliff, name)) == []


def test_all_entries_resolve():
    assert [name for name in recliff.__all__ if not hasattr(recliff, name)] == []


def docstring_references():
    """``(module, name)`` for each :func:, :class: and :meth: reference in a
    docstring of the package's modules, classes and functions."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "recliff" if path.stem == "__init__" else f"recliff.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node) or ""
                for name in re.findall(r":(?:func|class|meth):`~?([\w.]+)`", doc):
                    yield module, name


def resolves(module, name: str) -> bool:
    """Whether the dotted name is found from the module's own names, or from
    a module of the package (``tableau._table`` from the compiler)."""
    head, *rest = name.split(".")
    obj = vars(module).get(head) or sys.modules.get(f"recliff.{head}")
    for part in rest:
        obj = getattr(obj, part, None)
    return obj is not None


def test_docstring_references_resolve():
    refs = list(docstring_references())
    assert (recliff.tableau, "Tableau._apply_layers") in refs  # the pattern finds them
    assert not resolves(recliff.tableau, "_step")  # a deleted name is caught
    assert [f"{module.__name__}: {name}" for module, name in refs
            if not resolves(module, name)] == []
