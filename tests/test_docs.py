"""The README's library examples and the package's docstrings name only what
the package has, the README's command-line block runs as written, its JSON
formats are the keys the commands write, the package has no private name
that it never uses, and only its command line touches the garbage
collector."""

import ast
import importlib
import json
import re
import shlex
import sys
from pathlib import Path

from click.testing import CliRunner

import recliff
from recliff.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(recliff.__file__).resolve().parent


def test_readme_library_names_resolve():
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.S | re.M)
    names = {name for block in blocks for name in re.findall(r"\brc\.(\w+)", block)}
    assert "compile_circuit" in names  # the pattern finds the examples
    assert sorted(name for name in names if not hasattr(recliff, name)) == []


def test_all_entries_resolve():
    assert [name for name in recliff.__all__ if not hasattr(recliff, name)] == []


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    """Each ``recliff`` line of the "Command line" section's block, in order
    in one directory, exits 0."""
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## Circuit text dialect")]
    block = re.search(r"```bash\n(.*?)```", section, re.S)[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("recliff ")]
    assert len(commands) == 7 and "--metadata" in commands[1]  # a continued line is joined
    monkeypatch.chdir(tmp_path)
    for args in commands:
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, (args, result.output)


def test_readme_json_formats_match_the_commands(tmp_path):
    """The key lists of the README's "JSON formats" section, against what
    ``compile --metadata``, ``stats`` and ``compare`` write."""
    text = README.read_text()
    section = text[text.index("## JSON formats"):text.index("## Library")]
    metadata = re.findall(r'"(\w+)":', re.search(r"```json\n(.*?)```", section, re.S)[1])
    stats = re.findall(r'"(\w+)":', re.search(r"`stats` writes `(\{.*?\})`", section, re.S)[1])
    ratios = re.findall(r"`(\w+)`", re.search(r"ratios \((.*?)\)", section, re.S)[1])
    assert '`"undefined"`' in section

    source, compiled, meta = tmp_path / "a.stim", tmp_path / "b.stim", tmp_path / "meta.json"
    source.write_text("H 0\nTICK\nCX 0 1\n")

    def run(*args: str) -> str:
        result = CliRunner().invoke(main, list(args), catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result.output

    run("compile", "--target", "ecr", str(source), "-o", str(compiled),
        "--metadata", str(meta))
    assert list(json.loads(meta.read_text())) == metadata
    assert list(json.loads(run("stats", str(compiled)))) == stats
    # The source's one H is neither X- nor Z-type, so those ratios are undefined.
    comparison = json.loads(run("compare", str(compiled), str(source)))
    assert list(comparison) == ["ratios", "undefined"]
    assert comparison["undefined"] and comparison["ratios"]
    assert sorted([*comparison["ratios"], *comparison["undefined"]]) == sorted(ratios)


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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private name (one underscore,
    not a dunder) that no module of ``sources`` reads: not as a name, an
    attribute or an import, only in its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in used]
    return unused


def test_no_unused_private_names():
    assert unused_private_names({  # the walk catches an unused one
        "a": "_dead = 1\n_read = 2\ndef _called(): return _read\n",
        "b": "from a import _called\n",
    }) == ["a._dead"]
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def modules_importing(sources: dict[str, str], name: str) -> list[str]:
    """The modules of ``sources`` that import the module ``name`` or a name from it."""
    return sorted({module for module, text in sources.items() for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Import) and name in [a.name for a in node.names]
                   or isinstance(node, ast.ImportFrom) and node.module == name})


def test_only_the_command_line_touches_the_collector():
    """The collector's policy belongs to the process owner: ``main`` pauses it
    for a command, and no library function imports :mod:`gc`."""
    assert modules_importing({"a": "import os, gc\n", "b": "from gc import collect\n",
                              "c": "import gcx\n"}, "gc") == ["a", "b"]  # the walk finds both
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert modules_importing(sources, "gc") == ["cli"]
