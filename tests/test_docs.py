"""The README's library examples name only what the package has."""

import re
from pathlib import Path

import recliff

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_names_resolve():
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.S | re.M)
    names = {name for block in blocks for name in re.findall(r"\brc\.(\w+)", block)}
    assert "compile_circuit" in names  # the pattern finds the examples
    assert sorted(name for name in names if not hasattr(recliff, name)) == []


def test_all_entries_resolve():
    assert [name for name in recliff.__all__ if not hasattr(recliff, name)] == []
