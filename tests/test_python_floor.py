"""The package's source parses on the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

import recliff

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(recliff.__file__).resolve().parent


def declared_floor() -> tuple[int, int]:
    """``requires-python = ">=X.Y"`` from pyproject.toml, as ``(X, Y)``."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())


def test_newer_syntax_is_caught():
    # except* came in with 3.11, so the floor's grammar rejects it.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))

