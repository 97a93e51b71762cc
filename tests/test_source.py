"""Invariants of the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in a module's source."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_no_assert_statements_under_src():
    """``python -O`` strips assert statements, so every check in the
    package must raise explicitly to hold in every run mode."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in modules
        for line in assert_lines(path.read_text())
    ]
    assert found == [], f"assert statements under src/: {found}"


def test_nested_assert_statements_are_found():
    source = "def f(x):\n    if x:\n        assert x > 0, 'no'\n"
    assert assert_lines(source) == [3]
