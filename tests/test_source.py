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


def names(tree: ast.AST) -> set[str]:
    """Every name a parsed source binds or reads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_only_the_package_declares_all():
    """``__init__.py`` is the one declaration of the public names."""
    found = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        and "__all__" in names(ast.parse(path.read_text()))
    ]
    assert found == [], f"__all__ outside __init__.py: {found}"


def test_package_all_lists_exactly_its_imports():
    (init,) = SRC.rglob("__init__.py")
    tree = ast.parse(init.read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and "__all__" in names(node)
    ]
    assert len(exported) == 64
    assert sorted(exported) == sorted(imported)
