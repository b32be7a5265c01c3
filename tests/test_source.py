"""Checks on the package source itself."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tamegal"


def test_no_assert_statements_in_the_package():
    """`python -O` strips assert statements, so no invariant of the package
    may rest on one: each must be an explicit check that raises."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
