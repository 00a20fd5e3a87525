"""Rules about the library source itself."""

import ast
from pathlib import Path

import char2kit

SOURCES = sorted(Path(char2kit.__file__).parent.glob("*.py"))


def test_no_assert_in_library():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; the library raises instead.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
