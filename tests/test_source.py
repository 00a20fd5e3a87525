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


def test_no_cap_parameter_on_public_functions():
    # Caps are module constants, checked in one place per entry point; a
    # per-call override is an option no caller uses.
    found = [f"{path.name}:{node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not node.name.startswith("_")
             and "cap" in [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]]
    assert found == []
