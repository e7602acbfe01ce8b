"""Static checks on the library source."""

import ast
from pathlib import Path

import electroid_lab

SRC = Path(electroid_lab.__file__).parent


def library_nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so the library must not rely on them
    found = [f"{name}:{node.lineno}" for name, node in library_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_raise_assertion_error_in_library():
    # a broken invariant raises errors.InvariantError, which the CLI maps to exit 3
    found = []
    for name, node in library_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert found == []
