"""Static checks on the library source."""

import ast
from pathlib import Path

import electroid_lab

SRC = Path(electroid_lab.__file__).parent


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so the library must not rely on them
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
