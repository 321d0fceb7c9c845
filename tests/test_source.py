"""The library's invariant checks are raises, never ``assert``
statements, so that they still run under ``python -O``."""

import ast
from pathlib import Path

import masslin

SOURCES = sorted(Path(masslin.__file__).parent.rglob("*.py"))


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
