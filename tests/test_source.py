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


# perfbench's tracer test reads ``volume_poly`` from ``masslinear``
UNUSED_IMPORTS_ALLOWED = {("masslinear.py", "volume_poly")}


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds in the module, other than ``from __future__``,
    that it never reads as a name; in ``__init__.py``, that ``__all__``
    does not list."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    if path.name == "__init__.py":
        (listed,) = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        ]
        read = set(listed)
    else:
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read and (path.name, name) not in UNUSED_IMPORTS_ALLOWED]


def test_no_unused_imports():
    found = [f"{path.name}:{name}" for path in SOURCES for name in _unused_imports(path)]
    assert SOURCES and found == []
