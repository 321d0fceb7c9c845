"""Static checks of the library source: its invariant checks are raises,
never ``assert`` statements, so that they still run under ``python -O``;
it imports nothing it does not read; and it defines nothing that no
reader needs."""

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


# Definitions that no library code reads, each kept for a reader outside
# ``src/``.
UNREAD_ALLOWED = {
    # perfbench's tracer patches these two by name
    ("linalg.py", "rref"),
    ("measure.py", "skeleton_measure_polys"),
    # the three moves under which every result must be invariant
    ("polytope.py", "HPolytope.translate"),
    ("polytope.py", "HPolytope.apply_lattice_map"),
    ("polytope.py", "HPolytope.permute_facets"),
    # the tests build their polynomials with these
    ("poly.py", "MultiPoly.variable"),
    ("poly.py", "MultiPoly.linear"),
}


def _is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _definitions(tree):
    """(qualified name, bare name, node) of each module-level function or
    class and each method not named ``__x__``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_definition_has_a_reader():
    """Each definition is read as a name or an attribute somewhere in
    ``src/``, is listed in ``masslin.__all__`` or is a CLI command; the
    exceptions are exactly the definitions that are still unread."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    read = set(masslin.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {
        (name, qualified)
        for name, tree in trees.items()
        for qualified, bare, node in _definitions(tree)
        if bare not in read and not (name == "cli.py" and _is_click_command(node))
    }
    assert SOURCES and sorted(unread - UNREAD_ALLOWED) == [] and sorted(UNREAD_ALLOWED - unread) == []
