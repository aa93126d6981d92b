"""The library holds the library: every module-level function and class in
`src/capelli` has a caller there, or is public API. References that only the
tests need live in `tests/reference.py`."""

import ast
from pathlib import Path

import capelli

SRC = Path(capelli.__file__).parent
# `superalg` has no caller in the library yet: ROADMAP item 3 either makes it
# the first-principles Capelli-operator oracle or deletes it.
EXEMPT_MODULES = {"superalg"}


def _names_used(node) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_definition_has_a_library_caller():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    uses = [
        (stmt, _names_used(stmt)) for tree in trees.values() for stmt in tree.body
    ]
    public = set(capelli.__all__) | {"main"}
    uncalled = []
    for stem, tree in trees.items():
        if stem in EXEMPT_MODULES:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in public:
                continue
            if not any(node.name in names for stmt, names in uses if stmt is not node):
                uncalled.append(f"{stem}.{node.name}")
    assert uncalled == []
