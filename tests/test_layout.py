"""The library holds the library: every module-level function and class in
`src/capelli`, and every non-dunder method of its classes, has a caller
there, or is public API. No module is exempt. References that only the
tests need live in `tests/reference.py`. Nothing in the library is an
`assert`, and the README's "Library layout" table names exactly the
library's modules. The library has one cache, and it is bounded: objects are
set up in their constructors, so no lazy memo hides beside it."""

import ast
import re
from collections import Counter
from pathlib import Path

import capelli

SRC = Path(capelli.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _names_used(node) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def test_every_definition_has_a_library_caller():
    trees = _trees()
    uses = [
        (stmt, _names_used(stmt)) for tree in trees.values() for stmt in tree.body
    ]
    public = set(capelli.__all__) | {"main"}
    uncalled = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in public:
                continue
            if not any(node.name in names for stmt, names in uses if stmt is not node):
                uncalled.append(f"{stem}.{node.name}")
    assert uncalled == []


def _attributes_used(node) -> Counter:
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    )


def test_every_method_has_a_library_caller():
    """A method counts as called when an attribute of its name is used
    somewhere in the library outside its own definition, public classes
    included; a local variable of the same name does not count. A call of a
    name that two classes define counts for both, which the next test
    allows only for `to_json_dict`."""
    trees = _trees()
    total = sum((_attributes_used(tree) for tree in trees.values()), Counter())
    uncalled = []
    for stem, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if total[node.name] - _attributes_used(node)[node.name] <= 0:
                    uncalled.append(f"{stem}.{cls.name}.{node.name}")
    assert uncalled == []


def test_shared_method_names_are_the_json_form():
    """The method check counts a call of a shared name for every class that
    defines it, so a method could outlive its last caller behind another
    class's. The only name two library classes may share is `to_json_dict`,
    the JSON form of a value."""
    owners: dict[str, list[str]] = {}
    for stem, tree in _trees().items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                owners.setdefault(node.name, []).append(f"{stem}.{cls.name}")
    shared = {name: where for name, where in owners.items() if len(where) > 1}
    assert set(shared) <= {"to_json_dict"}, shared


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so the worked examples and every other
    # internal check must raise real exceptions instead.
    for stem, tree in _trees().items():
        asserts = [
            node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
        assert not asserts, f"{stem}.py: assert at lines {asserts}"


def _object_setattr_calls(node) -> int:
    return sum(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == "__setattr__"
        and isinstance(sub.func.value, ast.Name)
        and sub.func.value.id == "object"
        for sub in ast.walk(node)
    )


def test_object_setattr_only_in_constructors():
    # A frozen object that sets an attribute after construction is a cache.
    for stem, tree in _trees().items():
        constructors = sum(
            _object_setattr_calls(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in ("__init__", "__post_init__")
        )
        assert _object_setattr_calls(tree) == constructors, stem


def test_readme_layout_table_names_every_module():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `capelli\.(\w+)` \|", section, flags=re.MULTILINE)
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(listed) == sorted(modules)


CACHE_FACTORIES = {"lru_cache", "cache"}


def _is_cache_factory(node, imported) -> bool:
    """True for a reference to functools.lru_cache or functools.cache, by
    attribute or by a name imported from functools."""
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in CACHE_FACTORIES
        )
    return isinstance(node, ast.Name) and node.id in imported


def test_one_bounded_cache():
    references, decorated = 0, []
    for stem, tree in _trees().items():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
            if alias.name in CACHE_FACTORIES
        }
        references += sum(_is_cache_factory(node, imported) for node in ast.walk(tree))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in func.decorator_list:
                factory = dec.func if isinstance(dec, ast.Call) else dec
                if _is_cache_factory(factory, imported):
                    decorated.append((f"{stem}.{func.name}", dec))
    assert [name for name, _ in decorated] == ["isjp._polynomials_of_size"]
    # every reference is that one decorator: no cache is made by a call
    assert references == 1
    dec = decorated[0][1]
    bounds = [kw.value for kw in getattr(dec, "keywords", []) if kw.arg == "maxsize"]
    assert bounds and not (
        isinstance(bounds[0], ast.Constant) and bounds[0].value is None
    ), "the cache needs a maxsize"
