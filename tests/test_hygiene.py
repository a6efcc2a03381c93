"""Source hygiene for src/epkit and tests/, checked on the syntax tree.

- No module, in src/epkit or among the tests, imports a name it does not
  use.
- Every top-level function and class is referenced outside its own
  definition, or is exported through `epkit.__all__`. A reference counts
  only in the defining module, or in a module of src/epkit that imports the
  name from it; a local variable of the same name elsewhere is not one.
- Every Hypothesis property runs under the profile `conftest` loads and
  sets only its own `max_examples`.

A reference is a name read in code; an import alone is not one, since an
import that nothing reads fails the first check. The allowlist names the
definitions kept without a caller, each with its reason.
"""

import ast
import pathlib
from collections import Counter

from hypothesis import settings

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "epkit"

ALLOWED_WITHOUT_CALLER: dict[str, str] = {}


def modules(root=SRC):
    return {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def exported(trees):
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


def names_read(tree):
    """How often each name is read in tree."""
    return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


def unused_imports(trees, exports):
    found = []
    for module, tree in trees.items():
        used = set(names_read(tree))
        if module == "__init__":
            used |= exports
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{module}.py:{node.lineno} imports {name}")
    return found


def imported_reads(trees):
    """(source module, name) -> reads of it in the modules importing it
    with `from .source import name`."""
    reads = Counter()
    for tree in trees.values():
        local = names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    reads[(node.module, alias.name)] += local[alias.asname or alias.name]
    return reads


def definitions_without_caller(trees, exports):
    elsewhere = imported_reads(trees)
    found = []
    for module, tree in trees.items():
        local = names_read(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            # reads inside the definition itself, recursion included, do not count
            if (
                name not in exports
                and local[name] == names_read(node)[name]
                and not elsewhere[(module, name)]
            ):
                found.append(f"{module}.{name}")
    return found


def test_no_unused_imports():
    trees = modules()
    assert unused_imports(trees, exported(trees)) == []


def test_no_unused_imports_in_tests():
    assert unused_imports(modules(TESTS), set()) == []


def test_every_definition_has_a_caller():
    trees = modules()
    missing = definitions_without_caller(trees, exported(trees))
    assert sorted(set(missing) - set(ALLOWED_WITHOUT_CALLER)) == []


def test_allowlist_is_current():
    trees = modules()
    missing = set(definitions_without_caller(trees, exported(trees)))
    assert set(ALLOWED_WITHOUT_CALLER) <= missing
    assert all(reason for reason in ALLOWED_WITHOUT_CALLER.values())


def test_properties_set_only_their_count():
    current = settings()
    assert current.derandomize and current.database is None and current.deadline is None
    for name, tree in modules(TESTS).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "settings":
                assert [k.arg for k in node.keywords] in ([], ["max_examples"]), name


def test_checks_catch_planted_faults():
    tree = ast.parse(
        "import json\n"
        "from .graph import reach, walk_value\n"
        "def used():\n    return walk_value\n"
        "def orphan():\n    return orphan()\n"
        "def shadowed():\n    return 0\n"
        "def imported():\n    return 0\n"
        "class Caller:\n    hook = used\n"
    )
    # another module reads `shadowed` only as a local variable of its own
    # and `imported` through an import from the planted module
    other = ast.parse(
        "from .planted import imported\n"
        "def f(shadowed):\n    return shadowed + imported()\n"
    )
    trees = {
        "__init__": ast.parse("__all__ = ['Caller', 'f']"),
        "planted": tree,
        "other": other,
    }
    exports = exported(trees)
    assert unused_imports(trees, exports) == [
        "planted.py:1 imports json",
        "planted.py:2 imports reach",
    ]
    assert definitions_without_caller(trees, exports) == [
        "planted.orphan",
        "planted.shadowed",
    ]
