"""Source hygiene for src/epkit and tests/, checked on the syntax tree.

- No module, in src/epkit or among the tests, imports a name it does not
  use.
- Every top-level function and class is referenced somewhere in src/epkit
  outside its own definition, or is exported through `epkit.__all__`.

A reference is a name read in code; an import alone is not one, since an
import that nothing reads fails the first check. The allowlist names the
definitions kept without a caller, each with its reason.
"""

import ast
import pathlib
from collections import Counter

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "epkit"

ALLOWED_WITHOUT_CALLER = {
    "oracle.packing_number": "oracle entry: ground-truth half-integral packing number",
    "oracle.hitting_number": "oracle entry: ground-truth minimum cover size",
}


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


def definitions_without_caller(trees, exports):
    reads = sum((names_read(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # reads inside the definition itself, recursion included, do not count
            if node.name not in exports and reads[node.name] == names_read(node)[node.name]:
                found.append(f"{module}.{node.name}")
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


def test_checks_catch_planted_faults():
    tree = ast.parse(
        "import json\n"
        "from .graph import reach, walk_value\n"
        "def used():\n    return walk_value\n"
        "def orphan():\n    return orphan()\n"
        "class Caller:\n    hook = used\n"
    )
    trees = {"__init__": ast.parse("__all__ = ['Caller']"), "planted": tree}
    exports = exported(trees)
    assert unused_imports(trees, exports) == [
        "planted.py:1 imports json",
        "planted.py:2 imports reach",
    ]
    assert definitions_without_caller(trees, exports) == ["planted.orphan"]
