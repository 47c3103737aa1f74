"""The package's surface: every helper has a caller, and every export is
listed in the README's "Public API" table.

A public top-level function or class of ``src/coxquiver``, or a public
method, property or classmethod of a public class, counts as used when some
module of the package names it outside its own definition: as a bare name,
as an attribute, or in an import.  A re-export in ``__init__`` counts only
for the names of the README's "Public API" table, which lists each export
with its consumer, and that table must list exactly the exports.  A
method's siblings in its class count as callers; a class's own methods do
not.  A private top-level function or class (one leading underscore) needs
a caller by the same count, so a helper whose job moved elsewhere does not
linger.  The count goes by bare name, so no two modules may define the same
public top-level name: one would count as a caller of the other.  A
helper that only tests call belongs in those tests.  Since an import
counts as a caller, no module but ``__init__`` may import a name that its
body never uses.  By the same count, every top-level function of the
tests' ``dense.py`` oracles needs a caller among the tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import coxquiver

PACKAGE = Path(coxquiver.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"
TESTS = Path(__file__).resolve().parent


def _references(node: ast.AST) -> Counter:
    """How often ``node`` refers to each name."""
    names: Counter = Counter()
    for current in ast.walk(node):
        if isinstance(current, ast.Name):
            names[current.id] += 1
        elif isinstance(current, ast.Attribute):
            names[current.attr] += 1
        elif isinstance(current, ast.alias):
            names[current.name] += 1
    return names


def _public(nodes) -> list:
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _private(nodes) -> list:
    """The functions and classes named with one leading underscore; a
    dunder is the interpreter's to call."""
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _modules(package: Path) -> list:
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]


def public_api_table(readme: Path) -> set[str]:
    """The names in the first column of the "Public API" table of
    ``readme``."""
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return {name for line in section.splitlines() if line.startswith("| `")
            for name in re.findall(r"`(\w+)`", line.split("|")[1])}


def exported_names(package: Path) -> set[str]:
    """The names ``__init__`` of ``package`` imports from its modules."""
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _unused(modules: list, listed):
    """Whether a definition's name is referred to nowhere in ``modules``
    but inside the definition itself; ``__init__`` refers only to the
    names in ``listed``."""
    everywhere: Counter = Counter()
    for module, tree in modules:
        references = _references(tree)
        if module == "__init__":
            references = Counter({name: count for name, count in references.items()
                                  if name in listed})
        everywhere += references
    return lambda node: everywhere[node.name] == _references(node)[node.name]


def unreferenced_public_helpers(package: Path, listed=frozenset()) -> list[str]:
    """``module.name`` of every public top-level function or class, and
    ``module.Class.name`` of every public method of a public class, in
    ``package`` that no module of the package refers to outside its own
    definition; ``__init__`` refers only to the names in ``listed``."""
    modules = _modules(package)
    unused = _unused(modules, listed)
    found = []
    for module, tree in modules:
        for node in _public(tree.body):
            if unused(node):
                found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}.{node.name}.{member.name}"
                          for member in _public(node.body) if unused(member)]
    return found


def unreferenced_private_helpers(package: Path) -> list[str]:
    """``module.name`` of every private top-level function or class in
    ``package`` that no module of the package refers to outside its own
    definition; ``__init__`` counts for none of them."""
    modules = _modules(package)
    unused = _unused(modules, frozenset())
    return [f"{module}.{node.name}" for module, tree in modules
            for node in _private(tree.body) if unused(node)]


def duplicate_public_names(package: Path) -> list[str]:
    """``name: module, module, ...`` for every public top-level function or
    class name that more than one module of ``package`` defines."""
    defined: dict[str, list[str]] = {}
    for module, tree in _modules(package):
        for node in _public(tree.body):
            defined.setdefault(node.name, []).append(module)
    return sorted(f"{name}: {', '.join(modules)}"
                  for name, modules in defined.items() if len(modules) > 1)


def unused_imports(package: Path) -> list[str]:
    """``module.name`` of every name that a module of ``package`` other
    than ``__init__`` imports, at the top or inside a function, and that no
    ``Name`` node of the module reads.  ``from __future__`` binds no name.
    Annotations are parsed as expressions even when their evaluation is
    postponed, so a name used in one alone counts as used."""
    found = []
    for module, tree in _modules(package):
        if module == "__init__":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    # ``import a.b`` binds a
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{module}.{name}")
    return found


def uncalled_oracles(tests: Path) -> list[str]:
    """``dense.name`` of every top-level function of ``dense.py`` in
    ``tests`` that no module there refers to outside its own definition:
    an oracle whose subject left ``src/`` goes with it."""
    modules = _modules(tests)
    unused = _unused(modules, frozenset())
    dense = dict(modules)["dense"]
    return [f"dense.{node.name}" for node in dense.body
            if isinstance(node, ast.FunctionDef) and unused(node)]


def test_every_public_helper_has_a_caller_in_the_package():
    assert unreferenced_public_helpers(PACKAGE, public_api_table(README)) == []


def test_every_private_helper_has_a_caller_in_the_package():
    assert unreferenced_private_helpers(PACKAGE) == []


def test_the_public_api_table_lists_exactly_the_exports():
    listed, exported = public_api_table(README), exported_names(PACKAGE)
    assert sorted(listed - exported) == [], "listed in the README, not exported"
    assert sorted(exported - listed) == [], "exported, not listed in the README"
    assert exported <= set(coxquiver.__all__)


def test_no_two_modules_define_the_same_public_name():
    assert duplicate_public_names(PACKAGE) == []


def test_the_check_sees_an_uncalled_helper(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper() + Shape.build().size\n\n"
        "def helper():\n    return 1\n\n"
        "def dead():\n    return dead()\n\n"
        "class Dead:\n    pass\n\n"
        "class Shape:\n"
        "    def __init__(self):\n        self.x = self.called()\n\n"
        "    def called(self):\n        return 1\n\n"
        "    def dead_method(self):\n        return self.dead_method()\n\n"
        "    @property\n    def size(self):\n        return self.x\n\n"
        "    @property\n    def dead_property(self):\n        return 1\n\n"
        "    @classmethod\n    def build(cls):\n        return cls()\n\n"
        "def _private():\n    pass\n"
    )
    dead = ["a.dead", "a.Dead", "a.Shape.dead_method", "a.Shape.dead_property"]
    assert unreferenced_public_helpers(tmp_path, {"used"}) == dead
    # a re-export that the table does not list is no caller
    assert unreferenced_public_helpers(tmp_path) == ["a.used"] + dead


def test_the_check_sees_an_uncalled_private_helper(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, _dead\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return _helper() + _Shape().size\n\n"
        "def _helper():\n    return 1\n\n"
        "def _shared():\n    return 2\n\n"
        "def _dead():\n    return _dead()\n\n"
        "class _Dead:\n    pass\n\n"
        "class _Shape:\n    size = 1\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n")
    (tmp_path / "b.py").write_text("from .a import _shared\n\nX = _shared()\n")
    # a recursive call, or an import in __init__, is no caller
    assert unreferenced_private_helpers(tmp_path) == ["a._dead", "a._Dead"]


def test_the_table_and_export_readers(tmp_path):
    (tmp_path / "README.md").write_text(
        "# p\n\n## Public API\n\ntext with `ignored`\n\n"
        "| names | consumer |\n| --- | --- |\n"
        "| `one`, `two` | the `verb` verb |\n| `three` | a test |\n\n"
        "## Next\n\n| `four` | not in the section |\n")
    assert public_api_table(tmp_path / "README.md") == {"one", "two", "three"}
    (tmp_path / "__init__.py").write_text(
        "from .a import one, two as second\nfrom .b import (\n    three,\n)\n"
        "import json\n")
    assert exported_names(tmp_path) == {"one", "second", "three"}


def test_the_check_sees_a_name_defined_in_two_modules(tmp_path):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "a.py").write_text(
        "def is_connected(q):\n    return True\n\nclass Shape:\n    pass\n\n"
        "def _private():\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from .a import Shape\n\ndef is_connected(f):\n    return True\n\n"
        "def _private():\n    pass\n")
    (tmp_path / "c.py").write_text("class Shape:\n    pass\n")
    assert duplicate_public_names(tmp_path) == ["Shape: a, c", "is_connected: a, b"]
    # the bare-name count lets one definition stand in for the other
    (tmp_path / "b.py").write_text(
        "def is_connected(f):\n    return True\n\nOK = is_connected(0)\n")
    assert "a.is_connected" not in unreferenced_public_helpers(tmp_path)


def test_every_dense_oracle_has_a_caller_in_the_tests():
    assert uncalled_oracles(TESTS) == []


def test_the_check_sees_an_uncalled_oracle(tmp_path):
    (tmp_path / "dense.py").write_text(
        "def used():\n    return _inner()\n\n"
        "def _inner():\n    return 1\n\n"
        "def dead():\n    return dead()\n\n"
        "def _dead():\n    pass\n\n"
        "class Shape:\n    pass\n")
    (tmp_path / "test_a.py").write_text(
        "from dense import used\n\n"
        "def test_used():\n    assert used() == 1\n\n"
        "def dead():\n    pass\n")
    # a recursive call, or a same-named definition elsewhere, is no caller;
    # classes are not oracles
    assert uncalled_oracles(tmp_path) == ["dense.dead", "dense._dead"]


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(PACKAGE) == []


def test_the_check_sees_an_unused_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, unused\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "from math import gcd, isqrt, lcm as least\n"
        "from .b import Shape, Size\n\n"
        "def used(x: Shape) -> int:\n"
        "    from heapq import heapify, heappop, heappush\n"
        "    heapify(x)\n"
        "    return least(os.path.sep, isqrt(heappop(x)))\n")
    # an annotation is a use; re-exports in __init__ are not looked at
    assert unused_imports(tmp_path) == ["a.gcd", "a.Size", "a.heappush"]
