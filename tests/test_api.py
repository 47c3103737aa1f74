"""Every public helper of the package has a caller inside the package.

A public top-level function or class of ``src/coxquiver``, or a public
method, property or classmethod of a public class, counts as used when some
module of the package names it outside its own definition: as a bare name,
as an attribute, or in an import (the exports of ``__init__`` included).
A method's siblings in its class count as callers; a class's own methods do
not.  A helper that only tests call belongs in those tests.
"""

import ast
from collections import Counter
from pathlib import Path

import coxquiver

PACKAGE = Path(coxquiver.__file__).resolve().parent


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


def unreferenced_public_helpers(package: Path) -> list[str]:
    """``module.name`` of every public top-level function or class, and
    ``module.Class.name`` of every public method of a public class, in
    ``package`` that no module of the package refers to outside its own
    definition."""
    modules = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(package.glob("*.py"))]
    everywhere = sum((_references(tree) for _, tree in modules), Counter())

    def unused(node: ast.AST) -> bool:
        return everywhere[node.name] == _references(node)[node.name]

    found = []
    for module, tree in modules:
        for node in _public(tree.body):
            if unused(node):
                found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}.{node.name}.{member.name}"
                          for member in _public(node.body) if unused(member)]
    return found


def test_every_public_helper_has_a_caller_in_the_package():
    assert unreferenced_public_helpers(PACKAGE) == []


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
    assert unreferenced_public_helpers(tmp_path) == [
        "a.dead", "a.Dead", "a.Shape.dead_method", "a.Shape.dead_property"]
