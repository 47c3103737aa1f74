"""Every public helper of the package has a caller inside the package.

A public top-level function or class of ``src/coxquiver`` counts as used
when some module of the package names it outside its own definition: as a
bare name, as an attribute, or in an import (the exports of ``__init__``
included).  A helper that only tests call belongs in those tests.
"""

import ast
from pathlib import Path

import coxquiver

PACKAGE = Path(coxquiver.__file__).resolve().parent


def _references(node: ast.AST) -> set[str]:
    """Names that ``node`` refers to."""
    names: set[str] = set()
    for current in ast.walk(node):
        if isinstance(current, ast.Name):
            names.add(current.id)
        elif isinstance(current, ast.Attribute):
            names.add(current.attr)
        elif isinstance(current, ast.alias):
            names.add(current.name)
    return names


def unreferenced_public_helpers(package: Path) -> list[str]:
    """``module.name`` of every public top-level function or class in
    ``package`` that no module of the package refers to outside its own
    definition."""
    statements = [
        (path.stem, statement, _references(statement))
        for path in sorted(package.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    return [
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names
                    for _, other, names in statements if other is not node)
    ]


def test_every_public_helper_has_a_caller_in_the_package():
    assert unreferenced_public_helpers(PACKAGE) == []


def test_the_check_sees_an_uncalled_helper(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead():\n    return dead()\n\n"
        "class Dead:\n    pass\n\n"
        "def _private():\n    pass\n"
    )
    assert unreferenced_public_helpers(tmp_path) == ["a.dead", "a.Dead"]
