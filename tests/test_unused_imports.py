"""Every name that a module of `src/leonard` imports is used in that module.

A deletion that leaves an import behind fails here.  `__init__.py` is left
out, because its imports are the package's exports, and so is `from
__future__`.  A name counts as used when it appears as a name anywhere in
the module, an attribute base such as `fields.X` included.  No module quotes
an imported name in an annotation, so quoted annotations are not read.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "leonard"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert [name for name in imported_names(tree) if name not in used_names(tree)] == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from .fields import Field, FieldElement\n"
                     "import itertools\n"
                     "def f(x: Field):\n    return x\n")
    assert [n for n in imported_names(tree) if n not in used_names(tree)] == \
        ["FieldElement", "itertools"]
