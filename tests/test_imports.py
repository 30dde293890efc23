"""Every module of the package uses each name it imports.

A deletion that leaves an import behind fails here, not at review.  A
name counts as used when it is read as a name anywhere in the module,
which covers the base of an attribute such as ``itertools.product``, or
when it appears in a string annotation such as ``"_FiniteMap"``.
``__init__.py`` is exempt: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mulprob"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation node: of arguments, of returns and of assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, string annotations parsed."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_names_attributes_and_string_annotations():
    source = (
        "import itertools\n"
        "from fractions import Fraction\n"
        "from typing import Any, Sequence\n"
        "from .dist import Dist\n"
        "def f(x: 'Sequence[Dist]'):\n"
        "    return itertools.chain(x)\n"
    )
    assert unused_imports(source) == ["Fraction (line 2)", "Any (line 3)"]
