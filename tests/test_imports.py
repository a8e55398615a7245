"""No module imports a name it never uses, in the package, the tests or the
scripts: pyflakes's F401 read with the standard library's ``ast`` alone.

A name counts as used when the module reads it anywhere, in a quoted
annotation too, or lists it in ``__all__``.  ``__future__`` imports and
import statements marked ``# noqa: F401`` are exempt.  Scopes are not
told apart: a name imported in one function and read in another counts
as used.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIRS = ("src/meltcal", "tests", "scripts")
_NOQA = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def _names(tree: ast.AST) -> set[str]:
    """The names read in ``tree``, those of its quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name ``source`` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            if (getattr(node, "module", None) == "__future__"
                    or any(_NOQA.search(line)
                           for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name.split(".")[0],
                                        node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = _names(tree) | exported
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("source, expected", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("import os  # noqa: F401 - imported for its side effect\n", []),
    ("from a import (\n    b,  # noqa: F401\n    c,\n)\n", []),
    ("from __future__ import annotations\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from typing import Sequence\ndef f(x: 'Sequence[int]') -> None: ...\n", []),
    ("def f():\n    import json\n    return 1\n", [(2, "json")]),
], ids=["unused", "dotted", "alias", "noqa", "noqa-multiline", "future", "all",
        "quoted-annotation", "in-function"])
def test_checker(source, expected):
    assert unused_imports(source) == expected


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name!r} imported but unused"
             for directory in DIRS
             for path in sorted((ROOT / directory).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "\n".join(found)
