"""No private helper of the package goes unread.

Every module under ``src/nreflect/`` is parsed with ``ast``; each
module-level ``def _name`` must be read by some module of the package (as
a name, as an attribute, or through a ``from ... import``), not counting
reads inside its own body, so a helper that only calls itself is unread.
Dunder names are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nreflect"


def _reads(tree) -> dict:
    """name -> the nodes that read it."""
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute):
            reads.setdefault(node.attr, []).append(node)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                reads.setdefault(alias.name, []).append(node)
    return reads


def unread_helpers(sources: dict) -> list:
    """(module, name) of each module-level private def that no module reads
    outside its own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [_reads(tree) for tree in trees.values()]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(id(reader) not in own for found in reads for reader in found.get(name, ())):
                unread.append((module, name))
    return unread


def test_every_private_helper_is_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_helpers(sources) == []


@pytest.mark.parametrize("sources,expected", [
    ({"a": "def _f():\n    pass\n"}, [("a", "_f")]),
    ({"a": "def _f():\n    pass\n_f()\n"}, []),
    ({"a": "def _f(n):\n    return _f(n - 1)\n"}, [("a", "_f")]),
    ({"a": "def _f():\n    pass\nhooks = [_f]\n"}, []),
    ({"a": "def _f():\n    pass\n", "b": "from .a import _f\n_f()\n"}, []),
    ({"a": "def _f():\n    pass\n", "b": "from . import a\na._f()\n"}, []),
    ({"a": "def f():\n    pass\ndef __getattr__(name):\n    pass\n"}, []),
    ({"a": "class C:\n    def _m(self):\n        pass\n"}, []),
    ({"a": "def _f():\n    pass\n", "b": "def _g():\n    pass\n_f = 1\n"}, [("a", "_f"), ("b", "_g")]),
], ids=["unread", "called", "only-itself", "as-value", "imported", "attribute", "public-dunder", "method",
        "store-is-no-read"])
def test_the_guard_itself(sources, expected):
    assert unread_helpers(sources) == expected
