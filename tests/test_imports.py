"""No module imports a name it never reads.

Every module under ``src/``, ``tests/`` and ``demos/`` is parsed with
``ast``; a name bound by an ``import`` or ``from ... import`` statement
must be read somewhere in the module (as a name or as the root of an
attribute chain).  ``from __future__`` imports, the re-exports of
``src/nreflect/__init__.py`` and import lines marked ``# noqa: F401`` are
exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py"))
REEXPORTS = ROOT / "src" / "nreflect" / "__init__.py"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", [p for p in MODULES if p != REEXPORTS], ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source,expected", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.getcwd()\n", []),
    ("from a import (b,\n    c as d)\nb()\n", [(2, "d")]),
    ("from a import b  # noqa: F401 - re-exported\n", []),
    ("from __future__ import annotations\n", []),
    ("import os\nos = 1\n", [(1, "os")]),
    ("def f():\n    from a import b\n    return b\n", []),
], ids=["plain", "dotted", "alias", "noqa", "future", "rebound-only", "local"])
def test_the_guard_itself(source, expected):
    assert unused_imports(source) == expected
