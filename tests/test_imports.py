"""Source hygiene: every name an import binds is read in its module.

The scan covers src/, tests/ and tools/.  A package ``__init__.py``
re-exports what it imports, so it is exempt, and so are ``__future__``
imports, which bind no name that is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "tools")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and the module never
    reads, in line order."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import numpy as np\n"
              "from math import pi, tau\n"
              "def f():\n"
              "    import json\n"
              "    return np.pi + tau\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi"), (6, "json")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in SCANNED
             for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)
