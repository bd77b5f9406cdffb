"""Static checks on the package source that no linter in the toolchain makes."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "curlasym").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that nothing in it reads.

    A name counts as read when it appears as a name (an attribute chain
    a.b.c reads a), inside a quoted annotation, or in ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations such as "SymbolJet"; other text may parse
            # too, which can only hide an unused import, never invent one.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_import():
    source = (
        "from .polymat import mat_add, mat_truncate\n"
        "import os.path\n"
        "def f(a) -> 'os.PathLike':\n"
        "    return mat_add(a, a)\n"
    )
    assert unused_imports(source) == ["line 1: mat_truncate"]
