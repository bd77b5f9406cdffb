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


#: Public functions that only tests call, kept because each is the subject of
#: a check of the paper: the Poisson bracket, adjoint, transport and
#: subprincipal identities, the norm power and d/delta symbols, the Berger
#: counting, eta and Hitchin identities, and Bianchi-consistent random data.
PAPER_CHECKS = {
    "berger": {
        "counting_function",
        "eta_decomposition_rhs",
        "eta_partial",
        "hitchin_remainder",
        "laplacian_spectrum",
    },
    "calculus": {"adjoint_prin_sub", "poisson_bracket"},
    "configs": {"random_bianchi_config"},
    "geometry": {"d_delta_symbols", "norm_power_jet", "transport_jet"},
    "projections": {"subprincipal_check"},
}


def unreferenced_public(sources: dict) -> list:
    """Public top-level functions and classes that no module references.

    ``sources`` maps module names to source text.  A reference is a name or
    an attribute (a.name) anywhere in any module, outside the definition of
    the function or class itself; text in strings does not count.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    public = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    defined, referenced = [], set()
    for module, tree in trees.items():
        for top in tree.body:
            own = None
            if isinstance(top, public) and not top.name.startswith("_"):
                defined.append(f"{module}.{top.name}")
                own = top.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return [d for d in defined if d.partition(".")[2] not in referenced]


def test_every_public_function_has_a_caller_in_src():
    """Only the paper checks may lack one, and each of them must."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    found = set(unreferenced_public(sources))
    allowed = {f"{m}.{name}" for m, names in PAPER_CHECKS.items() for name in names}
    assert (sorted(found - allowed), sorted(allowed - found)) == ([], [])


def test_detector_flags_an_unreferenced_function():
    sources = {
        "a": (
            "def used(n):\n"
            "    return used(n - 1) if n else 0\n"
            "def only_self(n):\n"
            "    return only_self(n - 1) if n else 0\n"
            "class Unused:\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "NAME = 'only_self'\n"
        ),
        "b": "from . import a\nVALUE = a.used(2)\n",
    }
    assert unreferenced_public(sources) == ["a.only_self", "a.Unused"]
