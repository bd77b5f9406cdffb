"""How often each pipeline builds its geometry, and how many polynomial
products a matrix product makes.

The metric jet is built once per configuration and command, and the Riemann
tensor once per metric jet; the square-root hierarchy takes the metric jet it
is given, so ``asym --sweep`` builds one per configuration.  The curl symbol
(one ``MetricJet.e_mixed`` each) and the raised covector are built once per
``run_algorithm``, and ``verify_projection`` reuses what its family carries.
``asymmetry_report`` runs the construction for the "+" branch only;
``project`` runs it for every requested branch.
A matrix product multiplies only its pairs of non-zero entries, and each
construction step composes only the levels it reads: levels k - 1 and k of
P P, and level k of both commutators with curl.  Each compose forms its own
derivatives.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from curlasym import geometry, polymat, projections
from curlasym.altderiv import build_hierarchy
from curlasym.cli import entry
from curlasym.configs import unit_config
from curlasym.exactpoly import TruncatedPoly
from curlasym.geometry import MetricJet, build_metric_jet
from curlasym.polymat import mat_mul, zero_mat
from curlasym.projections import asymmetry_report, run_algorithm, verify_projection


@pytest.fixture
def counts(monkeypatch) -> Counter:
    """Counts calls to build_metric_jet, riemann_from_ricci, MetricJet.e_mixed,
    raised_covector and run_algorithm."""
    tally = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for home, name in (
        (geometry, "build_metric_jet"),
        (geometry, "riemann_from_ricci"),
        (geometry, "raised_covector"),
        (projections, "run_algorithm"),
    ):
        original = getattr(home, name)
        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("curlasym"):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
    monkeypatch.setattr(MetricJet, "e_mixed", counting("e_mixed", MetricJet.e_mixed))
    return tally


def test_asymmetry_report(counts):
    asymmetry_report(unit_config("c11"))
    assert counts == {
        "build_metric_jet": 1,
        "riemann_from_ricci": 1,
        "e_mixed": 1,
        "raised_covector": 1,
        "run_algorithm": 1,
    }


def test_project_three_branches(counts, tmp_path):
    argv = ["project", "--config", "c11", "--accuracy", "3"]
    assert entry(argv + ["--output", str(tmp_path / "out.json")]) == 0
    assert counts == {
        "build_metric_jet": 1,
        "riemann_from_ricci": 1,
        "e_mixed": 3,
        "raised_covector": 3,
        "run_algorithm": 3,
    }


def test_verify_projection_builds_nothing(counts):
    fam = run_algorithm(build_metric_jet(unit_config("c11")), "+", 3)
    counts.clear()
    assert verify_projection(fam)["pass"]
    assert counts == {}


def test_hierarchy(counts):
    """Given a metric jet, the hierarchy builds none and raises the covector once."""
    mj = build_metric_jet(unit_config("c11"))
    counts.clear()
    build_hierarchy(mj)
    assert counts == {"raised_covector": 1}


def test_sweep(counts, tmp_path):
    """One metric jet per config: the 18 hierarchies take the jets of their
    asymmetry reports (each config was built twice, 42 builds in all)."""
    assert entry(["asym", "--sweep", "--output", str(tmp_path / "out.json")]) == 0
    assert counts == {
        "build_metric_jet": 24,
        "riemann_from_ricci": 24,
        "e_mixed": 24,
        "raised_covector": 42,
        "run_algorithm": 24,
    }


def test_hierarchy_mat_diff_calls(monkeypatch):
    """Each x derivative of a derivative term is formed once per sorted index
    tuple, from its prefix: 3 + 6 calls at rank 2 and 3 + 6 + 10 at rank 3.
    The hierarchy has four rank-2 and two rank-3 terms, so 74 calls (the sum
    over every ordered tuple, each derivative from scratch, took 234)."""
    from curlasym import altderiv

    calls = []
    real = altderiv.mat_diff

    def counting(m, var):
        calls.append(var)
        return real(m, var)

    monkeypatch.setattr(altderiv, "mat_diff", counting)
    build_hierarchy(build_metric_jet(unit_config("c11")))
    assert len(calls) == 4 * 9 + 2 * 19


def _polymat_calls(monkeypatch, name: str) -> list:
    """Records each call of ``polymat.<name>`` from every curlasym module
    that calls it; returns the record."""
    calls = []
    real = getattr(polymat, name)

    def counting(*args):
        calls.append(None)
        return real(*args)

    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("curlasym"):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_hierarchy_poly_calls(monkeypatch):
    """The polynomial work of one hierarchy on c11, counted in every module,
    once its Euclidean jets are cached.  The Riemannian norm powers enter
    as multiples of the identity, and their terms are formed on the scalar:
    forming them on 3x3 identity multiples made 693 products and 828
    derivatives."""
    mj = build_metric_jet(unit_config("c11"))
    build_hierarchy(mj)
    names = ("poly_mul", "poly_diff", "poly_add")
    calls = {name: _polymat_calls(monkeypatch, name) for name in names}
    build_hierarchy(mj)
    assert {name: len(c) for name, c in calls.items()} == {
        "poly_mul": 393,
        "poly_diff": 332,
        "poly_add": 309,
    }


def test_run_algorithm_mat_mul_calls(monkeypatch):
    """Every matrix product of one accuracy-3 construction on c11, counted in
    every module that calls ``mat_mul``: one in the metric jet's Neumann
    series, 90 in ``run_algorithm``.  Step k composes P P at levels k - 1
    and k and the commutators at level k only, and forms P T and T P once
    for both other branches; forming them per branch made 97 products in
    all, composing the commutators at every level too 140, and P P too,
    163."""
    calls = _polymat_calls(monkeypatch, "mat_mul")
    run_algorithm(build_metric_jet(unit_config("c11")), "+", 3)
    assert len(calls) == 91


def test_run_algorithm_mat_diff_calls(monkeypatch):
    """Matrix derivatives of one accuracy-3 construction on c11, counted in
    every module that calls ``mat_diff``.  Each compose of ``run_algorithm``
    forms the derivatives its levels need: 177 calls (234 with the
    commutators composed at every level).  ``verify_projection`` composes
    the full jets, the independent check, and makes 108."""
    calls = _polymat_calls(monkeypatch, "mat_diff")
    fam = run_algorithm(build_metric_jet(unit_config("c11")), "+", 3)
    assert len(calls) == 177
    calls.clear()
    assert verify_projection(fam)["pass"]
    assert len(calls) == 108


@pytest.fixture
def poly_calls(monkeypatch) -> Counter:
    """Counts the poly_mul and poly_add calls of the matrix layer."""
    tally = Counter()
    for name in ("poly_mul", "poly_add"):
        real = getattr(polymat, name)

        def counting(a, b, real=real, name=name):
            tally[name] += 1
            return real(a, b)

        monkeypatch.setattr(polymat, name, counting)
    return tally


def _entries(rows):
    return tuple(tuple(TruncatedPoly.constant(v, 2) for v in row) for row in rows)


def test_mat_mul_multiplies_only_nonzero_pairs(poly_calls):
    """One poly_mul per (i, k, j) with A[i][k] and B[k][j] both non-zero, and
    one poly_add fewer than that per entry; a zero factor costs no call."""
    diagonal = _entries([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    column = _entries([[1], [2], [3]])
    mat_mul(diagonal, column)
    assert poly_calls == {"poly_mul": 3}

    poly_calls.clear()
    zero = zero_mat((3, 3), 2)
    mat_mul(zero, diagonal)
    mat_mul(diagonal, zero)
    mat_mul(zero, column)
    assert poly_calls == {}

    poly_calls.clear()
    full = _entries([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    mat_mul(full, full)
    assert poly_calls == {"poly_mul": 27, "poly_add": 18}
