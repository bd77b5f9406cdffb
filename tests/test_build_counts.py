"""How often each pipeline builds its geometry.

The metric jet is built once per configuration and command, and the Riemann
tensor once per metric jet, also for the Hodge symbol of the square-root
hierarchy.  The curl symbol (one ``MetricJet.e_mixed`` each) and the raised
covector are built once per ``run_algorithm``, and ``verify_projection``
reuses what its family carries.  ``asymmetry_report`` runs the construction
for the "+" branch only; ``project`` runs it for every requested branch.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from curlasym import geometry, projections
from curlasym.altderiv import build_hierarchy
from curlasym.cli import entry
from curlasym.configs import unit_config
from curlasym.geometry import MetricJet, build_metric_jet
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
    build_hierarchy(unit_config("c11"))
    assert counts == {
        "build_metric_jet": 1,
        "riemann_from_ricci": 1,
        "raised_covector": 1,
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
    build_hierarchy(unit_config("c11"))
    assert len(calls) == 4 * 9 + 2 * 19
