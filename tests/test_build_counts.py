"""How often each pipeline builds its geometry.

The metric jet is built once per configuration and command, the curl symbol
(one ``MetricJet.e_mixed`` each) and the raised covector once per
``run_algorithm``, and ``verify_projection`` reuses what its family carries.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from curlasym import geometry
from curlasym.altderiv import build_hierarchy
from curlasym.cli import entry
from curlasym.configs import unit_config
from curlasym.geometry import MetricJet, build_metric_jet
from curlasym.projections import asymmetry_report, run_algorithm, verify_projection


@pytest.fixture
def counts(monkeypatch) -> Counter:
    """Counts calls to build_metric_jet, MetricJet.e_mixed and raised_covector."""
    tally = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_metric_jet", "raised_covector"):
        original = getattr(geometry, name)
        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("curlasym"):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
    monkeypatch.setattr(MetricJet, "e_mixed", counting("e_mixed", MetricJet.e_mixed))
    return tally


def test_asymmetry_report(counts):
    asymmetry_report(unit_config("c11"))
    assert counts == {"build_metric_jet": 1, "e_mixed": 2, "raised_covector": 2}


def test_project_three_branches(counts, tmp_path):
    argv = ["project", "--config", "c11", "--accuracy", "3"]
    assert entry(argv + ["--output", str(tmp_path / "out.json")]) == 0
    assert counts == {"build_metric_jet": 1, "e_mixed": 3, "raised_covector": 3}


def test_verify_projection_builds_nothing(counts):
    fam = run_algorithm(build_metric_jet(unit_config("c11")), "+", 3)
    counts.clear()
    assert verify_projection(fam)["pass"]
    assert counts == {}


def test_hierarchy(counts):
    build_hierarchy(unit_config("c11"))
    assert counts == {"build_metric_jet": 1, "raised_covector": 1}
