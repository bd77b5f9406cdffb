"""Projection construction, verification, and asymmetry-value extraction."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

from curlasym import projections
from curlasym.calculus import SymbolJet, compose, subprincipal
from curlasym.configs import (
    UNIT_CONFIG_NAMES,
    CurvatureConfig,
    random_config,
    unit_config,
)
from curlasym.exactpoly import GaussianRational, TruncatedPoly
from curlasym.geometry import (
    build_metric_jet,
    curl_symbol,
    norm_power_jet,
)
from curlasym.polymat import (
    identity_mat,
    mat_add,
    mat_commutator,
    mat_conj,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_poly_scale,
    mat_restrict,
    mat_sub,
)
from curlasym.projections import (
    LABELS,
    aprin_closed_form,
    asymmetry_report,
    run_algorithm,
    subprincipal_check,
    verify_projection,
)

from conftest import anchor_values, const_mat, eigenprojections, epsilon


def _gmat(entries, order):
    """Matrix of polynomials from {(row, col): {exponent: (re, im)}} specs."""
    rows = []
    for a in range(3):
        row = []
        for b in range(3):
            terms = {}
            for exp, (re_c, im_c) in entries.get((a, b), {}).items():
                terms[exp] = GaussianRational(Fraction(*re_c), Fraction(*im_c))
            row.append(TruncatedPoly(order, terms))
        rows.append(tuple(row))
    return tuple(rows)


# The grid of the cross-branch tests: the 24 unit configs and four seeded
# random ones.  Each (config, branch, accuracy) family on it is built once per
# module; the records are frozen, so the tests share them.
GRID = {name: unit_config(name) for name in UNIT_CONFIG_NAMES}
GRID.update({f"seed{s}": random_config(random.Random(s)) for s in (1, 2, 3, 4)})


@functools.cache
def _grid_metric_jet(name):
    return build_metric_jet(GRID[name])


@functools.cache
def _grid_family(name, aleph, accuracy):
    return run_algorithm(_grid_metric_jet(name), aleph, accuracy)


def _conjugate(m, level, sign=1):
    """sign * (-1)^level * conj(m): the conjugation of a level-``level``
    matrix, computed here independently of the library's helper."""
    conj = mat_conj(m)
    return conj if sign * (-1) ** level == 1 else mat_neg(conj)


X1 = (1, 0, 0, 0, 0, 0)
X2 = (0, 1, 0, 0, 0, 0)
X3 = (0, 0, 1, 0, 0, 0)
X1X1 = (2, 0, 0, 0, 0, 0)
X1X2 = (1, 1, 0, 0, 0, 0)
X1X3 = (1, 0, 1, 0, 0, 0)
X2X3 = (0, 1, 1, 0, 0, 0)


class TestInitialSymbols:
    def test_flat_anchor_values(self):
        mj = build_metric_jet(unit_config("flat"), order=3)
        prin = eigenprojections(mj, 2)
        assert anchor_values(prin["0"]) == anchor_values(
            const_mat([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 2)
        )
        for sign, branch in ((1, "+"), (-1, "-")):
            expect = const_mat(
                [
                    [(Fraction(1, 2), 0), (0, Fraction(-sign, 2)), 0],
                    [(0, Fraction(sign, 2)), (Fraction(1, 2), 0), 0],
                    [0, 0, 0],
                ],
                2,
            )
            assert anchor_values(prin[branch]) == anchor_values(expect)

    def test_resolution_of_identity(self):
        rng = random.Random(100)
        for _ in range(10):
            mj = build_metric_jet(random_config(rng), order=3)
            prin = eigenprojections(mj, 2)
            total = mat_add(mat_add(prin["0"], prin["+"]), prin["-"])
            assert mat_is_zero(mat_sub(total, identity_mat(2)))

    def test_orthogonal_idempotent_family(self):
        rng = random.Random(101)
        for _ in range(5):
            mj = build_metric_jet(random_config(rng), order=3)
            prin = eigenprojections(mj, 2)
            for a in LABELS:
                for b in LABELS:
                    prod = mat_mul(prin[a], prin[b])
                    expect = prin[a] if a == b else None
                    if expect is None:
                        assert mat_is_zero(prod)
                    else:
                        assert mat_is_zero(mat_sub(prod, expect))

    def test_eigen_relations(self):
        rng = random.Random(102)
        mj = build_metric_jet(random_config(rng), order=3)
        prin = eigenprojections(mj, 2)
        curl = curl_symbol(mj, 2).principal()
        norm = norm_power_jet(mj, 1, 2)
        assert mat_is_zero(mat_mul(curl, prin["0"]))
        for sign, branch in ((Fraction(1), "+"), (Fraction(-1), "-")):
            lhs = mat_mul(curl, prin[branch])
            rhs = mat_poly_scale(prin[branch], norm.scale(sign))
            assert mat_is_zero(mat_sub(lhs, rhs))


class TestRunAlgorithm:
    def test_flat_steps_are_zero(self):
        for aleph in LABELS:
            fam = run_algorithm(build_metric_jet(unit_config("flat")), aleph, 3)
            for step in fam.steps:
                assert mat_is_zero(step["X"])
            for k in (1, 2, 3):
                assert mat_is_zero(fam.jet.components[k])

    def test_bad_inputs(self):
        cfg = unit_config("flat")
        with pytest.raises(ValueError):
            run_algorithm(build_metric_jet(cfg), "x", 2)
        with pytest.raises(ValueError):
            run_algorithm(build_metric_jet(cfg), "+", 7)

    def test_wrong_initial_symbol_fails_at_level_zero(self, monkeypatch):
        """Twice the eigenprojection is no projection: (2P)(2P) - 2P = 2P."""
        from curlasym import projections

        real = projections.initial_symbols

        def doubled(*args):
            prin = real(*args)
            return {**prin, "+": mat_add(prin["+"], prin["+"])}

        monkeypatch.setattr(projections, "initial_symbols", doubled)
        mj = build_metric_jet(unit_config("c11"))
        with pytest.raises(AssertionError, match="level 0 before step 1"):
            run_algorithm(mj, "+", 3)

    def test_wrong_first_correction_fails_at_level_one(self, monkeypatch):
        """A first correction built from +R instead of -R leaves the level-1
        defect of P P - P at twice its value, which step 2 must catch."""
        from curlasym import projections

        calls = []

        def first_unnegated(m):
            calls.append(m)
            return m if len(calls) == 1 else mat_neg(m)

        monkeypatch.setattr(projections, "mat_neg", first_unnegated)
        mj = build_metric_jet(unit_config("c11"))
        with pytest.raises(AssertionError, match="level 1 before step 2"):
            run_algorithm(mj, "+", 3)
        assert not mat_is_zero(calls[0])

    def test_c1_step2_intermediates(self):
        """Frozen second-step audit matrices for the pure-Ricci unit config."""
        for sign, aleph in ((1, "+"), (-1, "-")):
            fam = run_algorithm(build_metric_jet(unit_config("c1")), aleph, 2)
            step = fam.steps[1]
            s12 = Fraction(1, 12)
            assert anchor_values(step["R"]) == anchor_values(
                const_mat(
                    [
                        [(-s12, 0), (0, sign * 2 * s12), 0],
                        [(0, -sign * 2 * s12), (-s12, 0), 0],
                        [0, 0, 0],
                    ],
                    0,
                )
            )
            assert anchor_values(step["S"]) == anchor_values(
                const_mat(
                    [
                        [(-2 * s12, 0), (0, sign * s12), 0],
                        [(0, -sign * s12), (-2 * s12, 0), 0],
                        [0, 0, 0],
                    ],
                    0,
                )
            )
            assert anchor_values(step["T"]) == anchor_values(
                const_mat(
                    [[(sign * s12, 0), 0, 0], [0, (-sign * s12, 0), 0], [0, 0, 0]],
                    0,
                )
            )
            s24 = Fraction(1, 24)
            assert anchor_values(step["X"]) == anchor_values(
                const_mat(
                    [
                        [(-4 * s24, 0), (0, sign * 3 * s24), 0],
                        [(0, -sign * s24), (-4 * s24, 0), 0],
                        [0, 0, 0],
                    ],
                    0,
                )
            )

    def test_c11_step3_intermediates(self):
        """Frozen third-step audit matrices for the Ricci-derivative config."""
        for sign, aleph in ((1, "+"), (-1, "-")):
            fam = run_algorithm(build_metric_jet(unit_config("c11")), aleph, 3)
            step = fam.steps[2]
            e8 = Fraction(1, 8)
            assert anchor_values(step["R"]) == anchor_values(
                const_mat(
                    [[0, (0, e8), 0], [(0, -e8), 0, 0], [0, 0, 0]], 0
                )
            )
            assert anchor_values(step["S"]) == anchor_values(
                const_mat(
                    [[(-sign * e8, 0), 0, 0], [0, (-sign * e8, 0), 0], [0, 0, 0]],
                    0,
                )
            )
            e4 = Fraction(1, 4)
            assert anchor_values(step["T"]) == anchor_values(
                const_mat(
                    [[0, (0, -sign * e4), 0], [(0, -sign * e4), 0, 0], [0, 0, 0]],
                    0,
                )
            )
            assert anchor_values(step["X"]) == anchor_values(
                const_mat(
                    [[(-sign * e4, 0), 0, 0], [0, 0, 0], [0, 0, 0]], 0
                )
            )

    def test_c1_level1_polynomial_matrix(self):
        """Degree -1 component after step one, at the anchor covector."""
        for sign, aleph in ((1, "+"), (-1, "-")):
            fam = run_algorithm(build_metric_jet(unit_config("c1")), aleph, 2)
            got = mat_restrict(fam.jet.components[1], (3, 4, 5))
            s12 = ((-1, 12), (0, 1))
            expect = _gmat(
                {
                    (0, 0): {X3: ((0, 1), (-1, 12))},
                    (0, 1): {X3: ((-sign, 12), (0, 1))},
                    (1, 0): {X3: ((-sign, 12), (0, 1))},
                    (1, 1): {X3: ((0, 1), (1, 12))},
                    (2, 0): {X2: ((-sign, 12), (0, 1)), X1: ((0, 1), (-1, 4))},
                    (2, 1): {X2: ((0, 1), (-1, 12)), X1: ((-sign, 12), (0, 1))},
                },
                1,
            )
            assert got == expect

    def test_c11_level_polynomial_matrices(self):
        """Degree -1 and -2 components after step two, at the anchor covector."""
        for sign, aleph in ((1, "+"), (-1, "-")):
            fam = run_algorithm(build_metric_jet(unit_config("c11")), aleph, 3)
            lvl1 = mat_restrict(fam.jet.components[1], (3, 4, 5))
            expect1 = _gmat(
                {
                    (0, 0): {X1X2: ((0, 1), (-1, 6)), X1X1: ((-5 * sign, 24), (0, 1))},
                    (0, 1): {X1X2: ((-sign, 8), (0, 1)), X1X1: ((0, 1), (1, 4))},
                    (1, 0): {X1X2: ((sign, 24), (0, 1)), X1X1: ((0, 1), (-1, 12))},
                    (1, 1): {X1X1: ((-sign, 8), (0, 1))},
                    (2, 0): {X2X3: ((0, 1), (1, 12))},
                    (2, 1): {X1X3: ((0, 1), (-1, 4))},
                },
                2,
            )
            assert lvl1 == expect1
            lvl2 = mat_restrict(fam.jet.components[2], (3, 4, 5))
            expect2 = _gmat(
                {
                    (0, 0): {X3: ((0, 1), (-sign, 24))},
                    (0, 1): {X3: ((-1, 4), (0, 1))},
                    (1, 0): {X3: ((1, 12), (0, 1))},
                    (1, 1): {X3: ((0, 1), (-sign, 8))},
                    (2, 0): {X2: ((1, 12), (0, 1)), X1: ((0, 1), (-3 * sign, 8))},
                    (2, 1): {X2: ((0, 1), (-sign, 8)), X1: ((-1, 4), (0, 1))},
                },
                1,
            )
            assert lvl2 == expect2

    def test_c1_recorded_defect_matches_recomputation(self):
        """The recorded R at step two equals the negated idempotency defect of
        the step-one jet, recomputed from scratch."""
        fam = run_algorithm(build_metric_jet(unit_config("c1")), "+", 2)
        p1 = SymbolJet(
            0, 2, (3, 3), [fam.jet.components[0], fam.jet.components[1]]
        )
        defect = compose(p1, p1) - p1
        s12 = Fraction(1, 12)
        expect = const_mat(
            [
                [(s12, 0), (0, -2 * s12), 0],
                [(0, 2 * s12), (s12, 0), 0],
                [0, 0, 0],
            ],
            0,
        )
        assert anchor_values(defect.components[2]) == anchor_values(expect)
        assert anchor_values(fam.steps[1]["R"]) == anchor_values(
            tuple(tuple(p.scale(-1) for p in row) for row in defect.components[2])
        )


class TestBranchConjugation:
    """The "-" family is the conjugate of the "+" family, and the three
    branches resolve the identity, on every config of GRID at accuracies 1-3.

    With J the conjugation (JQ)_k = (-1)^k conj(Q_k) of graded jets, the
    "-" construction is J applied to the "+" construction, step by step;
    only the commutation defect T, a commutator with curl, picks up one
    more sign because J(curl) = -curl.
    """

    @pytest.mark.parametrize("name", tuple(GRID))
    def test_minus_family_is_conjugate_of_plus(self, name):
        for accuracy in (1, 2, 3):
            plus = _grid_family(name, "+", accuracy)
            minus = _grid_family(name, "-", accuracy)
            for k, (p, m) in enumerate(zip(plus.jet.components, minus.jet.components)):
                assert _conjugate(p, k) == m, (accuracy, k)
            assert len(plus.steps) == len(minus.steps) == accuracy
            for k, (p, m) in enumerate(zip(plus.steps, minus.steps), start=1):
                for key in "RSX":
                    assert _conjugate(p[key], k) == m[key], (accuracy, k, key)
                assert _conjugate(p["T"], k, sign=-1) == m["T"], (accuracy, k)

    @pytest.mark.parametrize("name", tuple(GRID))
    def test_branches_resolve_the_identity(self, name):
        for accuracy in (1, 2, 3):
            fams = [_grid_family(name, aleph, accuracy) for aleph in LABELS]
            levels = zip(*(f.jet.components for f in fams))
            for k, (p_plus, p0, p_minus) in enumerate(levels):
                total = mat_add(mat_add(p0, p_plus), p_minus)
                if k == 0:
                    total = mat_sub(total, identity_mat(accuracy))
                assert mat_is_zero(total), (accuracy, k)


class TestVerifyProjection:
    def test_all_unit_configs_pass(self):
        for name in UNIT_CONFIG_NAMES:
            for aleph in LABELS:
                report = verify_projection(_grid_family(name, aleph, 3))
                assert report["pass"], (name, aleph, report["first_failure"])

    def test_corrupted_component_fails_at_degree_minus_one(self):
        fam = run_algorithm(build_metric_jet(unit_config("c1")), "+", 2)
        bad_lvl1 = [list(row) for row in fam.jet.components[1]]
        one = TruncatedPoly.constant(1, bad_lvl1[0][0].order)
        bad_lvl1[0][0] = bad_lvl1[0][0] + one
        bad_jet = SymbolJet(
            0,
            2,
            (3, 3),
            [
                fam.jet.components[0],
                tuple(tuple(row) for row in bad_lvl1),
                fam.jet.components[2],
            ],
        )
        bad_fam = dataclasses.replace(fam, jet=bad_jet)
        report = verify_projection(bad_fam)
        assert not report["pass"]
        assert report["first_failure"]["kind"] == "idempotency"
        assert report["first_failure"]["degree"] == -1

    def test_commutation_checked_when_idempotency_fails(self):
        """Doubling level 1 breaks both checks; idempotency is reported
        first, and the commutation failure is not hidden behind it."""
        fam = run_algorithm(build_metric_jet(unit_config("c11")), "+", 3)
        comps = list(fam.jet.components)
        comps[1] = mat_add(comps[1], comps[1])
        bad_jet = dataclasses.replace(fam.jet, components=comps)
        report = verify_projection(dataclasses.replace(fam, jet=bad_jet))
        assert report["idempotency_pass"] is False
        assert report["commutation_pass"] is False
        assert report["pass"] is False
        assert report["first_failure"]["kind"] == "idempotency"
        assert report["first_failure"]["degree"] == -1

    @pytest.mark.parametrize("accuracy", [1, 2, 3])
    def test_curl_perturbed_at_last_checked_level_fails(self, accuracy):
        """A constant that does not commute with P_0, added to the curl
        symbol at level n - 1 only, leaves the family idempotent; commutation
        must fail at that level, degree 2 - n, the last one it checks."""
        n = accuracy
        fam = _grid_family("c11", "+", n)
        e = _gmat({(0, 2): {(0,) * 6: ((1, 1), (0, 1))}}, 1)
        assert not mat_is_zero(mat_commutator(fam.jet.principal(), e))
        comps = list(fam.curl_jet.components)
        comps[n - 1] = mat_add(comps[n - 1], e)
        curl = dataclasses.replace(fam.curl_jet, components=comps)
        report = verify_projection(dataclasses.replace(fam, curl_jet=curl))
        assert report["idempotency_pass"] is True
        assert report["commutation_pass"] is False
        assert report["first_failure"]["kind"] == "commutation"
        assert report["first_failure"]["degree"] == 2 - n

    def test_family_report_is_json_serializable(self):
        fam = run_algorithm(build_metric_jet(unit_config("c1")), "+", 2)
        text = json.dumps(
            {"family": fam.to_dict(), "verification": verify_projection(fam)}
        )
        assert json.loads(text)["verification"]["pass"] is True


class TestSubprincipalCheck:
    def test_vanishes_for_unit_and_random_configs(self):
        rng = random.Random(110)
        configs = [unit_config(n) for n in ("c1", "c5", "c11", "c20")]
        configs.append(unit_config("flat"))
        configs.extend(random_config(rng) for _ in range(3))
        for cfg in configs:
            mj = build_metric_jet(cfg, order=3)
            for aleph in LABELS:
                fam = run_algorithm(mj, aleph, 3)
                assert mat_is_zero(subprincipal_check(fam))

    def test_corrupted_christoffel_detected(self):
        """Negative control: a constant error in one Christoffel entry shows
        up in the subprincipal at the anchor."""
        cfg = unit_config("c1")
        mj = build_metric_jet(cfg, order=3)
        fam = run_algorithm(mj, "+", 3)
        gamma = [
            [[mj.gamma[a][b][c] for c in range(3)] for b in range(3)]
            for a in range(3)
        ]
        one = TruncatedPoly.constant(1, gamma[0][0][0].order)
        gamma[0][0][0] = gamma[0][0][0] + one
        bad_mj = dataclasses.replace(
            mj, gamma=tuple(tuple(tuple(r) for r in sl) for sl in gamma)
        )
        bad_fam = dataclasses.replace(fam, mj=bad_mj)
        assert not mat_is_zero(subprincipal_check(bad_fam))

    @pytest.mark.parametrize("var", [X1, X2, X3], ids=["x1", "x2", "x3"])
    def test_base_variable_terms_are_restricted(self, var):
        """A term linear in one base variable, added to level 1, reaches the
        subprincipal symbol but vanishes at x = 0, so the check still
        passes."""
        fam = _grid_family("c11", "+", 3)
        comps = list(fam.jet.components)
        comps[1] = mat_add(comps[1], _gmat({(0, 1): {var: ((1, 1), (0, 1))}}, 2))
        jet = dataclasses.replace(fam.jet, components=comps)
        added = mat_sub(subprincipal(jet, fam.mj), subprincipal(fam.jet, fam.mj))
        assert not mat_is_zero(added)
        assert mat_is_zero(subprincipal_check(dataclasses.replace(fam, jet=jet)))


class TestAsymmetryReport:
    @pytest.fixture(scope="class")
    def c7(self):
        """A report whose every trace, correction and value is zero."""
        rep = asymmetry_report(unit_config("c7"))
        assert rep.passed
        assert all(z.is_zero() for z in rep.diag_traces + rep.pt_corrections)
        return rep

    @pytest.mark.parametrize("degree", [0, -1, -2])
    def test_nonzero_diag_trace_fails(self, c7, degree):
        traces = list(c7.diag_traces)
        traces[-degree] = GaussianRational(Fraction(1, 7))
        assert not dataclasses.replace(c7, diag_traces=tuple(traces)).passed

    @pytest.mark.parametrize("index", [0, 1])
    def test_nonzero_transport_correction_fails(self, c7, index):
        corrections = list(c7.pt_corrections)
        corrections[index] = GaussianRational(Fraction(1, 7))
        assert not dataclasses.replace(c7, pt_corrections=tuple(corrections)).passed

    def test_transport_corrections_at_levels_two_and_three(self, monkeypatch):
        """The report takes the corrections at levels 2 and 3: a stand-in
        that is non-zero at level 3 alone must make it fail."""
        levels = []

        def stand_in(q0, mj, level, qm1):
            levels.append(level)
            return GaussianRational(level - 2)

        monkeypatch.setattr(projections, "transport_correction", stand_in)
        rep = asymmetry_report(unit_config("c7"))
        assert levels == [2, 3]
        assert rep.pt_corrections == (GaussianRational(0), GaussianRational(1))
        assert not rep.passed

    def test_c11(self):
        rep = asymmetry_report(unit_config("c11"))
        assert rep.passed
        assert all(z.is_zero() for z in rep.diag_traces[:3])
        assert rep.a_prin_value == GaussianRational(Fraction(-1, 2))
        assert rep.closed_form_value == Fraction(-1, 2)

    def test_c1_degree_minus_two_trace_vanishes(self):
        rep = asymmetry_report(unit_config("c1"))
        assert rep.passed
        assert rep.diag_traces[2].is_zero()
        assert rep.a_prin_value.is_zero()

    def test_c7(self):
        rep = asymmetry_report(unit_config("c7"))
        assert rep.passed
        assert rep.a_prin_value.is_zero()

    def test_degree_minus_one_difference_vanishes_at_anchor_base_point(self):
        for cfg in (unit_config("c1"), unit_config("c11")):
            mj = build_metric_jet(cfg)
            diff = run_algorithm(mj, "+", 3).jet - run_algorithm(mj, "-", 3).jet
            assert mat_is_zero(mat_restrict(diff.components[1], (0, 1, 2)))

    def test_unit_sweep(self):
        for name in UNIT_CONFIG_NAMES:
            rep = asymmetry_report(unit_config(name))
            assert rep.passed, name

    def test_random_sweep_20(self):
        rng = random.Random(111)
        for _ in range(20):
            rep = asymmetry_report(random_config(rng))
            assert rep.passed

    def test_linearity_of_a_prin(self):
        """The principal asymmetry value is additive in the curvature data."""
        c11 = unit_config("c11")
        c15 = unit_config("c15")
        combo = CurvatureConfig(
            [
                [c11.ric0[a][b] + c15.ric0[a][b] for b in range(3)]
                for a in range(3)
            ],
            [
                [
                    [c11.dric0[s][a][b] + c15.dric0[s][a][b] for b in range(3)]
                    for a in range(3)
                ]
                for s in range(3)
            ],
        )
        rep = asymmetry_report(combo)
        assert rep.passed
        expected = (
            asymmetry_report(c11).a_prin_value
            + asymmetry_report(c15).a_prin_value
        )
        assert rep.a_prin_value == expected

    def test_report_json_schema(self):
        rep = asymmetry_report(unit_config("c11"))
        data = rep.to_dict()
        assert set(data) == {
            "config",
            "diag_traces",
            "pt_corrections",
            "a_prin",
            "closed_form",
            "pass",
        }
        assert data["a_prin"] == "-1/2"
        assert data["pass"] is True


class TestClosedForm:
    XI0 = (0, 0, 1)

    def test_examples(self):
        assert aprin_closed_form(unit_config("c11"), self.XI0) == Fraction(-1, 2)
        assert aprin_closed_form(unit_config("flat"), self.XI0) == 0
        assert aprin_closed_form(unit_config("c7"), self.XI0) == 0

    def test_errors(self):
        cfg = unit_config("c11")
        with pytest.raises(ValueError):
            aprin_closed_form(cfg, (0, 0, 0))
        with pytest.raises(ValueError):
            aprin_closed_form(cfg, (1, 1, 0))

    def test_matches_direct_epsilon_sum(self):
        """Against the contraction written out term by term:
        -(1/(2|xi|^5)) eps_{abg} (grad_a Ric)_{br} xi_g xi_r, at covectors of
        rational norm, on every unit config and on random draws."""

        def direct(cfg, xi, norm):
            total = sum(
                epsilon(a, b, g) * cfg.dric0[a][b][r] * xi[g] * xi[r]
                for a, b, g, r in itertools.product(range(3), repeat=4)
            )
            return Fraction(-total, 2 * norm**5)

        rng = random.Random(114)
        configs = [unit_config(name) for name in UNIT_CONFIG_NAMES]
        configs += [random_config(rng) for _ in range(10)]
        covectors = {(0, 0, 1): 1, (3, 4, 0): 5, (1, 2, 2): 3, (2, 3, 6): 7}
        for cfg in configs:
            for xi, norm in covectors.items():
                assert aprin_closed_form(cfg, xi) == direct(cfg, xi, norm)

    def test_homogeneity(self):
        rng = random.Random(112)
        cfg = random_config(rng)
        base = aprin_closed_form(cfg, self.XI0)
        assert aprin_closed_form(cfg, (0, 0, 2)) == base * Fraction(1, 8)

    def test_scalar_trace_insensitivity(self):
        """Adding a pure-trace derivative term never changes the value."""
        rng = random.Random(113)
        cfg = random_config(rng)
        base = aprin_closed_form(cfg, self.XI0)
        shifts = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)]
        dric = [
            [
                [
                    cfg.dric0[s][a][b] + (shifts[s] if a == b else 0)
                    for b in range(3)
                ]
                for a in range(3)
            ]
            for s in range(3)
        ]
        shifted = CurvatureConfig(cfg.ric0, dric)
        assert aprin_closed_form(shifted, self.XI0) == base
