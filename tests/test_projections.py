"""Projection construction, verification, and asymmetry-value extraction."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from curlasym.calculus import SymbolJet, compose
from curlasym.configs import UNIT_CONFIG_NAMES, random_config, unit_config
from curlasym.exactpoly import (
    GaussianRational,
    TruncatedPoly,
    poly_mul,
    rat,
)
from curlasym.geometry import (
    CurvatureConfig,
    MetricJet,
    build_metric_jet,
    curl_symbol,
    norm_power_jet,
)
from curlasym.polymat import (
    identity_mat,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_poly_scale,
    mat_restrict,
    mat_sub,
    mat_truncate,
)
from curlasym.projections import (
    LABELS,
    AsymmetryReport,
    ProjectionFamily,
    aprin_closed_form,
    asymmetry_report,
    run_algorithm,
    subprincipal_check,
    verify_projection,
)

from conftest import anchor_values, const_mat, eigenprojections, gr


def _gmat(entries, order):
    """Matrix of polynomials from {(row, col): {exponent: (re, im)}} specs."""
    rows = []
    for a in range(3):
        row = []
        for b in range(3):
            terms = {}
            for exp, (re_c, im_c) in entries.get((a, b), {}).items():
                terms[exp] = GaussianRational(rat(*re_c), rat(*im_c))
            row.append(TruncatedPoly(order, terms))
        rows.append(tuple(row))
    return tuple(rows)


X1 = (1, 0, 0, 0, 0, 0)
X2 = (0, 1, 0, 0, 0, 0)
X3 = (0, 0, 1, 0, 0, 0)
X1X1 = (2, 0, 0, 0, 0, 0)
X1X2 = (1, 1, 0, 0, 0, 0)
X1X3 = (1, 0, 1, 0, 0, 0)
X2X3 = (0, 1, 1, 0, 0, 0)


class TestInitialSymbols:
    def test_flat_anchor_values(self):
        mj = build_metric_jet(CurvatureConfig.flat(), order=3)
        prin = eigenprojections(mj, 2)
        assert anchor_values(prin["0"]) == anchor_values(
            const_mat([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 2)
        )
        for sign, branch in ((1, "+"), (-1, "-")):
            expect = const_mat(
                [
                    [(rat(1, 2), 0), (0, rat(-sign, 2)), 0],
                    [(0, rat(sign, 2)), (rat(1, 2), 0), 0],
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
        for sign, branch in ((rat(1), "+"), (rat(-1), "-")):
            lhs = mat_mul(curl, prin[branch])
            rhs = mat_poly_scale(prin[branch], norm.scale(sign))
            assert mat_is_zero(mat_sub(lhs, rhs))


class TestRunAlgorithm:
    def test_flat_steps_are_zero(self):
        for aleph in LABELS:
            fam = run_algorithm(build_metric_jet(CurvatureConfig.flat()), aleph, 3)
            for step in fam.steps:
                assert mat_is_zero(step["X"])
            for k in (1, 2, 3):
                assert mat_is_zero(fam.jet.components[k])

    def test_bad_inputs(self):
        cfg = CurvatureConfig.flat()
        with pytest.raises(ValueError):
            run_algorithm(build_metric_jet(cfg), "x", 2)
        with pytest.raises(ValueError):
            run_algorithm(build_metric_jet(cfg), "+", 7)

    def test_c1_step2_intermediates(self):
        """Frozen second-step audit matrices for the pure-Ricci unit config."""
        for sign, aleph in ((1, "+"), (-1, "-")):
            fam = run_algorithm(build_metric_jet(unit_config("c1")), aleph, 2)
            step = fam.steps[1]
            s12 = rat(1, 12)
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
            s24 = rat(1, 24)
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
            e8 = rat(1, 8)
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
            e4 = rat(1, 4)
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
        s12 = rat(1, 12)
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


class TestVerifyProjection:
    def test_all_unit_configs_pass(self):
        for name in UNIT_CONFIG_NAMES:
            cfg = unit_config(name)
            for aleph in LABELS:
                fam = run_algorithm(build_metric_jet(cfg), aleph, 3)
                report = verify_projection(fam)
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
        configs.append(CurvatureConfig.flat())
        configs.extend(random_config(rng) for _ in range(3))
        for cfg in configs:
            mj = build_metric_jet(cfg, order=3)
            for aleph in LABELS:
                fam = run_algorithm(mj, aleph, 3)
                assert mat_is_zero(subprincipal_check(fam, mj))

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
        bad_mj = MetricJet(
            mj.config,
            mj.order,
            mj.g,
            mj.g_inv,
            mj.rho,
            mj.rho_inv,
            tuple(tuple(tuple(r) for r in sl) for sl in gamma),
            mj.riem0,
            mj.driem0,
        )
        assert not mat_is_zero(subprincipal_check(fam, bad_mj))


class TestAsymmetryReport:
    def test_c11(self):
        rep = asymmetry_report(unit_config("c11"))
        assert rep.passed
        assert all(z.is_zero() for z in rep.diag_traces[:3])
        assert rep.a_prin_value == GaussianRational(rat(-1, 2))
        assert rep.closed_form_value == rat(-1, 2)

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
        data = json.loads(rep.dumps())
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
        assert aprin_closed_form(unit_config("c11"), self.XI0) == rat(-1, 2)
        assert aprin_closed_form(CurvatureConfig.flat(), self.XI0) == 0
        assert aprin_closed_form(unit_config("c7"), self.XI0) == 0

    def test_errors(self):
        cfg = unit_config("c11")
        with pytest.raises(ValueError):
            aprin_closed_form(cfg, (0, 0, 0))
        with pytest.raises(ValueError):
            aprin_closed_form(cfg, (1, 1, 0))

    def test_homogeneity(self):
        rng = random.Random(112)
        cfg = random_config(rng)
        base = aprin_closed_form(cfg, self.XI0)
        assert aprin_closed_form(cfg, (0, 0, 2)) == base * rat(1, 8)

    def test_scalar_trace_insensitivity(self):
        """Adding a pure-trace derivative term never changes the value."""
        rng = random.Random(113)
        cfg = random_config(rng)
        base = aprin_closed_form(cfg, self.XI0)
        shifts = [rat(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)]
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
