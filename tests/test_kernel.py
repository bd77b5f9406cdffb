"""Bessel-kernel numerics and the trace-free singular coefficient."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from curlasym.configs import (
    EPSILON,
    UNIT_CONFIG_NAMES,
    random_bianchi_config,
    random_config,
    unit_config,
)
from curlasym.kernel import (
    BASSET_Y_MAX,
    LOG_COEFF_TARGET,
    basset_check,
    bessel_k1,
    k1_small_argument,
    log_coefficient_check,
    second_moment,
    singular_coefficient,
    sphere_average_check,
    sphere_quadrature,
)
from curlasym.projections import aprin_closed_form

mpmath = pytest.importorskip("mpmath")


def trace(c) -> Fraction:
    return sum(c[i][i] for i in range(3))


def filtered_epsilon_sum(cfg) -> tuple:
    """c_{g r} as the sum over all six epsilon triples, kept when c = g."""

    def entry(g, r):
        total = sum(
            sign * cfg.dric0[a][b][r] for (a, b, c), sign in EPSILON.items() if c == g
        )
        return total * Fraction(1, 12)

    return tuple(tuple(entry(g, r) for r in range(3)) for g in range(3))


class TestBesselK1:
    def test_against_reference_library(self):
        for t in (1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 2.1, 3.0, 5.0, 10.0, 20.0, 50.0):
            ref = float(mpmath.besselk(1, t))
            assert abs(bessel_k1(t) - ref) <= 1e-12 * ref

    def test_branch_crossover_continuity(self):
        from curlasym.kernel import _exp_sinh, _k1_series

        t = 2.0
        integral = (
            math.exp(-t)
            / t
            * _exp_sinh(lambda x: math.exp(-x) * math.sqrt(x * (x + 2 * t)))
        )
        assert abs(integral - _k1_series(t)) <= 1e-11

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_k1(0.0)
        with pytest.raises(ValueError):
            bessel_k1(-1.0)

    @pytest.mark.parametrize("t", [5e-324, 1e-320, 5e-309])
    def test_overflow_below_least_finite_value(self, t):
        # At 5e-324 the series' log(t / 2) would be the log of 0.
        with pytest.raises(ValueError, match=rf"^K_1\({t}\) overflows a float$"):
            bessel_k1(t)

    def test_leading_singularity(self):
        for t in (1e-4, 1e-3, 1e-2):
            assert t * bessel_k1(t) == pytest.approx(1.0, abs=5e-3)

    def test_small_argument_expansion(self):
        t = 0.01
        envelope = abs(t**3 * math.log(t))
        assert abs(bessel_k1(t) - k1_small_argument(t)) <= envelope

    def test_log_structure_bounded(self):
        """t K1(t) - 1 - (t^2/2) ln t stays bounded with bounded first
        differences on (0, 0.1]."""
        ts = [0.1 * (k + 1) / 100 for k in range(100)]
        vals = [
            t * bessel_k1(t) - 1 - (t * t / 2) * math.log(t) for t in ts
        ]
        assert max(abs(v) for v in vals) < 0.01
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert max(diffs) < 0.001


class TestBasset:
    def test_zero_frequency(self):
        q, ref, residual = basset_check(0.0)
        assert ref == 2.0
        assert residual <= 1e-8

    def test_zero_frequency_to_rounding(self):
        """The exp-sinh rule integrates (1 + t^2)^{-3/2} to 2 within two ulp;
        cut to s in [-3.75, 3.75] it misses by 1.8e-15."""
        q, _, _ = basset_check(0.0)
        assert abs(q - 2) <= 2 * math.ulp(2.0)

    def test_grid_residuals(self):
        for k in range(10):
            y = 0.1 * (5.0 / 0.1) ** (k / 9)
            _, _, residual = basset_check(y)
            assert residual <= 1e-8, y

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            basset_check(-1.0)

    def test_reference_near_zero(self):
        """The reference is 2 exactly for y <= 1e-9, where 2 y K_1(y) rounds
        to 2, and 2 y K_1(y) within one ulp of mpmath's above."""
        for y in (5e-324, 1e-320, 1e-300, 1e-12, 1e-9):
            assert basset_check(y)[1] == 2.0, y
        for y in (2e-9, 1e-8, 1e-7, 1e-6, 1e-4, 1e-2):
            ref = float(2 * y * mpmath.besselk(1, y))
            assert abs(basset_check(y)[1] - ref) <= math.ulp(ref), y

    def test_domain_ends_at_named_bound(self):
        _, _, residual = basset_check(BASSET_Y_MAX)
        assert residual <= 1e-8
        with pytest.raises(ValueError, match="not a finite float"):
            basset_check(math.nextafter(BASSET_Y_MAX, math.inf))


class TestLogCoefficient:
    def test_within_one_percent(self):
        est = log_coefficient_check(1e-3)
        assert abs(est - LOG_COEFF_TARGET) <= 0.01 * LOG_COEFF_TARGET

    def test_halving_t_improves_fit(self):
        errs = [
            abs(log_coefficient_check(t) - LOG_COEFF_TARGET)
            for t in (4e-3, 2e-3, 1e-3)
        ]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]


class TestSingularCoefficient:
    def test_flat_is_zero(self):
        c = singular_coefficient(unit_config("flat"))
        assert all(v == 0 for row in c for v in row)

    def test_c11_matrix(self):
        c = singular_coefficient(unit_config("c11"))
        expect = (
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(-1, 12), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1, 12)),
        )
        assert c == expect
        assert trace(c) == 0

    def test_all_unit_configs_trace_free(self):
        for name in UNIT_CONFIG_NAMES:
            assert trace(singular_coefficient(unit_config(name))) == 0

    def test_random_configs_trace_free(self):
        rng = random.Random(140)
        for _ in range(20):
            assert trace(singular_coefficient(random_config(rng))) == 0

    def test_equals_filtered_epsilon_sum(self):
        """The two epsilon triples with c = g give every entry."""
        rng = random.Random(142)
        configs = [unit_config(name) for name in ("flat", *UNIT_CONFIG_NAMES)]
        configs += [random_config(rng) for _ in range(20)]
        configs += [random_bianchi_config(rng) for _ in range(20)]
        for cfg in configs:
            c = singular_coefficient(cfg)
            assert c == filtered_epsilon_sum(cfg)
            assert all(type(v) is Fraction for row in c for v in row)

    def test_consistent_with_closed_form_contraction(self):
        """Pairing the coefficient matrix with the anchor covector reproduces
        the principal asymmetry closed form up to the known -6 factor."""
        rng = random.Random(141)
        for _ in range(10):
            cfg = random_config(rng)
            paired = singular_coefficient(cfg)[2][2]
            assert paired == -aprin_closed_form(cfg, (0, 0, 1)) * Fraction(1, 6)


class TestSphereQuadrature:
    def test_weights_and_points(self):
        pts = sphere_quadrature(1.0)
        assert len(pts) == 14
        assert sum(w for _, w in pts) == pytest.approx(1.0, rel=1e-15)
        for p, _ in pts:
            assert sum(v * v for v in p) == pytest.approx(1.0, rel=1e-14)

    def test_second_moment(self):
        sm = second_moment(1.0)
        target = 4 * math.pi / 3
        for g in range(3):
            for r in range(3):
                if g == r:
                    assert abs(sm[g][r] - target) <= 1e-10 * target
                else:
                    assert abs(sm[g][r]) <= 1e-12

    def test_second_moment_radius_scaling(self):
        sm = second_moment(2.0)
        target = 4 * math.pi * 2.0**4 / 3
        assert sm[0][0] == pytest.approx(target, rel=1e-13)

    def test_singular_average_vanishes_all_configs(self):
        for name in UNIT_CONFIG_NAMES:
            c = singular_coefficient(unit_config(name))
            assert abs(sphere_average_check(c)) <= 1e-10

    def test_singular_average_random_configs_and_radii(self):
        rng = random.Random(142)
        for _ in range(10):
            c = singular_coefficient(random_config(rng))
            for r in (0.5, 1.0, 3.0):
                assert abs(sphere_average_check(c, r=r)) <= 1e-10

    def test_non_trace_free_average_at_radius_two(self):
        """Positive control: a coefficient of trace 3 averages to exactly
        tr(C) / (3 pi^2) at every radius, off-diagonal entries included; a
        division by r instead of r^2 would double it at r = 2."""
        rows = ((1, 2, 0), (2, -3, 1), (0, 1, 5))
        c = tuple(tuple(map(Fraction, row)) for row in rows)
        assert trace(c) == 3
        expect = 3 / (3 * math.pi**2)
        assert sphere_average_check(c, r=2.0) == pytest.approx(expect, rel=1e-14)

    def test_radius_validation(self):
        c = singular_coefficient(unit_config("c11"))
        with pytest.raises(ValueError):
            sphere_average_check(c, r=0.0)
