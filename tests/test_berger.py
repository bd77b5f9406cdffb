"""Berger-sphere spectral numerics: spectra, counting, eta sums, closed forms."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from curlasym import berger
from curlasym.berger import (
    ZETA3,
    ZETA5,
    BergerParams,
    completeness_bound,
    counting_function,
    curl_spectrum,
    eta_closed_forms,
    eta_decomposition_rhs,
    eta_partial,
    hitchin_remainder,
    laplacian_spectrum,
    theta_partial,
    weyl_check,
    zeta,
)


class TestBergerParams:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            BergerParams(0)
        with pytest.raises(ValueError):
            BergerParams(Fraction(-1, 2))

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 1e200, 1e-200])
    def test_finite_required(self, a):
        with pytest.raises(ValueError, match="parameter a"):
            BergerParams(a)

    def test_exact_requires_rational(self):
        assert BergerParams(Fraction(3, 2)).a_exact == Fraction(3, 2)
        with pytest.raises(TypeError):
            BergerParams(1.5).a_exact


class TestLaplacianSpectrum:
    def test_round_sphere_values_and_multiplicities(self):
        t = laplacian_spectrum(BergerParams(1), 30)
        per_n = {}
        for e in t.entries:
            assert e.value == e.n * (e.n + 2)
            per_n[e.n] = per_n.get(e.n, 0) + e.multiplicity
        for n in range(31):
            assert per_n[n] == (n + 1) ** 2

    def test_spot_values(self):
        t = laplacian_spectrum(BergerParams(Fraction(7, 3)), 4)
        entry = next(e for e in t.entries if e.n == 2 and e.l == 1)
        assert entry.value == 8
        assert entry.multiplicity == 3
        t2 = laplacian_spectrum(BergerParams(2), 2)
        entry = next(e for e in t2.entries if e.n == 1 and e.l == 0)
        assert entry.value == pytest.approx(9 / 4)
        assert entry.multiplicity == 4

    def test_negative_nmax_rejected(self):
        with pytest.raises(ValueError):
            laplacian_spectrum(BergerParams(1), -1)


class TestCurlSpectrum:
    def test_round_sphere_exact(self):
        """At a = 1 the aggregated spectrum is +-n with multiplicity n^2 - 1,
        as an exact integer comparison for n <= 50."""
        t = curl_spectrum(BergerParams(1), 52)
        agg = {}
        for e in t.entries:
            v = round(e.value)
            assert e.value == v
            agg[v] = agg.get(v, 0) + e.multiplicity
        for n in range(2, 51):
            assert agg[n] == n * n - 1
            assert agg[-n] == n * n - 1

    def test_series_signs_and_no_zero(self):
        for a in (Fraction(1, 2), 1, Fraction(3, 2), 3):
            t = curl_spectrum(BergerParams(a), 20)
            for e in t.entries:
                assert e.value != 0
                if e.series == "IV":
                    assert e.value < 0
                else:
                    assert e.value > 0

    def test_series_ii_spot_value(self):
        t = curl_spectrum(BergerParams(2), 3)
        entry = next(e for e in t.entries if e.series == "II" and e.n == 2)
        assert entry.value == pytest.approx(4.0)
        assert entry.multiplicity == 1

    def test_csv_format(self):
        t = curl_spectrum(BergerParams(1), 3)
        lines = t.to_csv().splitlines()
        assert lines[0] == "series,n,l,value,multiplicity"
        assert len(lines) == len(t.entries) + 1

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            curl_spectrum(BergerParams(1), 1)


    def test_entries_length_matches_rows(self):
        p = BergerParams(Fraction(3, 2))
        for n in range(2, 30):
            for t in (curl_spectrum(p, n), laplacian_spectrum(p, n)):
                assert len(t.entries) == sum(1 for _ in t.entries)


class TestCounting:
    def test_round_sphere_reference_count(self):
        t = curl_spectrum(BergerParams(1), 110)
        assert counting_function(t, 100, 1) == 328251
        assert counting_function(t, 100, -1) == 328251

    def test_nonpositive_lambda(self):
        t = curl_spectrum(BergerParams(1), 10)
        assert counting_function(t, 0, 1) == 0
        assert counting_function(t, -5, -1) == 0

    def test_completeness_bound_enforced(self):
        t = curl_spectrum(BergerParams(1), 10)
        bound = completeness_bound(t)
        assert bound == 11
        with pytest.raises(ValueError):
            counting_function(t, bound + 1, 1)

    def test_bound_requires_curl_table(self):
        with pytest.raises(ValueError):
            completeness_bound(laplacian_spectrum(BergerParams(1), 5))


class TestWeyl:
    def test_round_sphere_margin_and_monotone(self):
        p = BergerParams(1)
        devs = []
        for lam in (50.0, 100.0, 200.0, 400.0):
            r = weyl_check(p, lam)
            assert r["deviation_plus"] <= 3 / lam
            assert r["deviation_minus"] <= 3 / lam
            assert r["ratio_plus"] == r["ratio_minus"]
            devs.append(r["deviation_plus"])
        assert devs == sorted(devs, reverse=True)

    def test_squashed_sphere(self):
        r = weyl_check(BergerParams(Fraction(3, 2)), 100.0)
        assert r["deviation_plus"] <= 3 / 100
        assert r["deviation_minus"] <= 3 / 100


    @pytest.mark.parametrize("lam", [0.0, -5.0, math.nan, math.inf, 1e-300])
    def test_lambda_domain(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            weyl_check(BergerParams(1), lam)


class TestZeta:
    def test_reference_constants(self):
        assert abs(zeta(3.0) - ZETA3) < 1e-12
        assert abs(zeta(5.0) - ZETA5) < 1e-12
        assert abs(zeta(2.0) - math.pi**2 / 6) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta(1.0)


class TestEta:
    def test_symmetric_spectrum_gives_zero(self):
        # The truncation keeps a few series-III values just above n_max, so
        # the cancellation is limited by that O(n_max^-4) tail imbalance.
        t = curl_spectrum(BergerParams(1), 200)
        assert abs(eta_partial(t, 6.0)) < 1e-8

    def test_domain(self):
        t = curl_spectrum(BergerParams(2), 10)
        with pytest.raises(ValueError):
            eta_partial(t, 3.0)
        with pytest.raises(ValueError):
            eta_decomposition_rhs(BergerParams(2), 2.0, 10)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_nonfinite_s_rejected(self, s):
        with pytest.raises(ValueError):
            eta_partial(curl_spectrum(BergerParams(2), 10), s)
        with pytest.raises(ValueError):
            eta_decomposition_rhs(BergerParams(2), s, 10)

    def test_decomposition_identity_medium_truncation(self):
        for a in (Fraction(1, 2), 1, 2):
            p = BergerParams(a)
            lhs = eta_partial(curl_spectrum(p, 600), 6.0)
            rhs = eta_decomposition_rhs(p, 6.0, 600)
            assert abs(lhs - rhs) <= 1e-6

    def test_truncation_tail_shrinks(self):
        p = BergerParams(2)
        e1 = eta_partial(curl_spectrum(p, 300), 6.0)
        e2 = eta_partial(curl_spectrum(p, 600), 6.0)
        e3 = eta_partial(curl_spectrum(p, 1200), 6.0)
        assert abs(e3 - e2) < abs(e2 - e1)

    def test_theta_brackets_negative(self):
        assert theta_partial(BergerParams(2), 6.0, 50) < 0

    def test_hitchin_remainder_bounded(self):
        p = BergerParams(2)
        r200 = hitchin_remainder(p, 6.0, 200)
        r400 = hitchin_remainder(p, 6.0, 400)
        assert r400 <= r200 + 1e-9


class TestClosedForms:
    def test_round_sphere(self):
        forms = eta_closed_forms(BergerParams(1))
        assert forms["eta0"] == 0
        assert forms["theta0"] == Fraction(-2, 3)
        assert forms["dirac_eta0"] == 0

    def test_a_equals_two(self):
        forms = eta_closed_forms(BergerParams(2))
        assert forms["eta0"] == 6
        assert forms["theta0"] == Fraction(16, 3)
        assert forms["dirac_eta0"] == Fraction(-3, 2)

    def test_fifty_random_rational_parameters(self):
        rng = random.Random(130)
        for _ in range(50):
            a = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            forms = eta_closed_forms(BergerParams(a))
            assert forms["eta0"] == Fraction(2, 3) * (a**2 - 1) ** 2
            assert forms["theta0"] == Fraction(2, 3) * a**2 * (a**2 - 2)
            assert forms["eta0"] + 4 * forms["dirac_eta0"] == 0

    def test_float_parameter_rejected(self):
        with pytest.raises(TypeError):
            eta_closed_forms(BergerParams(1.7))


class TestStreaming:
    """The spectra are produced per quantum number and never stored."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: eta_partial(curl_spectrum(BergerParams(2), 1000), 6.0),
            lambda: weyl_check(BergerParams(1), 100.0),
        ],
        ids=["eta_nmax_1000", "weyl_lambda_100"],
    )
    def test_peak_memory_bounded(self, call):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_eta_partial_is_correctly_rounded(self):
        """fsum equals the exact sum of the same float terms, rounded once."""
        mpmath = pytest.importorskip("mpmath")
        for a in (Fraction(1, 2), 1, Fraction(3, 2), 2):
            t = curl_spectrum(BergerParams(a), 40)
            terms = [x for chunk in berger._eta_terms(t, 6.0) for x in chunk]
            with mpmath.workdps(50):
                exact = float(mpmath.fsum(terms))
            assert eta_partial(t, 6.0) == exact
            scalar = [
                math.copysign(e.multiplicity, e.value) * abs(e.value) ** -6.0
                for e in t.entries
            ]
            assert terms == pytest.approx(scalar, rel=5e-16, abs=0)
