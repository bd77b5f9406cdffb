"""Berger-sphere spectral numerics: spectra, counting, eta sums, closed forms."""

from __future__ import annotations

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curlasym import berger
from curlasym.berger import (
    MAX_NMAX,
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
from curlasym.cli import entry


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

    @pytest.mark.parametrize("spectrum", [curl_spectrum, laplacian_spectrum])
    def test_nmax_cap(self, spectrum):
        with pytest.raises(ValueError, match="n_max"):
            spectrum(BergerParams(1), MAX_NMAX + 1)


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

    def test_spectrum_csv_is_written_in_chunks(self, tmp_path):
        out = tmp_path / "spec.csv"
        tracemalloc.start()
        try:
            code = entry(["berger", "spectrum", "--nmax", "1000", "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.stat().st_size > 10 * 2**20
        assert peak < 4 * 2**20

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


def reference_rows(kind, a, n_max):
    """The table row by row in Python floats, one quantum number at a time."""
    rows = []
    for n in range(2 if kind == "curl" else 0, n_max + 1):
        laplace = [
            (l, n * (n + 2) + (a**-2 - 1) * (n - 2 * l) ** 2,
             n + 1 if 2 * l == n else 2 * n + 2)
            for l in range(n // 2 + 1)
        ]
        if kind == "laplacian":
            rows += [("LAPLACE", n, l, v, m) for l, v, m in laplace]
            continue
        rows.append(("I", n, 0, n / a, 2 * n - 2))
        rows.append(("II", n, 0, (n + 2 * (a**2 - 1)) / a, 1 if n == 2 else 2 * n - 2))
        for l, v, m in laplace[1:]:
            root = math.sqrt(a**2 + v)
            rows += [("III", n, l, a + root, m), ("IV", n, l, a - root, m)]
    return rows


class TestChunks:
    """Rows and sums do not depend on how the quantum numbers are chunked."""

    @pytest.mark.parametrize("chunk_rows", [1, 7, 100])
    def test_rows_and_sums_for_any_chunk_size(self, monkeypatch, chunk_rows):
        params = [BergerParams(a) for a in (Fraction(1, 2), Fraction(3, 2), 0.37)]

        def sums(p):
            return eta_partial(curl_spectrum(p, 60), 6.0), theta_partial(p, 4.5, 60)

        expected = [sums(p) for p in params]
        monkeypatch.setattr(berger, "CHUNK_ROWS", chunk_rows)
        for p, want in zip(params, expected):
            assert sums(p) == want
            for table in (curl_spectrum(p, 60), laplacian_spectrum(p, 60)):
                got = [
                    (e.series, e.n, e.l, e.value, e.multiplicity)
                    for e in table.entries
                ]
                assert got == reference_rows(table.kind, table.a, 60)

    def test_chunks_hold_whole_quantum_numbers(self, monkeypatch):
        monkeypatch.setattr(berger, "CHUNK_ROWS", 30)
        t = curl_spectrum(BergerParams(2), 80)
        runs = [(n0, n1, values.size) for n0, n1, values, _ in t.chunks()]
        assert [r[0] for r in runs[1:]] == [r[1] for r in runs[:-1]]
        assert (runs[0][0], runs[-1][1]) == (2, 81)
        for n0, n1, size in runs:
            assert size == sum(2 + 2 * (n // 2) for n in range(n0, n1))
            assert size <= 30 or n1 == n0 + 1


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
           -1e-300, 1.0, 1e300, -1e300, 1.7976931348623157e308,
           -1.7976931348623157e308]
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-300, 1e300).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from(SPECIAL),
)


@st.composite
def term_chunks(draw):
    """Chunks of finite terms; some cancel exactly, leaving a small rest."""
    terms = draw(st.lists(FINITE, max_size=60))
    if draw(st.booleans()):
        terms += [-x for x in terms] + draw(st.lists(FINITE, max_size=2))
        terms = draw(st.permutations(terms))
    cuts = sorted(draw(st.lists(st.integers(0, len(terms)), max_size=4)))
    bounds = [0, *cuts, len(terms)]
    return [terms[i:j] for i, j in zip(bounds, bounds[1:])]


class TestExactSum:
    @given(term_chunks())
    def test_equals_correctly_rounded_sum(self, chunks):
        terms = [x for chunk in chunks for x in chunk]
        arrays = (np.array(chunk, dtype=np.float64) for chunk in chunks)
        exact = sum(map(Fraction, terms), Fraction(0))
        try:
            expected = float(exact)
        except OverflowError:
            with pytest.raises(ValueError, match="not a finite float"):
                berger._exact_sum(arrays, "the test sum")
            return
        total, _ = berger._exact_sum(arrays, "the test sum")
        assert math.copysign(1, total) == math.copysign(1, expected)
        assert total == expected
        try:
            assert total == math.fsum(terms)
        except OverflowError:
            pass  # fsum overflows in an intermediate sum that is not the result

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_term_rejected(self, bad):
        chunks = [np.ones(3), np.array([1.0, bad])]
        with pytest.raises(ValueError, match="not a finite float"):
            berger._exact_sum(iter(chunks), "the test sum")


class TestPinnedReports:
    """SHA-256 of reports whose spectra span many chunks: a changed
    eigenvalue, multiplicity, row or rounded sum shows here."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("spectrum --a 1/2 --nmax 300",
             "ec070ca6284931eac98725b95e691725ff89dc0ba7a7cb3cd32d355296d777cc"),
            ("spectrum --a 2 --nmax 300",
             "b96339e9eb0e0074e088203f94072b68324c125f901eae108ec32588c34966a8"),
            ("eta --a 1/2 --s 6 --nmax 300",
             "78b6491552d13923b73cdca602a15f93d9f0d46713b4be89b282759ccc35a2f9"),
            ("eta --a 1 --s 6 --nmax 300",
             "cded6a604849038e3f78d11985963e99d33f44f420c3cdfb68cb50a03413e226"),
            ("eta --a 2 --s 6 --nmax 300",
             "193a8368afefa3be6f4d895bd92bd6d80879345d0481b3194d0886742247386d"),
            ("eta --a 1/2 --s 6 --nmax 2000",
             "29ccfe100cdc4f9a34acb4b4978d76005bc1a9dc27c1e4c5c8c1bdd6ec112c24"),
            ("eta --a 1 --s 6 --nmax 2000",
             "1c2d290f297e889b76f121c4140b2fea693a85cbd54a005366005a77fb591c8c"),
            ("eta --a 2 --s 6 --nmax 2000",
             "47ab46d591a5a029916f4cf1458a584e274190fd170a3579e6cc6dbf3702c647"),
            ("weyl --lambda 50",
             "e1a15df435f55c4f7f5c6f8e246481e10670160750e32522bf5be0c6efffa50f"),
            ("weyl --lambda 400",
             "990254fd8e55203f8ab2538219c8c8575718a022fa997d884727d6cdd373eda3"),
        ],
    )
    def test_report_digest(self, tmp_path, args, digest):
        out = tmp_path / "report"
        assert entry(["berger", *args.split(), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
