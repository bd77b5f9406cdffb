"""Berger-sphere spectral numerics: spectra, counting, eta sums, closed forms."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlasym import berger
from curlasym.berger import (
    MAX_NMAX,
    BergerParams,
    completeness_bound,
    counting_function,
    curl_spectrum,
    eta_closed_forms,
    eta_identity,
    hitchin_remainder,
    laplacian_spectrum,
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
        lines = "".join(t.csv_chunks()).splitlines()
        assert lines[0] == "series,n,l,value,multiplicity"
        assert len(lines) == len(t.entries) + 1

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            curl_spectrum(BergerParams(1), 1)

    @pytest.mark.parametrize("spectrum", [curl_spectrum, laplacian_spectrum])
    def test_nmax_cap(self, spectrum):
        with pytest.raises(ValueError, match="n_max"):
            spectrum(BergerParams(1), MAX_NMAX + 1)


    @pytest.mark.parametrize(
        "call",
        [
            lambda n: eta_identity(BergerParams(2), 6.0, n),
            lambda n: hitchin_remainder(BergerParams(2), 6.0, n),
        ],
        ids=["eta_identity", "hitchin_remainder"],
    )
    def test_laplacian_sums_cap_nmax(self, call):
        with pytest.raises(ValueError, match="n_max"):
            call(MAX_NMAX + 1)
        with pytest.raises(ValueError, match="n_max"):
            call(-1)

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

    def test_bound_below_the_next_odd_quantum_number(self):
        """At a = 0.1 the least |value| of n = 3 (10.2) is above that of
        n = 4 (4.80), so n_max = 2 does not list every |value| below 10."""
        t = curl_spectrum(BergerParams(0.1), 2)
        with pytest.raises(ValueError, match="increase n_max"):
            counting_function(t, 10, -1)

    def test_nan_lambda_rejected(self):
        t = curl_spectrum(BergerParams(1), 10)
        for sign in (1, -1):
            with pytest.raises(ValueError, match="lambda must not be NaN"):
                counting_function(t, math.nan, sign)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_non_finite_lambda_named(self, lam):
        """inf was refused with advice to increase n_max, which no table
        can follow, and -inf counted nothing."""
        t = curl_spectrum(BergerParams(1), 10)
        with pytest.raises(ValueError, match=f"NaN or infinite, got {lam}$"):
            counting_function(t, lam, 1)

    @given(
        st.one_of(st.sampled_from([0.1, 0.37]), st.floats(0.05, 20)),
        st.integers(2, 300),
        st.floats(0, 1),
    )
    def test_bound_against_brute_force(self, a, n_max, fraction):
        """The bound is at most every |value| of the next 200 quantum
        numbers, and the counts below it equal those of a wider table."""
        p = BergerParams(a)
        t, wide = curl_spectrum(p, n_max), curl_spectrum(p, n_max + 200)
        bound = completeness_bound(t)
        q = berger._Quanta(t.a, n_max + 200)
        runs = berger._runs("curl", n_max + 1, n_max + 200)
        values = np.concatenate([berger._curl_block(q, *run)[0] for run in runs])
        assert bound <= np.abs(values).min()
        lam = fraction * bound
        for sign in (1, -1):
            assert counting_function(t, lam, sign) == counting_function(wide, lam, sign)


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

    @pytest.fixture
    def n_maxes(self, monkeypatch):
        """The n_max of every curl table weyl_check builds, in order."""
        built, spectrum = [], berger.curl_spectrum

        def recording(p, n_max):
            built.append(n_max)
            return spectrum(p, n_max)

        monkeypatch.setattr(berger, "curl_spectrum", recording)
        return built

    @pytest.mark.parametrize(
        "a", [0.1, 0.37, Fraction(1, 2), 0.9, 1, Fraction(3, 2), 2, 10]
    )
    def test_truncation_keeps_the_counts(self, n_maxes, a):
        """The counts at weyl_check's n_max equal those at
        ceil(a lam) + ceil(2 lam) + 10, which that n_max never exceeds."""
        p = BergerParams(a)
        for lam in (0.5, 1.0, 2.5, 20.0, 100.0, 400.0):
            r = weyl_check(p, lam)
            wide = math.ceil(p.a_float * lam) + math.ceil(2 * lam) + 10
            assert n_maxes[-1] <= wide
            counts = berger._counts(curl_spectrum(p, wide), lam)
            assert counts == (r["n_plus"], r["n_minus"])

    @pytest.mark.parametrize("a", [0.1, 0.37])
    def test_truncation_between_quantum_numbers(self, n_maxes, a):
        """Below a = 1 an odd n has a larger least |value| than the even
        n + 1 after it, so the truncation must not stop at the odd n."""
        p = BergerParams(a)
        for lam in np.arange(0.5, 40.0, 0.25).tolist():
            r = weyl_check(p, lam)
            counts = berger._counts(curl_spectrum(p, n_maxes[-1] + 20), lam)
            assert counts == (r["n_plus"], r["n_minus"])

    @pytest.mark.parametrize("lam", [1.0, 20.0, 400.0])
    def test_truncation_on_the_round_sphere(self, n_maxes, lam):
        """At a = 1 the least |value| of n is n, so every |value| of n = lam
        and above is at least lam."""
        weyl_check(BergerParams(1), lam)
        assert n_maxes == [max(2, int(lam))]


    @pytest.mark.parametrize("lam", [0.0, -5.0, math.nan, math.inf, 1e-300])
    def test_lambda_domain(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            weyl_check(BergerParams(1), lam)


class TestZeta:
    #: zeta(3) (Apery's constant) and zeta(5) to 20 digits.
    ZETA3 = 1.2020569031595942854
    ZETA5 = 1.0369277551433699263

    def test_reference_constants(self):
        assert abs(zeta(3.0) - self.ZETA3) < 1e-12
        assert abs(zeta(5.0) - self.ZETA5) < 1e-12
        assert abs(zeta(2.0) - math.pi**2 / 6) < 1e-12

    def test_against_mpmath(self):
        """Relative error at most 1e-15 on [1.01, 300]; the worst measured
        is 2.7e-16 near s = 1.04."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for s in np.geomspace(1.01, 300, 400):
                s = float(s)
                ref = float(mpmath.zeta(s))
                assert abs(zeta(s) - ref) <= 1e-15 * ref, s

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta(1.0)


class TestEta:
    def test_symmetric_spectrum_gives_zero(self):
        # The truncation keeps a few series-III values just above n_max, so
        # the cancellation is limited by that O(n_max^-4) tail imbalance.
        assert abs(eta_identity(BergerParams(1), 6.0, 200)[0]) < 1e-8

    def test_domain(self):
        for s in (3.0, 2.0):
            with pytest.raises(ValueError):
                eta_identity(BergerParams(2), s, 10)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_nonfinite_s_rejected(self, s):
        with pytest.raises(ValueError):
            eta_identity(BergerParams(2), s, 10)
        with pytest.raises(ValueError, match="s must be finite"):
            hitchin_remainder(BergerParams(2), s, 50)

    def test_decomposition_identity_medium_truncation(self):
        for a in (Fraction(1, 2), 1, 2):
            lhs, rhs, _ = eta_identity(BergerParams(a), 6.0, 600)
            assert abs(lhs - rhs) <= 1e-6

    def test_truncation_tail_shrinks(self):
        p = BergerParams(2)
        e1, e2, e3 = (eta_identity(p, 6.0, n)[0] for n in (300, 600, 1200))
        assert abs(e3 - e2) < abs(e2 - e1)

    def test_theta_brackets_negative(self):
        for *_, bracket, _ in berger._powers(2.0, 6.0, 50):
            assert (bracket < 0).all()

    def test_hitchin_remainder_bounded(self):
        p = BergerParams(2)
        r200 = hitchin_remainder(p, 6.0, 200)
        r400 = hitchin_remainder(p, 6.0, 400)
        assert r400 <= r200 + 1e-9

    def test_eta_identity_leaves_the_remainder(self):
        """eta_identity forms its theta terms in place in buffers of its own."""
        p = BergerParams(2)
        before = hitchin_remainder(p, 6.0, 200)
        eta_identity(p, 6.0, 200)
        assert hitchin_remainder(p, 6.0, 200) == before

    def test_nan_remainder_is_returned(self):
        """At s = 1e200, s (s + 1) (s + 2) overflows and every scaled
        remainder is NaN, which must not read as bounded."""
        with np.errstate(all="ignore"):
            assert math.isnan(hitchin_remainder(BergerParams(2), 1e200, 50))


class TestEtaIdentityGuards:
    """eta_identity refuses what its parts refuse, with the same texts, and
    the CLI maps each refusal to exit 2."""

    S = "s must be finite and > 3 for eta partial sums, got "
    NMAX = f"n_max must be in 2..{MAX_NMAX}, got "

    @pytest.mark.parametrize(
        "a, s, n_max, text",
        [
            (2.0, 3.0, 10, S + "3.0"),
            (2.0, -1.0, 10, S + "-1.0"),
            (2.0, math.nan, 10, S + "nan"),
            (2.0, math.inf, 10, S + "inf"),
            (2.0, 6.0, 1, NMAX + "1"),
            (2.0, 6.0, -3, NMAX + "-3"),
            (2.0, 6.0, MAX_NMAX + 1, NMAX + str(MAX_NMAX + 1)),
            # a - w rounds to 0 in series IV
            (1e150, 6.0, 10,
             "the eta partial sum at a=1e+150, s=6.0 is not a finite float"),
            # w - a rounds to 0 in the n = 1 bracket only, which curl lacks
            (2**27.5, 6.0, 10,
             "the theta sum at a=189812531.24850312, s=6.0 is not a finite float"),
            # (w - a)^-s overflows at n = 1 (w - a = 1/2); curl terms stay finite
            (2.0, 2000.0, 10, "the theta sum at a=2.0, s=2000.0 is not a finite float"),
            (1.0, 1e308, 10,
             "the eta decomposition at a=1.0, s=1e+308 is not a finite float"),
        ],
    )
    def test_refused_with_the_same_text(self, capsys, a, s, n_max, text):
        with pytest.raises(ValueError) as info:
            eta_identity(BergerParams(a), s, n_max)
        assert str(info.value) == text
        argv = ["berger", "eta", "--a", repr(a), "--s", repr(s), "--nmax", str(n_max)]
        assert entry(argv) == 2
        assert capsys.readouterr().err == text + "\n"


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
            lambda: weyl_check(BergerParams(1), 100.0),
            lambda: eta_identity(BergerParams(2), 6.0, 1000),
            lambda: entry(["berger", "eta", "--nmax", "1000"]),
        ],
        ids=[
            "weyl_lambda_100",
            "identity_nmax_1000",
            "cli_eta_nmax_1000",
        ],
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
            terms = [x for *_, curl in berger._powers(t.a, 6.0, 40) for x in curl]
            with mpmath.workdps(50):
                exact = float(mpmath.fsum(terms))
            assert eta_identity(BergerParams(a), 6.0, 40)[0] == exact
            scalar = [
                math.copysign(e.multiplicity, e.value)
                * squaring_power(abs(e.value), 6.0)
                for e in t.entries
            ]
            # The pairs come per run of Laplacian rows, not in table order.
            assert sorted(terms) == sorted(scalar)


class TestOnePass:
    """The reductions read each Laplacian row once, through its curl pair."""

    @pytest.fixture
    def built(self, monkeypatch):
        """(kind, n0, n1) of every Laplacian and curl block built, in order."""
        log = []
        for kind in ("laplacian", "curl"):
            name = f"_{kind}_block"

            def logging(a, n0, n1, kind=kind, block=getattr(berger, name)):
                log.append((kind, n0, n1))
                return block(a, n0, n1)

            monkeypatch.setattr(berger, name, logging)
        monkeypatch.setattr(berger, "CHUNK_ROWS", 100)
        return log

    @staticmethod
    def assert_runs(log, n0, n_max):
        """The blocks are consecutive runs that cover n0 .. n_max once."""
        assert len(log) > 10
        assert [r[1] for r in log] == [n0] + [r[2] for r in log[:-1]]
        assert log[-1][2] == n_max + 1

    def test_eta_identity_builds_each_laplacian_run_once(self, built):
        eta_identity(BergerParams(2), 6.0, 200)
        assert {kind for kind, _, _ in built} == {"laplacian"}
        self.assert_runs(built, 1, 200)

    def test_weyl_counts_build_each_laplacian_run_once(self, built):
        weyl_check(BergerParams(1), 100.0)  # n_max = 100: n is the least |value| of n
        assert {kind for kind, _, _ in built} == {"laplacian"}
        self.assert_runs(built, 2, 100)


def per_chunk_laplacian_block(a, n0, n1):
    """``_laplacian_block`` with every array built per chunk from n0 and n1,
    no table: the reference of ``TestQuanta``."""
    n = np.arange(n0, n1)
    rows = n // 2 + 1
    first = rows.cumsum() - rows
    values = (n + 2.0 * first).repeat(rows)
    values -= np.arange(0.0, 2.0 * values.size, 2.0)
    values *= values
    values *= a**-2 - 1
    values += (n * (n + 2.0)).repeat(rows)
    mults = (2.0 * n + 2).repeat(rows)
    even = slice(n0 % 2, None, 2)
    mults[first[even] + rows[even] - 1] = n[even] + 1
    return values, mults, first


def per_chunk_pair_block(a, n0, n1):
    """``_pair_block`` built per chunk, no table."""
    mu, mults, first = per_chunk_laplacian_block(a, n0, n1)
    n = np.arange(max(n0, 2), n1)
    one_two_mults = (2.0 * n - 2).repeat(2).reshape(-1, 2)
    one_two_mults[n == 2, 1] = 1
    one_two = np.empty((n.size, 2))
    one_two[:, 0], one_two[:, 1] = n, n + 2 * (a**2 - 1)
    one_two /= a
    w = a**2 + mu
    return mu, mults, np.sqrt(w, out=w), first[n0 < 2 :], one_two, one_two_mults


def per_chunk_curl_block(a, n0, n1):
    """``_curl_block`` built per chunk, no table."""
    _, mults, w, first, one_two, one_two_mults = per_chunk_pair_block(a, n0, n1)
    values = np.stack((a + w, a - w), axis=1)
    values[first] = one_two
    mults = np.stack((mults, mults), axis=1)
    mults[first] = one_two_mults
    return values.ravel(), mults.ravel()


def squaring_power(v, s):
    """v^-s for 2 s = 2 k + h in 4 .. 64, by the operation sequence that
    ``berger._negative_power`` documents, each step into a fresh value: v^k
    by left-to-right binary powering, times sqrt(v) if h = 1, then 1 / (...).
    v is a Python float or an array."""
    k, half = divmod(int(2 * s), 2)
    power = v
    for bit in bin(k)[3:]:
        power = power * power
        if bit == "1":
            power = power * v
    if half:
        power = power * (np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v))
    return 1 / power


def per_chunk_powers(a, s, n_max):
    """``_powers`` built per chunk, no table: the series I and II terms
    raised per chunk, every array fresh."""
    shift = np.array([[a], [-a]])
    for n0, n1 in berger._runs("laplacian", 1, n_max):
        mu, mults, w, first, one_two, one_two_mults = per_chunk_pair_block(a, n0, n1)
        xy = squaring_power(np.add(w, shift), s)
        bracket = xy[0] - xy[1]
        skip = int(n0 == 1)
        curl = xy[:, skip:]
        curl *= mults[skip:]
        np.negative(curl[1], out=curl[1])
        curl[:, first - skip] = (squaring_power(one_two, s) * one_two_mults).T
        yield mu, w, mults, bracket, curl.ravel()


def assert_same_bytes(got, want):
    """The arrays agree in dtype, shape and every byte."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


#: Squashing parameters: the round sphere, the pinned ones, and a range.
A_FLOATS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 20))
#: Chunk sizes: one row, a few rows, and the default.
CHUNK_SIZES = st.sampled_from([1, 7, berger.CHUNK_ROWS])


class TestQuanta:
    """The blocks slice one per-call table of the quantum numbers; every run
    they build equals, byte for byte, the same run built per chunk."""

    @settings(max_examples=40, deadline=None)
    @given(A_FLOATS, st.integers(2, 400), CHUNK_SIZES)
    def test_blocks_equal_per_chunk_reference(self, a, n_max, chunk_rows):
        with mock.patch.object(berger, "CHUNK_ROWS", chunk_rows):
            q = berger._Quanta(a, n_max)
            for block, reference, starts in (
                (berger._laplacian_block, per_chunk_laplacian_block, (0, 1, 2)),
                (berger._pair_block, per_chunk_pair_block, (1, 2)),
                (berger._curl_block, per_chunk_curl_block, (2,)),
            ):
                kind = "curl" if block is berger._curl_block else "laplacian"
                for n0 in starts:
                    for run in berger._runs(kind, n0, n_max):
                        assert_same_bytes(block(q, *run), reference(a, *run))

    @settings(max_examples=40, deadline=None)
    @given(A_FLOATS, st.sampled_from([4.5, 6.0, 9.0]), st.integers(0, 400), CHUNK_SIZES)
    def test_powers_equal_per_chunk_reference(self, a, s, n_max, chunk_rows):
        """The series I and II terms, raised once per call, fill the same
        slots with the same bits as when raised per chunk.  A run's arrays
        are compared before the next is drawn: its buffers are reused."""
        with mock.patch.object(berger, "CHUNK_ROWS", chunk_rows):
            runs = zip_longest(
                berger._powers(a, s, n_max), per_chunk_powers(a, s, n_max)
            )
            for x, y in runs:
                assert x is not None and y is not None
                assert_same_bytes(x, y)

    def test_table_memory_at_max_nmax(self):
        """At MAX_NMAX the table holds 10 001 entries per array and a ramp of
        CHUNK_ROWS: about 0.8 MB, against the 25 M rows it indexes."""
        q = berger._Quanta(1.0, MAX_NMAX)
        arrays = [v for v in vars(q).values() if isinstance(v, np.ndarray)]
        assert max(x.shape[0] for x in arrays) == MAX_NMAX + 1
        assert sum(x.nbytes for x in arrays) < 0.9e6


class TestNegativePower:
    """``_negative_power`` builds v^-s from correctly rounded operations
    when 2 s is an integer from 4 up to its cap, and takes ``**`` otherwise."""

    #: The least and the largest s it squares for, and some between.
    SQUARING_S = [2.0, 3.5, 4.0, 6.0, 10.0, 17.5, 32.0]

    @staticmethod
    def values():
        """v from 1e-3 to 1e4, and the |values| of one chunk of a table."""
        spread = 10 ** np.random.default_rng(32).uniform(-3, 4, 2000)
        chunk = next(curl_spectrum(BergerParams(Fraction(1, 2)), 300).chunks())[2]
        return np.concatenate((spread, np.abs(chunk)))

    @pytest.mark.parametrize("s", SQUARING_S)
    def test_equals_the_sequence_on_python_floats(self, s):
        v = self.values()
        got = berger._negative_power(v.copy(), s, np.empty_like(v))
        want = np.array([squaring_power(x, s) for x in v.tolist()])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", SQUARING_S)
    def test_within_k_plus_2_ulp(self, s):
        mpmath = pytest.importorskip("mpmath")
        v = self.values()[::10]
        got = berger._negative_power(v.copy(), s, np.empty_like(v))
        with mpmath.workdps(40):
            exact = [mpmath.mpf(x) ** -mpmath.mpf(s) for x in v.tolist()]
            ulps = [
                abs(g - e) / math.ulp(float(e)) for g, e in zip(got.tolist(), exact)
            ]
        assert max(ulps) <= int(s) + 2

    @pytest.mark.parametrize(
        "s", [6.3, 32.5, 33.0, 1.5, 1.0, 0.5, 0.0, -2.0, 1e200, 1e308, math.nan]
    )
    def test_other_s_takes_numpy_power(self, s):
        """Off the squaring path, including s so large that 2 s overflows."""
        v = self.values()
        with np.errstate(all="ignore"):
            got = berger._negative_power(v.copy(), s, np.empty_like(v))
            assert got.tobytes() == (v ** -s).tobytes()


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
            return eta_identity(p, 6.0, 60)[:2], eta_identity(p, 4.5, 60)[:2]

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

    #: eta_identity(p, 6, 60) as float.hex and weyl_check(p, 20) counts.
    PINNED = {
        Fraction(1, 2): ("0x1.fa18cd42f114dp-1", "0x1.fa18cd4da78e5p-1", 1296, 1349),
        Fraction(3, 2): ("0x1.24a349d6d820cp-2", "0x1.24a38593c2780p-2", 3939, 3998),
        0.37: ("0x1.852da1ed28a28p+2", "0x1.852da1ed61032p+2", 948, 1025),
    }

    #: eta_identity(p, 6, 3000) as float.hex, at the north-star truncation.
    PINNED_3000 = {
        Fraction(1, 2): ("0x1.fa18cc39aac1cp-1", "0x1.fa18cc39aac1ep-1"),
        1: ("0x1.bb519a3db6329p-46", "0x1.5000000000000p-45"),
        2: ("0x1.0e9442064f273p+1", "0x1.0e9442064f980p+1"),
    }

    #: eta_identity(p, 6, 2000) as float.hex, both sides and the bound, at
    #: the inputs of the benchmark's berger_eta workload.
    PINNED_2000 = {
        Fraction(1, 2): (
            "0x1.fa18cc39aace4p-1", "0x1.fa18cc39aacedp-1", "0x1.24221d00bf924p-52"
        ),
        1: ("0x1.18124dc1a2049p-43", "0x1.a600000000000p-43", "0x1.0a7418eca7c62p-49"),
        2: ("0x1.0e9442064ef84p+1", "0x1.0e94420651300p+1", "0x1.086594aaa17bbp-43"),
    }

    @pytest.mark.parametrize("a", PINNED_2000)
    def test_identity_and_bound_at_nmax_2000(self, a):
        got = eta_identity(BergerParams(a), 6.0, 2000)
        assert got == tuple(map(float.fromhex, self.PINNED_2000[a]))

    def test_rounding_bound_pinned(self):
        """2^-52 times the larger sum of absolute values, as float.hex."""
        bound = eta_identity(BergerParams(2), 6.0, 60)[2]
        assert bound == float.fromhex("0x1.08659488b29e2p-43")

    @pytest.mark.parametrize("a", PINNED_3000)
    def test_identity_at_nmax_3000(self, a):
        sides = eta_identity(BergerParams(a), 6.0, 3000)[:2]
        assert sides == tuple(map(float.fromhex, self.PINNED_3000[a]))

    @pytest.mark.parametrize("chunk_rows", [1, 7, 100, berger.CHUNK_ROWS])
    def test_identity_and_counts_for_any_chunk_size(self, monkeypatch, chunk_rows):
        monkeypatch.setattr(berger, "CHUNK_ROWS", chunk_rows)
        for a, (lhs, rhs, n_plus, n_minus) in self.PINNED.items():
            p = BergerParams(a)
            sides = eta_identity(p, 6.0, 60)[:2]
            assert sides == (float.fromhex(lhs), float.fromhex(rhs))
            counts = weyl_check(p, 20.0)
            assert (counts["n_plus"], counts["n_minus"]) == (n_plus, n_minus)

    @pytest.mark.parametrize(
        "a, n_max, sizes",
        [
            (Fraction(3, 2), 60, [1, 7, 100, 8192]),
            (Fraction(1, 2), 2000, [8192, 16384]),
        ],
    )
    def test_bound_agrees_across_chunk_sizes(self, monkeypatch, a, n_max, sizes):
        """The sums are exact; the bound is a float sum of chunk sums, so
        only its last bits may depend on the chunking."""
        bounds = []
        for chunk_rows in sizes:
            monkeypatch.setattr(berger, "CHUNK_ROWS", chunk_rows)
            bounds.append(eta_identity(BergerParams(a), 6.0, n_max)[2])
        assert bounds == pytest.approx([bounds[0]] * len(sizes), rel=1e-12, abs=0)

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
#: Terms of at least 2**1000, near where a chunk's extraction would overflow.
HUGE = st.one_of(
    st.floats(2.0**1000, 1.7976931348623157e308),
    st.sampled_from([2.0**1000, 2.0**1016, 2.0**1020, 1.7976931348623157e308]),
).flatmap(lambda x: st.sampled_from([x, -x]))
SUBNORMAL = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)


@st.composite
def term_chunks(draw):
    """Chunks of finite terms, some with terms of at least 2**1000 beside
    subnormals; some cancel exactly, leaving a small rest."""
    terms = draw(st.lists(FINITE, max_size=60))
    if draw(st.booleans()):
        terms += draw(st.lists(HUGE, min_size=1, max_size=4))
        terms += draw(st.lists(SUBNORMAL, min_size=1, max_size=4))
    if draw(st.booleans()):
        terms += [-x for x in terms] + draw(st.lists(FINITE, max_size=2))
        terms = draw(st.permutations(terms))
    cuts = sorted(draw(st.lists(st.integers(0, len(terms)), max_size=4)))
    bounds = [0, *cuts, len(terms)]
    return [terms[i:j] for i, j in zip(bounds, bounds[1:])]


@st.composite
def sized_chunks(draw):
    """A chunk of 2**m - 3 .. 2**m + 1 terms of one sign near the top of one
    binade, where the bits kept by an extraction level change with the size
    and the level sums come nearest the limit of exact float sums; then a
    chunk of the negatives of all but the first."""
    m = draw(st.integers(1, 10))
    size = max(1, 2**m + draw(st.integers(-3, 1)))
    exponent = draw(st.integers(-1074, 1023))
    sign = draw(st.sampled_from([1, -1]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = [
        sign * math.ldexp(rng.randrange(2**53 - 2**49, 2**53), exponent - 53)
        for _ in range(size)
    ]
    return [terms, [-x for x in terms[1:]]]


class TestExactSum:
    @given(st.one_of(term_chunks(), sized_chunks()))
    def test_equals_correctly_rounded_sum(self, chunks):
        terms = [x for chunk in chunks for x in chunk]
        arrays = ((np.array(chunk, dtype=np.float64),) for chunk in chunks)
        exact = sum(map(Fraction, terms), Fraction(0))
        try:
            expected = float(exact)
        except OverflowError:
            with pytest.raises(ValueError, match="not a finite float"):
                berger._exact_sums(arrays, "the test sum")
            return
        [(total, _)] = berger._exact_sums(arrays, "the test sum")
        assert math.copysign(1, total) == math.copysign(1, expected)
        assert total == expected
        try:
            assert total == math.fsum(terms)
        except OverflowError:
            pass  # fsum overflows in an intermediate sum that is not the result

    @given(st.one_of(term_chunks(), sized_chunks()))
    def test_caller_arrays_unchanged(self, chunks):
        """The scratch array of the sums is their own: the term arrays, two
        per chunk, come back bit for bit."""
        arrays = [(np.array(c, dtype=np.float64), -np.array(c[::-1])) for c in chunks]
        kept = [[x.tobytes() for x in pair] for pair in arrays]
        try:
            berger._exact_sums(iter(arrays), "the sum", "the reversed negated sum")
        except ValueError:
            pass
        assert [[x.tobytes() for x in pair] for pair in arrays] == kept

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_term_rejected(self, bad):
        chunks = [(np.ones(3),), (np.array([1.0, bad]),)]
        with pytest.raises(ValueError, match="not a finite float"):
            berger._exact_sums(iter(chunks), "the test sum")


@st.composite
def extraction_arrays(draw):
    """1 to 20 000 terms of one or both signs within `spread` binades below
    2**top: one extraction level leaves an exactly summable rest when the
    spread is small enough for the size.  Some hold zeros, which hide the
    smallest non-zero magnitude; the exponents run from the subnormals to
    2**1023, past the 2**(1023 - m) at which sigma would overflow."""
    size = draw(st.one_of(st.integers(1, 40), st.integers(1, 20_000)))
    top = draw(
        st.one_of(
            st.integers(-1074, 1024), st.integers(1000, 1024), st.integers(-1074, -1000)
        )
    )
    spread = draw(st.integers(0, 60))
    signs = draw(st.sampled_from([(1,), (-1,), (1, -1)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = [
        rng.choice(signs)
        * math.ldexp(rng.randrange(2**52, 2**53), top - 53 - rng.randrange(spread + 1))
        for _ in range(size)
    ]
    if draw(st.integers(0, 3)) == 0:
        for i in draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3)):
            terms[i] = 0.0
    return np.array(terms)


class TestExtraction:
    """The exact rest after one level gives the sum of the loop of levels."""

    @staticmethod
    def check(r):
        """Both forms equal the exact sum; says whether the rest is summed."""
        magnitudes = np.abs(r)
        top, low = float(magnitudes.max()), float(magnitudes.min())
        exact = sum(map(Fraction, r.tolist()), Fraction(0)) * 2**1074
        assert exact.denominator == 1
        with np.errstate(all="ignore"):
            assert berger._extracted(r, top, low) == berger._extracted(r, top) == exact
        m = (r.size + 1).bit_length()
        return low > 0 and math.frexp(low)[1] >= math.frexp(top)[1] + 2 * m - 53

    @given(extraction_arrays())
    def test_equals_loop_and_exact_sum(self, r):
        self.check(r)

    @given(extraction_arrays())
    def test_scratch_array(self, r):
        """A scratch q, whatever it holds, gives the same sum and leaves r."""
        kept = r.tobytes()
        magnitudes = np.abs(r)
        top, low = float(magnitudes.max()), float(magnitudes.min())
        with np.errstate(all="ignore"):
            total = berger._extracted(r, top, low)
            assert berger._extracted(r, top, low, np.full_like(r, np.nan)) == total
        assert r.tobytes() == kept

    @pytest.mark.parametrize(
        "terms, meets",
        [
            ([1.0], True),  # one level and an empty rest
            ([1.0, 2.0**-20, 3.0, 1.0 + 2.0**-52] * 5000, True),
            ([1.0, 2.0**-30, 3.0, 1.0 + 2.0**-52] * 5000, False),
            ([1.0, 0.0, 3.0], False),  # a zero hides the least magnitude
            ([5e-324, -1e-320, 2.0**-1040] * 100, True),
            ([5e-324, -1e-320, 2.0**-1022] * 100, False),
            ([2.0**1020, -(2.0**1020), 1.0, 2.0**-1074], False),  # sigma overflows
            ([1.5 * 2.0**1019, -(2.0**1018), 2.0**1010], True),
            # The top term, scaled by 2**-_SHIFT, no longer overflows sigma.
            ([2.0**1022, 2.0**-1074], False),
            # Rests 2**-48 - k 2**-98 whose sum needs 54 bits, one binade
            # short of the condition.
            ([1.5] + [2.0**-46 + 2.0**-48 - k * 2.0**-98 for k in range(1, 27, 2)],
             False),
        ],
        ids=["one", "meets", "misses", "zero", "subnormal-meets",
             "subnormal-misses", "huge", "near-overflow", "scaled-top",
             "inexact-rest"],
    )
    def test_cases(self, terms, meets):
        assert self.check(np.array(terms)) == meets


class TestPinnedReports:
    """SHA-256 of reports whose spectra span many chunks: a changed
    eigenvalue, multiplicity, row or rounded sum shows here."""

    #: (arguments of ``berger``, SHA-256 of the report).
    REPORTS = [
        ("spectrum --a 1/2 --nmax 300",
         "ec070ca6284931eac98725b95e691725ff89dc0ba7a7cb3cd32d355296d777cc"),
        ("spectrum --a 2 --nmax 300",
         "b96339e9eb0e0074e088203f94072b68324c125f901eae108ec32588c34966a8"),
        ("eta --a 1/2 --s 6 --nmax 300",
         "812132a9522d97b1a62fbec7b97572926c81144087f070fb48ade02f30172a80"),
        ("eta --a 1 --s 6 --nmax 300",
         "c6142a0e0656231e5046aa9005d0eac9ba1468c4525b59b93674c3f74ed0fe38"),
        ("eta --a 2 --s 6 --nmax 300",
         "193a8368afefa3be6f4d895bd92bd6d80879345d0481b3194d0886742247386d"),
        ("eta --a 1/2 --s 6 --nmax 2000",
         "29ccfe100cdc4f9a34acb4b4978d76005bc1a9dc27c1e4c5c8c1bdd6ec112c24"),
        ("eta --a 1 --s 6 --nmax 2000",
         "7b8b12752999915897dcae403b6e40eac60d23dd594ec0e54f5ffb476c554d65"),
        ("eta --a 2 --s 6 --nmax 2000",
         "47ab46d591a5a029916f4cf1458a584e274190fd170a3579e6cc6dbf3702c647"),
        ("weyl --lambda 50",
         "e1a15df435f55c4f7f5c6f8e246481e10670160750e32522bf5be0c6efffa50f"),
        ("weyl --lambda 400",
         "990254fd8e55203f8ab2538219c8c8575718a022fa997d884727d6cdd373eda3"),
    ]

    @pytest.mark.parametrize("args, digest", REPORTS)
    def test_report_digest(self, tmp_path, args, digest):
        out = tmp_path / "report"
        assert entry(["berger", *args.split(), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    #: eta at s 3.5 and 10 on a grid of a and n_max, weyl at lambda 100:
    #: (exit code, SHA-256 of the report).
    GRID = {
        "eta --a 0.37 --s 3.5 --nmax 2":
            (1, "23f423e60f5195f393b67aa6d2b2276eab43ab80b9f11c00e43a779509465be7"),
        "eta --a 0.37 --s 3.5 --nmax 3":
            (1, "fb86f669cdbbe073a89091f4f16e9b4aaaeb654df12ba78777c85e582fc29213"),
        "eta --a 0.37 --s 3.5 --nmax 61":
            (1, "e92927a3a8f8301bf0aec2ac41b5f645d2b0a43595b53e6cdf953a99d46206a2"),
        "eta --a 3/2 --s 3.5 --nmax 2":
            (1, "f97076c3150cef763e03f63d13b053281b6b5bd271d7207c68f2ce00f751812b"),
        "eta --a 3/2 --s 3.5 --nmax 3":
            (1, "5c020aff20d016a4fd011aec261b546c1f74366c8a73dae2122aae1067ec613e"),
        "eta --a 3/2 --s 3.5 --nmax 61":
            (1, "a713c3ed20ad4faa65d0bfe323b10c56d5b0269825c99fe67c458c0a4ec6daa9"),
        "eta --a 5 --s 3.5 --nmax 2":
            (1, "82c5b33be501e27e5198b85fb004948c9a87beb45f25b4d1b582b3e2040b0862"),
        "eta --a 5 --s 3.5 --nmax 3":
            (1, "c034a92631e8e8223cbfc03e019b639bc038b5c352577ccc3d4b662305305573"),
        "eta --a 5 --s 3.5 --nmax 61":
            (1, "0df99c1d7a658a6558a8d9a31a6c5bce9ce6bc19d57ac9df69a0f3b529652836"),
        "eta --a 0.37 --s 10 --nmax 2":
            (1, "b72e470e80551ce0c859d5cff7d84266ce5783c2ccc61337e5abfe9a305c78e2"),
        "eta --a 0.37 --s 10 --nmax 3":
            (0, "38a4f8563cfc78740ef4322d93af21af54dd4ac5f1a3b81cfe715a8143db6c19"),
        "eta --a 0.37 --s 10 --nmax 61":
            (0, "75dea94dbee193108f151a57e601e8010fe45978388934807ab6b6141a7920d1"),
        "eta --a 3/2 --s 10 --nmax 2":
            (1, "e1bfb1a49ebe17cc0b7720d89f95c4dbeeffaade0807d51568245806d771835f"),
        "eta --a 3/2 --s 10 --nmax 3":
            (1, "453f061c9666064cd66c332207b45e222f9d39eafc4c0ce7c79ebb4fdfac8c1b"),
        "eta --a 3/2 --s 10 --nmax 61":
            (0, "b4e987f670a0742c89be00cbff6a72b83efede7b25171a68f13eefe433cef726"),
        "eta --a 5 --s 10 --nmax 2":
            (1, "11511a5d40ce1a7453e3cc9c797d1421eda6a6e3b2f4932b558bc75ba632816e"),
        "eta --a 5 --s 10 --nmax 3":
            (1, "c39a84ac8d77131cebc119b78af43a979a37e745067f6885bd6b01faf933b324"),
        "eta --a 5 --s 10 --nmax 61":
            (0, "04d1d5a4b243cef3f31f2685dc5f58754fb0027e7aace3d1538e8404323b2138"),
        "weyl --a 1/2 --lambda 100":
            (0, "82a57fdaee3049752aca7c94a2884d3898ccc601e197c88622b87b7b082e53cb"),
        "weyl --a 2 --lambda 100":
            (0, "bee8b1e3572df26501bc916f3d297294abde5b379427c9dc8cd62cb6061dacc3"),
        "weyl --a 0.37 --lambda 100":
            (0, "d1d57678523f69b5a55b61fa94e31720d7f5e19a8438cb55311826e708a312ad"),
    }

    @pytest.mark.parametrize("args", GRID)
    def test_grid_report_digest(self, tmp_path, args):
        code, digest = self.GRID[args]
        out = tmp_path / "report"
        assert entry(["berger", *args.split(), "--output", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def avx512_targets():
    """The AVX-512 targets that numpy both dispatches to and finds on this
    CPU: the only names ``NPY_DISABLE_CPU_FEATURES`` may take here, since
    numpy warns on import about any other."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [
        t for t in __cpu_dispatch__
        if (t == "X86_V4" or t.startswith("AVX512")) and __cpu_features__.get(t)
    ]


def pinned_eta_bits():
    """What this module pins of the eta sums: the exit code and text of each
    eta report of ``TestPinnedReports``, and the ``eta_identity`` values of
    ``TestChunks`` as float.hex."""
    bits = {}
    reports = [args for args, _ in TestPinnedReports.REPORTS]
    for args in reports + list(TestPinnedReports.GRID):
        if args.startswith("eta"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = entry(["berger", *args.split()])
            bits[args] = [code, out.getvalue()]
    for n_max, params in (
        (60, TestChunks.PINNED),
        (2000, TestChunks.PINNED_2000),
        (3000, TestChunks.PINNED_3000),
        (60, [2]),  # the rounding bound of test_rounding_bound_pinned
    ):
        for a in params:
            values = eta_identity(BergerParams(a), 6.0, n_max)
            bits[f"eta_identity a={a} n_max={n_max}"] = [x.hex() for x in values]
    return bits


def test_eta_bits_without_avx512():
    """The pinned eta bits are the same when numpy runs without its AVX-512
    kernels, whose ``**`` differs from libm's ``pow`` in about 5 % of
    results: the terms come from correctly rounded operations only.  The
    subprocess also reports that none of the targets is left on."""
    targets = avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 target on this CPU")
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(Path(__file__).parent)!r}, "
        f"{str(Path(berger.__file__).parents[1])!r}]\n"
        "import test_berger\n"
        "print(json.dumps([test_berger.avx512_targets(), "
        "test_berger.pinned_eta_bits()]))\n"
    )
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == [[], pinned_eta_bits()]
