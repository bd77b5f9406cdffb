"""Spectral numerics on Berger 3-spheres.

The Berger sphere squashes the round 3-sphere along the Hopf fibre by a
parameter a > 0.  Both the Laplace-Beltrami spectrum and the curl spectrum
are known in closed form, which makes the sphere a complete numerical test
bed: eigenvalue counting against the Weyl law, the eta decomposition
identity in partial sums, and exact rational closed forms for the eta
invariant at s = 0.

Spectra are never stored: a table is a (kind, a, n_max) record that yields
chunks of eigenvalues and multiplicities, each a run of whole quantum numbers
of at most CHUNK_ROWS rows built in one numpy pass from per-n arrays that each
call makes once (``_Quanta``, O(n_max)), so memory is bounded by the chunk
size and n_max.  A Laplacian row (n, l >= 1) with eigenvalue mu gives the
curl pair a +- sqrt(a^2 + mu): ``eta_identity`` sums both sides in one pass
over the rows, and one lower bound on |value| per quantum number
(``_least_abs``) certifies every count.  Sums are exact: error-free
extraction splits each chunk's terms into a few levels whose float sums are
exact, and one Python-integer accumulator of the levels is rounded once, so
a sum is correctly rounded whatever the order or chunking of its terms.  The
eta identity's rounding bound, a float sum of chunk sums, is not.

Each eta term is a power v^-s.  For 2 s an integer from 4 to _MAX_TWICE_S,
``_negative_power`` builds it by binary powering, one square root and one
division, all rounded correctly by IEEE 754, so eta reports at such s have
the same bits whatever SIMD kernels numpy dispatches to; any other s takes
numpy's ``**``, whose AVX-512 kernels and libm's pow differ in about 5 % of
results.  (The Basset values of ``kernel`` still depend on the dispatch:
they use exp, expm1 and log, and move 1-2 ulp without AVX-512.)

numpy is imported on the first Berger call, so that the exact pipelines
start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

#: Largest truncation of any spectrum; the work grows as n_max^2 (about
#: 0.25 s for weyl_check near this bound on a 2-core machine).
MAX_NMAX = 10_000
#: Most rows in one chunk, unless a single quantum number has more (up to
#: 2 + MAX_NMAX rows of curl).  It bounds the memory of every reduction.
CHUNK_ROWS = 8192
#: Every finite double is an integer times 2**-_TINY.
_TINY = 1074
#: An array whose extraction would overflow has its terms of at least 1
#: extracted times 2**-_SHIFT: below 2**(1024 - _SHIFT) <= 2**(1023 - m) for
#: every array of fewer than 2**62 terms (2**m >= size + 2).
_SHIFT = 64
#: Largest 2 s at which ``_negative_power`` squares instead of calling ``**``:
#: its error bound, k + 2 ulp, stays at most 34 ulp.
_MAX_TWICE_S = 64


@dataclass(frozen=True)
class BergerParams:
    """Squashing parameter of the Berger sphere."""

    a: object

    def __post_init__(self) -> None:
        a = math.inf
        try:
            a = float(self.a)
            ok = a > 0 and math.isfinite(a**2) and math.isfinite(a**-2)
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(
                f"parameter a must be > 0 with a**2 and a**-2 finite floats, got {a!r}"
            )

    @property
    def a_float(self) -> float:
        return float(self.a)

    @property
    def a_exact(self) -> Fraction:
        if isinstance(self.a, (int, Fraction)):
            return Fraction(self.a)
        raise TypeError("exact closed forms require a rational parameter")


@dataclass(frozen=True)
class SpectrumEntry:
    series: str
    n: int
    l: int
    value: float
    multiplicity: int


def _runs(kind: str, n0: int, n_max: int) -> Iterator[tuple[int, int]]:
    """Runs n0 <= n < n1 up to n_max of at most CHUNK_ROWS rows, or of one n:
    n has a row per l = 0 .. n // 2, two for curl."""
    width = 2 if kind == "curl" else 1
    while n0 <= n_max:
        n1, rows = n0 + 1, width * (n0 // 2 + 1)
        while n1 <= n_max and rows + width * (n1 // 2 + 1) <= CHUNK_ROWS:
            rows += width * (n1 // 2 + 1)
            n1 += 1
        yield n0, n1
        n0 = n1


class _Quanta:
    """The per-n arrays of one Berger call, n = 0 .. n_max (O(n_max), ~0.8 MB at
    MAX_NMAX), sliced by the blocks per run of ``_runs``: n // 2 + 1 rows from
    the offset first, top = n + 2 first, nn = n (n + 2), mults = 2n + 2, the
    series I and II of n >= 2 with multiplicities, and a ramp 0, 2, 4, ..."""

    def __init__(self, a: float, n_max: int) -> None:
        import numpy as np

        n = np.arange(n_max + 1)
        self.a, self.rows = a, n // 2 + 1
        self.first = self.rows.cumsum() - self.rows
        self.top, self.nn = n + 2.0 * self.first, n * (n + 2.0)
        self.mults = 2.0 * n + 2  # whole numbers, as floats for the sums
        self.one_two = np.stack((n / a, (n + 2 * (a**2 - 1)) / a), axis=1)[2:]
        self.one_two_mults = np.stack((self.mults - 4,) * 2, axis=1)[2:]
        self.one_two_mults[:1, 1] = 1  # series II has multiplicity 1 at n = 2
        self.ramp = np.arange(0.0, 2.0 * max(CHUNK_ROWS, n_max // 2 + 1), 2.0)


def _laplacian_block(q: _Quanta, n0: int, n1: int) -> tuple[np.ndarray, ...]:
    """Laplacian values and multiplicities of n0 <= n < n1 by (n, l); the rows l = 0.

    The value is n (n + 2) + (a^-2 - 1) k^2 with k = n - 2 l; k, k^2 and
    n (n + 2) are integers below 2^53, so float64 holds them exactly.
    """
    rows, first = q.rows[n0:n1], q.first[n0:n1] - q.first[n0]
    values = (q.top[n0:n1] - 2.0 * q.first[n0]).repeat(rows)  # top - 2 i = n - 2 l
    values -= q.ramp[: values.size]
    values *= values
    values *= q.a**-2 - 1
    values += q.nn[n0:n1].repeat(rows)
    mults = q.mults[n0:n1].repeat(rows)
    mults[(first + rows - 1)[n0 % 2 :: 2]] /= 2  # n + 1 at l = n / 2
    return values, mults, first


def _pair_block(q: _Quanta, n0: int, n1: int) -> tuple[np.ndarray, ...]:
    """Laplacian rows of 1 <= n0 <= n < n1 and their curl pairs a + w, a - w.

    Returns mu, its multiplicities, w = sqrt(a^2 + mu) and, one per n >= 2,
    the row l = 0, whose pair is not a curl eigenvalue, and the series I and
    II values and multiplicities that take its place.
    """
    import numpy as np

    mu, mults, first = _laplacian_block(q, n0, n1)
    w, n = q.a**2 + mu, slice(max(n0, 2) - 2, n1 - 2)  # the series of n >= 2
    np.sqrt(w, out=w)
    return mu, mults, w, first[n0 < 2 :], q.one_two[n], q.one_two_mults[n]


def _curl_block(q: _Quanta, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Curl eigenvalues and multiplicities for 2 <= n0 <= n < n1.

    The rows of each n are series I, II, then III and IV interleaved for
    l = 1 .. n // 2: the pairs of ``_pair_block`` in row order.
    """
    import numpy as np

    _, mults, w, first, one_two, one_two_mults = _pair_block(q, n0, n1)
    values = np.stack((q.a + w, q.a - w), axis=1)
    values[first] = one_two
    mults = np.stack((mults, mults), axis=1)
    mults[first] = one_two_mults
    return values.ravel(), mults.ravel()


def _row_labels(kind: str, n0: int, n1: int) -> Iterator[tuple[str, int, int]]:
    """(series, n, l) of each row for n0 <= n < n1, in chunk order."""
    for n in range(n0, n1):
        if kind == "laplacian":
            yield from (("LAPLACE", n, l) for l in range(n // 2 + 1))
        else:
            yield from (("I", n, 0), ("II", n, 0))
            yield from ((s, n, l) for l in range(1, n // 2 + 1) for s in ("III", "IV"))


@dataclass(frozen=True)
class _Entries:
    """Read-only view of a table's rows as ``SpectrumEntry`` objects."""

    _table: SpectrumTable

    def __len__(self) -> int:
        # Rows per n: n // 2 + 1 (Laplacian) or 2 + 2 * (n // 2) (curl);
        # sum_{n <= N} n // 2 = (N // 2) * ((N + 1) // 2).
        n = self._table.n_max
        halves = (n // 2) * ((n + 1) // 2)
        if self._table.kind == "curl":
            return 2 * (n - 1) + 2 * halves
        return n + 1 + halves

    def __iter__(self) -> Iterator[SpectrumEntry]:
        for rows in self._table._labelled_chunks():
            yield from (SpectrumEntry(*label, v, m) for label, v, m in rows)


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalues grouped by (series, n, l) with multiplicity weights.

    The rows are produced on demand, one chunk at a time.
    """

    kind: str
    a: float
    n_max: int

    def chunks(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """(n0, n1, values, multiplicities) of the quantum numbers
        n0 <= n < n1, in order; a chunk holds at most CHUNK_ROWS rows or a
        single quantum number."""
        q, curl = _Quanta(self.a, self.n_max), self.kind == "curl"
        block, first = (_curl_block, 2) if curl else (_laplacian_block, 0)
        for n0, n1 in _runs(self.kind, first, self.n_max):
            values, mults = block(q, n0, n1)[:2]
            yield n0, n1, values, mults.astype(int)

    def _labelled_chunks(self) -> Iterator[Iterator[tuple]]:
        """Per chunk, ((series, n, l), value, multiplicity) for each row."""
        for n0, n1, values, mults in self.chunks():
            yield zip(_row_labels(self.kind, n0, n1), values.tolist(), mults.tolist())

    @property
    def entries(self) -> _Entries:
        return _Entries(self)

    def csv_chunks(self) -> Iterator[str]:
        """The table as CSV text: the header, then the rows of one chunk per
        piece."""
        yield "series,n,l,value,multiplicity\n"
        for rows in self._labelled_chunks():
            yield "".join(
                f"{series},{n},{l},{v!r},{m}\n" for (series, n, l), v, m in rows
            )


def _check_nmax(n_max: int, low: int) -> None:
    if not low <= n_max <= MAX_NMAX:
        raise ValueError(f"n_max must be in {low}..{MAX_NMAX}, got {n_max}")


def laplacian_spectrum(p: BergerParams, n_max: int) -> SpectrumTable:
    """Laplace-Beltrami eigenvalues on 0-forms up to quantum number n_max."""
    _check_nmax(n_max, 0)
    return SpectrumTable("laplacian", p.a_float, n_max)


def curl_spectrum(p: BergerParams, n_max: int) -> SpectrumTable:
    """Curl eigenvalues on coclosed 1-forms up to quantum number n_max.

    Four series: I and II positive, III positive, IV negative; zero never
    occurs for any a > 0.
    """
    _check_nmax(n_max, 2)
    return SpectrumTable("curl", p.a_float, n_max)


def _least_abs(a: float, n):
    """A lower bound on |value| over the curl eigenvalues of every n' >= n,
    for n >= 2 (an integer or integer array): the least of n / a (series I),
    (n + 2 a^2 - 2) / a (II) and w - a = |a - w| < a + w (III, IV) at the
    least mu of the rows l >= 1 (n (n + 2) for a <= 1, the row l = 1 for
    a > 1), each at most the |value| of n it stands for in the table's float
    operations.  Each grows with n (mu by at least 6 per n, far above its
    rounding), so the bound is nondecreasing and below every |value| of n'."""
    import numpy as np

    mu = (a**-2 - 1) * (n - 2.0 if a > 1 else 0.0) ** 2 + n * (n + 2.0)
    return np.minimum(np.minimum(n, n + 2 * (a**2 - 1)) / a, np.sqrt(a**2 + mu) - a)


def completeness_bound(t: SpectrumTable) -> float:
    """Largest lambda for which the table certifiably lists all eigenvalues."""
    if t.kind != "curl":
        raise ValueError("completeness bound applies to curl tables")
    return float(_least_abs(t.a, t.n_max + 1))


def _counts(t: SpectrumTable, lam: float) -> tuple[int, int]:
    """Multiplicity-weighted counts of eigenvalues in (0, lam) and in
    (-lam, 0), in one pass over the pairs; a - w is the only negative one."""
    if not math.isfinite(lam):
        raise ValueError(f"lambda must not be NaN or infinite, got {lam}")
    bound = completeness_bound(t)
    if lam > bound:
        raise ValueError(
            f"lambda {lam} exceeds the completeness bound {bound}; increase n_max"
        )
    plus = minus = 0
    q = _Quanta(t.a, t.n_max)
    for n0, n1 in _runs("laplacian", 2, t.n_max):
        _, mults, w, first, one_two, one_two_mults = _pair_block(q, n0, n1)
        mults[first] = 0  # series I and II take the places of these pairs
        plus += int(one_two_mults[(0 < one_two) & (one_two < lam)].sum())
        plus += int(mults[t.a + w < lam].sum())
        minus += int(mults[(t.a < w) & (w - t.a < lam)].sum())
    return plus, minus


def counting_function(t: SpectrumTable, lam: float, sign: int) -> int:
    """Multiplicity-weighted count of eigenvalues with 0 < sign*value < lam."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _counts(t, lam)[sign == -1]


def weyl_check(p: BergerParams, lam: float) -> dict:
    """Counting function against the leading Weyl asymptotics.

    The expected count is Vol * lam^3 / (6 pi^2) with Vol = 2 pi^2 a, so the
    reported ratio is N(lam) * 3 / (a lam^3); the deviation from 1 is
    expected to decay like 1/lam.  The spectrum is truncated at the first
    n_max >= 2 whose ``_least_abs`` reaches lam (one n more than the counts
    need), at most ceil(a lam) + ceil(2 lam) + 10 and refused above MAX_NMAX.
    """
    import numpy as np

    a = p.a_float
    try:
        a_lam3 = a * lam**3
    except OverflowError:
        a_lam3 = math.inf
    if not (math.isfinite(lam) and lam > 0 and 0 < a_lam3 < math.inf):
        raise ValueError(
            f"lambda must be > 0 with a * lambda**3 a finite non-zero float, got {lam}"
        )
    n_max = int(math.ceil(a * lam)) + int(math.ceil(2 * lam)) + 10
    n = np.arange(2, min(n_max, MAX_NMAX + 1) + 1)
    low = _least_abs(a, n)
    n_max = int(n[np.searchsorted(low, lam)]) if low[-1] >= lam else n_max
    n_plus, n_minus = _counts(curl_spectrum(p, n_max), lam)
    ratio_plus, ratio_minus = n_plus * 3 / a_lam3, n_minus * 3 / a_lam3
    return {
        "lambda": lam,
        "n_plus": n_plus,
        "n_minus": n_minus,
        "ratio_plus": ratio_plus,
        "ratio_minus": ratio_minus,
        "deviation_plus": abs(ratio_plus - 1),
        "deviation_minus": abs(ratio_minus - 1),
        "expected_scale": 1 / lam,
    }


def _check_s(s: float, lower: int, what: str) -> None:
    if not (math.isfinite(s) and s > lower):
        raise ValueError(f"s must be finite and > {lower} for {what}, got {s}")


def _extracted(r: np.ndarray, top: float, low: float = 0.0, q=None) -> int:
    """The sum of the finite terms r times 2**_TINY; top = max |r|, low = min |r|;
    q, if given, a scratch array of r's shape whose values are overwritten.

    Error-free extraction: with 2**m >= r.size + 2 and 2**e > top, the
    terms q = (r + sigma) - sigma for sigma = 2**(e + m) are multiples of
    2**(e + m - 53) at most 2**e in absolute value, so the float sum of q
    and each of its partial sums is exact in any order, and so is r - q,
    whose terms are at most 2**(e + m - 53).  Each level extracts the next
    bits until r is zero, or until r - q sums exactly: with 2**(f - 1) <= low
    < 2**f, each r, q and r - q is a multiple of 2**max(f - 53, -1074), so the
    partial sums of r - q, below 2**(e + 2m - 53), are floats if that <= 2**f.
    """
    import numpy as np

    m = (r.size + 1).bit_length()
    total = 0
    if top >= 2.0 ** (1023 - m):
        # sigma would overflow: the terms of at least 1 are extracted
        # scaled by 2**-_SHIFT, which is exact for them.
        big = np.abs(r) >= 1.0
        total += _extracted(r[big] * 2.0**-_SHIFT, top * 2.0**-_SHIFT) << _SHIFT
        r = np.where(big, 0.0, r)
        top = float(np.abs(r).max())
    q = np.empty_like(r) if q is None else q
    rest = None  # r - q, written over itself after the first level
    while top:
        e = math.frexp(top)[1]
        sigma = math.ldexp(1.0, e + m)
        np.add(r, sigma, out=q)
        q -= sigma
        num, den = float(q.sum()).as_integer_ratio()  # den divides 2**_TINY
        total += (num << _TINY) // den
        r = rest = np.subtract(r, q, out=rest)
        if low and math.frexp(low)[1] >= e + 2 * m - 53:
            num, den = float(r.sum()).as_integer_ratio()
            return total + (num << _TINY) // den
        top = max(float(r.max()), -float(r.min()))
    return total


def _exact_sums(chunks: Iterable[tuple], *whats: str) -> list[tuple[float, float]]:
    """Per ``whats`` entry i, in one pass over the chunks (tuples of term
    arrays): the correctly rounded sum of the terms i (the float
    ``math.fsum`` returns) and the float sum of the chunks' sums of their
    absolute values, whose last bits depend on the chunking.

    Each term array is split by error-free extraction (``_extracted``) into
    a few levels whose float sums are exact; the levels of every chunk are
    added in one Python integer, the sum times 2**_TINY, which is divided
    once.  ValueError for the first sum whose terms or total are not all
    finite.
    """
    import numpy as np

    totals, sizes = [0] * len(whats), [0.0] * len(whats)
    scratch = np.empty(0)  # |x|, then _extracted's q
    with np.errstate(all="ignore"):
        for terms in chunks:
            for i, x in enumerate(terms):
                if scratch.size < x.size:
                    scratch = np.empty(x.size)
                magnitudes = np.abs(x, out=scratch[: x.size])
                size = float(magnitudes.sum())
                # A non-finite term makes size non-finite; so can an overflow.
                if not math.isfinite(size) and not np.isfinite(x).all():
                    size = math.nan  # marks the sum as not finite
                sizes[i] += size
                if not math.isnan(sizes[i]):
                    top = float(magnitudes.max(initial=0.0))
                    low = float(magnitudes.min(initial=math.inf))
                    totals[i] += _extracted(x, top, low, magnitudes)
    sums = []
    for total, size, what in zip(totals, sizes, whats):
        try:
            sums.append((total / (1 << _TINY), size))
        except OverflowError:
            size = math.nan
        if math.isnan(size):
            raise ValueError(f"{what} is not a finite float")
    return sums


def _negative_power(v: np.ndarray, s: float, out: np.ndarray) -> np.ndarray:
    """out = v^-s elementwise, returned; v may be overwritten (by its root).

    When 2 s is an integer 2 k + h in 4 .. _MAX_TWICE_S (h = 0 or 1), only
    IEEE 754's correctly rounded *, / and sqrt are used, in this order, so
    the bits do not depend on the CPU or on numpy's SIMD dispatch:
    v^k by left-to-right binary powering (start from v, then per bit of k
    after the leading one: square, and multiply by v if the bit is 1); times
    sqrt(v) if h = 1; then 1 / (...).  Each step rounds once and a squaring
    doubles the relative error it is given, so v^k is within (k - 1) u of
    exact (u = 2^-53) and the result within (k + 2) u, less than k + 2 ulp,
    of v^-s unless v^k overflows or underflows.  Any other s takes numpy's
    ``v ** -s``.
    """
    import numpy as np

    twice = 2 * s
    if not (4 <= twice <= _MAX_TWICE_S and twice == int(twice)):
        return np.power(v, -s, out=out)
    k, half = divmod(int(twice), 2)
    power = v  # then out, from the first squaring on (k >= 2 has one)
    for bit in bin(k)[3:]:
        power = np.multiply(power, power, out=out)
        if bit == "1":
            out *= v
    if half:
        out *= np.sqrt(v, out=v)
    return np.divide(1.0, out, out=out)


def _powers(a: float, s: float, n_max: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Per run of the Laplacian rows 1 <= n <= n_max (mu > 0): mu, w, the
    multiplicities m, the theta brackets x - y of x = (w + a)^-s and
    y = (w - a)^-s, and the run's curl terms sign(v) m |v|^-s in one array:
    m x, then -m y, of the pairs a + w, a - w of the rows of n >= 2, where
    series I and II take the places of the pairs of the rows l = 0.

    Every power is taken by ``_negative_power``.  w +- a, the powers and the
    brackets are written into two flat buffers of the call, each run a
    contiguous (2, rows) view, so a run's brackets and curl terms hold only
    until the next run is drawn."""
    import numpy as np

    _check_nmax(n_max, 0)
    q, shift = _Quanta(a, n_max), np.array([[a], [-a]])
    series = _negative_power(q.one_two.copy(), s, np.empty_like(q.one_two))
    series *= q.one_two_mults  # m |v|^-s of series I, II
    size = 2 * max(CHUNK_ROWS, n_max // 2 + 1)  # rows of the largest run, doubled
    powers, scratch = np.empty(size), np.empty(size)
    for n0, n1 in _runs("laplacian", 1, n_max):
        mu, mults, w, first = _pair_block(q, n0, n1)[:4]
        base = np.add(w, shift, out=scratch[: 2 * w.size].reshape(2, -1))
        xy = _negative_power(base, s, powers[: 2 * w.size].reshape(2, -1))
        bracket = np.subtract(xy[0], xy[1], out=base[0])
        skip = int(n0 == 1)  # n = 1 has one row, l = 0, and no curl terms
        curl = xy[:, skip:]
        curl *= mults[skip:]
        np.negative(curl[1], out=curl[1])
        curl[:, first - skip] = series[max(n0, 2) - 2 : n1 - 2].T
        yield mu, w, mults, bracket, curl.ravel()


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1 by direct sum plus Euler-Maclaurin tail.

    With 200 direct terms the first omitted Euler-Maclaurin correction is
    below 1e-12 for every s >= 2.
    """
    if s <= 1:
        raise ValueError("direct evaluation requires s > 1")
    m = 200
    direct = math.fsum(k**-s for k in range(1, m + 1))
    tail = m ** (1 - s) / (s - 1) - 0.5 * m**-s
    tail += s * m ** (-s - 1) / 12
    tail -= s * (s + 1) * (s + 2) * m ** (-s - 3) / 720
    tail += s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * m ** (-s - 5) / 30240
    return direct + tail


def eta_identity(p: BergerParams, s: float, n_max: int) -> tuple[float, float, float]:
    """Both sides of the eta decomposition identity and their rounding bound.

    Returns (eta partial sum, right-hand side, bound).  The bound is 2^-52
    times the larger of the two sums of the absolute values of the terms
    summed into one side: at large s the terms reach ~a^s and cancel, and a
    residual below the bound says nothing about the identity.

    Both are summed in one pass over the Laplacian rows (``_powers``):
    the curl terms of each run and its theta brackets times multiplicity.
    """
    import numpy as np

    _check_nmax(n_max, 2)
    _check_s(s, 3, "eta partial sums")
    a = p.a_float
    runs = _powers(a, s, n_max)
    (eta, eta_size), (theta, theta_size) = _exact_sums(
        ((curl, np.multiply(m, b, out=b)) for *_, m, b, curl in runs),
        f"the eta partial sum at a={a}, s={s}",
        f"the theta sum at a={a}, s={s}",
    )
    try:
        head, tail = (2 * a) ** -s, 4 * a**s * zeta(s - 1)
        rhs = theta + head + tail
    except OverflowError:
        rhs = math.inf
    if not math.isfinite(rhs):
        raise ValueError(f"the eta decomposition at a={a}, s={s} is not a finite float")
    return eta, rhs, 2.0**-52 * max(eta_size, theta_size + (head + tail))


def eta_closed_forms(p: BergerParams) -> dict:
    """Exact rational closed forms of the eta data at s = 0.

    Asserts the decomposition identity at s = 0 with zeta(-1) = -1/12 and
    the proportionality between the curl and Dirac eta invariants.
    """
    a = p.a_exact
    eta0 = Fraction(2, 3) * (a**2 - 1) ** 2
    theta0 = Fraction(2, 3) * a**2 * (a**2 - 2)
    dirac_eta0 = -Fraction(1, 6) * (a**2 - 1) ** 2
    assert eta0 == theta0 + 1 + 4 * Fraction(-1, 12)
    assert eta0 == -4 * dirac_eta0
    return {"eta0": eta0, "theta0": theta0, "dirac_eta0": dirac_eta0}


def hitchin_remainder(p: BergerParams, s: float, n_max: int) -> float:
    """Largest scaled remainder of the three-term large-eigenvalue expansion.

    For each positive Laplacian eigenvalue mu the theta bracket behaves like
    -2 s a w^{-(s+1)} - (s(s+1)(s+2)/3) a^3 w^{-(s+3)} + O(w^{-(s+5)}) with
    w = sqrt(a^2 + mu); for s > -1 the remainder times mu^2 must stay
    bounded, and a NaN remainder is returned as NaN.
    """
    import numpy as np

    _check_s(s, -1, "the Hitchin remainder")
    a = p.a_float
    worst = 0.0
    for mu, w, _, bracket, _ in _powers(a, s, n_max):
        low = _negative_power(w.copy(), s + 1, np.empty_like(w))
        high = _negative_power(w, s + 3, np.empty_like(w))  # w is not read again
        expansion = -2 * s * a * low
        expansion -= s * (s + 1) * (s + 2) / 3 * a**3 * high
        scaled = abs(bracket - expansion) * mu**2
        worst = float(scaled.max(initial=worst))
    return worst
