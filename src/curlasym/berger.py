"""Spectral numerics on Berger 3-spheres.

The Berger sphere squashes the round 3-sphere along the Hopf fibre by a
parameter a > 0.  Both the Laplace-Beltrami spectrum and the curl spectrum
are known in closed form, which makes the sphere a complete numerical test
bed: eigenvalue counting against the Weyl law, partial eta sums against the
eta decomposition identity, and exact rational closed forms for the eta
invariant at s = 0.

Spectra are never stored: a table is a (kind, a, n_max) record that yields
one block of eigenvalues and multiplicities per quantum number n, so every
reduction runs in O(n_max) memory.  Float sums use ``math.fsum``, which is
correctly rounded and therefore independent of summation order.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

#: Reference constants used to validate the zeta evaluator at runtime.
ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263
#: Largest spectrum weyl_check builds on its own; the work grows as n_max^2
#: (about 1.5 s at this bound on a 2-core machine).
WEYL_MAX_NMAX = 10_000


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


def _laplacian_block(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian eigenvalues and multiplicities at quantum number n, by l."""
    l = np.arange(n // 2 + 1)
    values = n * (n + 2) + (a**-2 - 1) * (n - 2 * l) ** 2
    mults = np.full(l.size, 2 * n + 2)
    if n % 2 == 0:
        mults[-1] = n + 1
    return values, mults


def _curl_block(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Curl eigenvalues and multiplicities at quantum number n >= 2.

    Rows are series I, II, then III and IV interleaved for l = 1 .. n // 2.
    """
    lap, lap_mults = _laplacian_block(a, n)
    root = np.sqrt(a**2 + lap[1:])
    values = np.empty(2 + 2 * root.size)
    values[0] = n / a
    values[1] = (n + 2 * (a**2 - 1)) / a
    values[2::2] = a + root
    values[3::2] = a - root
    mults = np.empty(values.size, dtype=np.int64)
    mults[0] = 2 * n - 2
    mults[1] = 1 if n == 2 else 2 * n - 2
    mults[2::2] = lap_mults[1:]
    mults[3::2] = lap_mults[1:]
    return values, mults


def _row_labels(kind: str, n: int) -> Iterator[tuple[str, int]]:
    """(series, l) of each row of the block at n, in block order."""
    if kind == "laplacian":
        yield from (("LAPLACE", l) for l in range(n // 2 + 1))
        return
    yield "I", 0
    yield "II", 0
    for l in range(1, n // 2 + 1):
        yield "III", l
        yield "IV", l


class _Entries:
    """Read-only view of a table's rows as ``SpectrumEntry`` objects."""

    __slots__ = ("_table",)

    def __init__(self, table: SpectrumTable) -> None:
        self._table = table

    def __len__(self) -> int:
        # Rows per n: n // 2 + 1 (Laplacian) or 2 + 2 * (n // 2) (curl);
        # sum_{n <= N} n // 2 = (N // 2) * ((N + 1) // 2).
        n = self._table.n_max
        halves = (n // 2) * ((n + 1) // 2)
        if self._table.kind == "curl":
            return 2 * (n - 1) + 2 * halves
        return n + 1 + halves

    def __iter__(self) -> Iterator[SpectrumEntry]:
        kind = self._table.kind
        for n, values, mults in self._table.blocks():
            for (series, l), v, m in zip(
                _row_labels(kind, n), values.tolist(), mults.tolist()
            ):
                yield SpectrumEntry(series, n, l, v, m)


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalues grouped by (series, n, l) with multiplicity weights.

    The rows are produced on demand, one block per quantum number n.
    """

    kind: str
    a: float
    n_max: int

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(n, values, multiplicities) for each quantum number in order."""
        if self.kind == "curl":
            block, first = _curl_block, 2
        else:
            block, first = _laplacian_block, 0
        for n in range(first, self.n_max + 1):
            yield (n, *block(self.a, n))

    @property
    def entries(self) -> _Entries:
        return _Entries(self)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("series,n,l,value,multiplicity\n")
        for e in self.entries:
            buf.write(
                f"{e.series},{e.n},{e.l},{e.value!r},{e.multiplicity}\n"
            )
        return buf.getvalue()


def laplacian_spectrum(p: BergerParams, n_max: int) -> SpectrumTable:
    """Laplace-Beltrami eigenvalues on 0-forms up to quantum number n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return SpectrumTable("laplacian", p.a_float, n_max)


def curl_spectrum(p: BergerParams, n_max: int) -> SpectrumTable:
    """Curl eigenvalues on coclosed 1-forms up to quantum number n_max.

    Four series: I and II positive, III positive, IV negative; zero never
    occurs for any a > 0.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    return SpectrumTable("curl", p.a_float, n_max)


def completeness_bound(t: SpectrumTable) -> float:
    """Largest lambda for which the table certifiably lists all eigenvalues.

    Every series has |value| nondecreasing in n at fixed l-optimum, so the
    smallest absolute value among the first omitted quantum number n_max + 1
    bounds the certified window.
    """
    if t.kind != "curl":
        raise ValueError("completeness bound applies to curl tables")
    values, _ = _curl_block(t.a, t.n_max + 1)
    return float(np.abs(values).min())


def counting_function(t: SpectrumTable, lam: float, sign: int) -> int:
    """Multiplicity-weighted count of eigenvalues with 0 < sign*value < lam."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if lam <= 0:
        return 0
    bound = completeness_bound(t)
    if lam > bound:
        raise ValueError(
            f"lambda {lam} exceeds the completeness bound {bound}; "
            "increase n_max"
        )
    total = 0
    for _, values, mults in t.blocks():
        v = sign * values
        total += int(mults[(0 < v) & (v < lam)].sum())
    return total


def weyl_check(p: BergerParams, lam: float, n_max: int | None = None) -> dict:
    """Counting function against the leading Weyl asymptotics.

    The expected count is Vol * lam^3 / (6 pi^2) with Vol = 2 pi^2 a, so the
    reported ratio is N(lam) * 3 / (a lam^3); the deviation from 1 is
    expected to decay like 1/lam.
    """
    a = p.a_float
    try:
        a_lam3 = a * lam**3
    except OverflowError:
        a_lam3 = math.inf
    if not (math.isfinite(lam) and lam > 0 and 0 < a_lam3 < math.inf):
        raise ValueError(
            f"lambda must be > 0 with a * lambda**3 a finite non-zero float, got {lam}"
        )
    if n_max is None:
        n_max = int(math.ceil(a * lam)) + int(math.ceil(2 * lam)) + 10
        if n_max > WEYL_MAX_NMAX:
            raise ValueError(
                f"lambda {lam} at a={a} needs n_max {n_max:.4g} > {WEYL_MAX_NMAX}"
            )
    t = curl_spectrum(p, n_max)
    n_plus = counting_function(t, lam, 1)
    n_minus = counting_function(t, lam, -1)
    ratio_plus = n_plus * 3 / a_lam3
    ratio_minus = n_minus * 3 / a_lam3
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


def _eta_terms(t: SpectrumTable, s: float) -> Iterator[np.ndarray]:
    """sign(v) * multiplicity * |v|^-s, one array per block."""
    for _, values, mults in t.blocks():
        yield np.copysign(mults, values) * np.abs(values) ** -s


def _finite_fsum(blocks: Iterator[np.ndarray], what: str) -> tuple[float, float]:
    """math.fsum over the blocks, and the sum of the absolute values.

    ValueError unless the fsum is a finite float.
    """
    magnitude = 0.0

    def lists() -> Iterator[list[float]]:
        nonlocal magnitude
        for block in blocks:
            magnitude += float(np.abs(block).sum())
            yield block.tolist()

    with np.errstate(all="ignore"):
        try:
            total = math.fsum(itertools.chain.from_iterable(lists()))
        except (OverflowError, ValueError):
            total = math.nan
    if not math.isfinite(total):
        raise ValueError(f"{what} is not a finite float")
    return total, magnitude


def _eta_sum(t: SpectrumTable, s: float) -> tuple[float, float]:
    _check_s(s, 3, "eta partial sums")
    return _finite_fsum(_eta_terms(t, s), f"the eta partial sum at a={t.a}, s={s}")


def eta_partial(t: SpectrumTable, s: float) -> float:
    """Partial eta sum over the table, correctly rounded."""
    return _eta_sum(t, s)[0]


def zeta(s: float, terms: int = 200) -> float:
    """Riemann zeta for real s > 1 by direct sum plus Euler-Maclaurin tail.

    With 200 direct terms the first omitted Euler-Maclaurin correction is
    below 1e-12 for every s >= 2.
    """
    if s <= 1:
        raise ValueError("direct evaluation requires s > 1")
    m = terms
    direct = math.fsum(k**-s for k in range(1, m + 1))
    tail = m ** (1 - s) / (s - 1) - 0.5 * m**-s
    tail += s * m ** (-s - 1) / 12
    tail -= s * (s + 1) * (s + 2) * m ** (-s - 3) / 720
    tail += s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * m ** (-s - 5) / 30240
    return direct + tail


def _positive_laplacian(
    p: BergerParams, n_max: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(mu, multiplicity) arrays of the positive eigenvalues, per block."""
    for _, values, mults in laplacian_spectrum(p, n_max).blocks():
        keep = values > 0
        yield values[keep], mults[keep]


def _theta_terms(p: BergerParams, s: float, n_max: int) -> Iterator[np.ndarray]:
    """Theta brackets weighted by multiplicity, one array per block."""
    a = p.a_float
    for mu, mults in _positive_laplacian(p, n_max):
        w = np.sqrt(a**2 + mu)
        yield mults * ((w + a) ** -s - (w - a) ** -s)


def _theta_sum(p: BergerParams, s: float, n_max: int) -> tuple[float, float]:
    return _finite_fsum(
        _theta_terms(p, s, n_max), f"the theta sum at a={p.a_float}, s={s}"
    )


def theta_partial(p: BergerParams, s: float, n_max: int) -> float:
    """The Laplacian-indexed series of the eta decomposition."""
    return _theta_sum(p, s, n_max)[0]


def _rhs_sum(p: BergerParams, s: float, n_max: int) -> tuple[float, float]:
    _check_s(s, 2, "the decomposition")
    a = p.a_float
    theta, magnitude = _theta_sum(p, s, n_max)
    try:
        head, tail = (2 * a) ** -s, 4 * a**s * zeta(s - 1)
        rhs = theta + head + tail
    except OverflowError:
        rhs = math.inf
    if not math.isfinite(rhs):
        raise ValueError(f"the eta decomposition at a={a}, s={s} is not a finite float")
    return rhs, magnitude + head + tail


def eta_decomposition_rhs(p: BergerParams, s: float, n_max: int) -> float:
    """Right-hand side of the eta decomposition identity.

    theta(s) + (2a)^{-s} + 4 a^s zeta(s-1), with theta summed over the
    positive Laplacian eigenvalues of the same truncation.
    """
    return _rhs_sum(p, s, n_max)[0]


def eta_identity(p: BergerParams, s: float, n_max: int) -> tuple[float, float, float]:
    """Both sides of the eta decomposition identity and their rounding bound.

    Returns (eta partial sum, right-hand side, bound).  The bound is 2^-52
    times the larger of the two sums of the absolute values of the terms
    summed into one side: at large s the terms reach ~a^s and cancel, and a
    residual below the bound says nothing about the identity.
    """
    lhs, lhs_size = _eta_sum(curl_spectrum(p, n_max), s)
    rhs, rhs_size = _rhs_sum(p, s, n_max)
    return lhs, rhs, 2.0**-52 * max(lhs_size, rhs_size)


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
    w = sqrt(a^2 + mu); the remainder times mu^2 must stay bounded.
    """
    a = p.a_float
    worst = 0.0
    for mu, _ in _positive_laplacian(p, n_max):
        w = np.sqrt(a**2 + mu)
        bracket = (w + a) ** -s - (w - a) ** -s
        expansion = -2 * s * a * w ** -(s + 1)
        expansion -= s * (s + 1) * (s + 2) / 3 * a**3 * w ** -(s + 3)
        scaled = np.abs(bracket - expansion) * mu**2
        worst = max(worst, float(scaled.max(initial=0.0)))
    return worst
