"""Exact arithmetic kernel: Gaussian rationals and truncated multivariate polynomials.

Every symbolic quantity in this package is a polynomial in the six variables

    x1, x2, x3, e1, e2, e3

(three base-point coordinates and three covector increments around the anchor
covector), truncated by joint total degree.  Coefficients are Gaussian
rationals, i.e. complex numbers with exact rational real and imaginary parts,
so all symbolic results are bit-exact.

A TruncatedPoly is an integer polynomial over one positive common
denominator (as in FLINT's fmpq_poly): a map from a packed exponent key to
the numerator pair (re, im) of each non-zero coefficient.  A key is the total
degree followed by one base-8 digit per variable (packed exponent vectors,
Monagan & Pearce 2007), so a monomial product is one integer addition and a
degree bound one comparison.  Each operation ends in one gcd normalisation,
so equal values have equal representations.  Values are immutable.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable, Iterator


def rat(value: object = 0, den: object = None) -> Fraction:
    """Coerce to the exact rational type."""
    return Fraction(value) if den is None else Fraction(value, den)


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)`` with a bounded decimal exponent.

    Fraction expands "1e999999999" into an integer of a billion digits.  An
    exponent of magnitude above Python's own limit for parsing integers
    (``sys.get_int_max_str_digits()``, 4300 by default) is refused instead.
    """
    _, e, exponent = text.lower().partition("e")
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    try:
        too_large = bool(e) and abs(int(exponent)) > limit
    except ValueError:
        too_large = False  # not a decimal exponent: Fraction reports it
    if too_large:
        raise ValueError(f"decimal exponent of {text!r} exceeds {limit} in magnitude")
    return Fraction(text)


NUM_VARS = 6
VAR_NAMES = ("x1", "x2", "x3", "e1", "e2", "e3")
#: Variable indices: base coordinates x1..x3 and covector increments e1..e3.
X1, X2, X3, E1, E2, E3 = range(6)
X_VARS = (X1, X2, X3)
ETA_VARS = (E1, E2, E3)
#: Largest truncation order: every exponent must fit one base-8 digit.
MAX_ORDER = 7

Exponent = tuple

_ZERO_EXP = (0,) * NUM_VARS
_DEG_SHIFT = 3 * NUM_VARS
_EXP_MASK = (1 << _DEG_SHIFT) - 1
_SHIFTS = tuple(3 * (NUM_VARS - 1 - v) for v in range(NUM_VARS))


def _pack(exp: Iterable[int]) -> int | None:
    """Key of an exponent tuple; None if it has none."""
    exp = tuple(exp)
    if len(exp) != NUM_VARS or not all(0 <= e <= MAX_ORDER for e in exp):
        return None
    key = sum(exp)
    for e in exp:
        key = key << 3 | e
    return key


def _unpack(key: int) -> Exponent:
    return tuple(key >> s & 7 for s in _SHIFTS)


def _qstr(num: int, den: int) -> str:
    """str(rat(num, den)), computed on the integers."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


# The exact value types declare __slots__ themselves: dataclass(slots=True)
# rebuilds the class, and on Python 3.11 the frozen __setattr__ of the rebuilt
# class raises TypeError, not AttributeError, for a name that is not a field.


@dataclass(frozen=True, init=False, eq=False, repr=False)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")
    re: Fraction
    im: Fraction

    def __init__(self, re: object = 0, im: object = 0) -> None:
        object.__setattr__(self, "re", rat(re))
        object.__setattr__(self, "im", rat(im))

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: object) -> "GaussianRational":
        return _coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: object) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "GaussianRational":
        other = _coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparison and display ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im}i)"

    def __str__(self) -> str:
        """"p/q" when real, else "p/q+p/qi" or "p/q-p/qi"."""
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im > 0 else ''}{self.im}i"


def _coerce(value: object) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


def _split(value: object) -> tuple:
    """Integers (re, im, den) with value == (re + i*im) / den and den > 0."""
    c = _coerce(value)
    r, i = c.re, c.im
    den = lcm(r.denominator, i.denominator)
    return r.numerator * den // r.denominator, i.numerator * den // i.denominator, den


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class _Terms(Mapping):
    """Read-only decoded view of a TruncatedPoly: exponent -> GaussianRational."""

    __slots__ = ("_p",)

    def __init__(self, p: "TruncatedPoly") -> None:
        self._p = p

    def __len__(self) -> int:
        return len(self._p._num)

    def __iter__(self) -> Iterator[Exponent]:
        return map(_unpack, self._p._num)

    def __getitem__(self, exp: Exponent) -> GaussianRational:
        re, im = self._p._num[_pack(exp)]
        return GaussianRational(Fraction(re, self._p.den), Fraction(im, self._p.den))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class TruncatedPoly:
    """A polynomial in six variables truncated by joint total degree.

    Invariants: every stored key has total degree <= order, no stored
    numerator pair is (0, 0), and den is positive and coprime to the
    numerators jointly (den == 1 for zero), so equal values have equal
    representations.
    """

    __slots__ = ("order", "den", "_num")
    order: int
    den: int
    _num: dict

    def __init__(self, order: int, terms: Mapping | None = None) -> None:
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"truncation order must be in 0..{MAX_ORDER}: {order}")
        coeffs = {}
        for exp, coeff in (terms or {}).items():
            coeff = _coerce(coeff)
            if coeff.is_zero():
                continue
            if len(exp) != NUM_VARS or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp!r}")
            if sum(exp) <= order:
                coeffs[_pack(exp)] = _split(coeff)
        den = lcm(*(d for _, _, d in coeffs.values()))
        num = {k: (re * den // d, im * den // d) for k, (re, im, d) in coeffs.items()}
        _poly(order, den, num, self)

    @property
    def terms(self) -> Mapping:
        return _Terms(self)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(order: int) -> "TruncatedPoly":
        return TruncatedPoly(order)

    @staticmethod
    def constant(value: object, order: int) -> "TruncatedPoly":
        return TruncatedPoly(order, {_ZERO_EXP: value})

    @staticmethod
    def variable(var: int, order: int, coeff: object = 1) -> "TruncatedPoly":
        if not 0 <= var < NUM_VARS:
            raise ValueError(f"variable index out of range: {var}")
        exp = tuple(int(v == var) for v in range(NUM_VARS))
        return TruncatedPoly(order, {exp: coeff})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def constant_term(self) -> GaussianRational:
        return self.coefficient(_ZERO_EXP)

    def coefficient(self, exp: Iterable[int]) -> GaussianRational:
        return self.terms.get(tuple(exp), GR_ZERO)

    def restrict(self, zero_vars: Iterable[int]) -> "TruncatedPoly":
        """Set the given variables to zero, keeping the truncation order."""
        mask = sum(7 << _SHIFTS[v] for v in set(zero_vars))
        kept = {k: c for k, c in self._num.items() if not k & mask}
        return _poly(self.order, self.den, kept)

    def truncate(self, order: int) -> "TruncatedPoly":
        """Drop all terms of total degree > order and lower the bound."""
        if order == self.order:
            return self
        if not 0 <= order < self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        limit = (order + 1) << _DEG_SHIFT
        kept = {k: c for k, c in self._num.items() if k < limit}
        return _poly(order, self.den, kept)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        return poly_add(self, other)

    def __sub__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        return poly_add(self, other.__neg__())

    def __neg__(self) -> "TruncatedPoly":
        neg = {k: (-re, -im) for k, (re, im) in self._num.items()}
        return _poly(self.order, self.den, neg, reduce=False)

    def scale(self, value: object) -> "TruncatedPoly":
        a, b, d = _split(value)
        if not (a or b):
            return TruncatedPoly(self.order)
        num = {k: (x * a - y * b, x * b + y * a) for k, (x, y) in self._num.items()}
        return _poly(self.order, self.den * d, num)

    def conjugate(self) -> "TruncatedPoly":
        conj = {k: (re, -im) for k, (re, im) in self._num.items()}
        return _poly(self.order, self.den, conj, reduce=False)

    # -- comparison and display ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        same = self.order == other.order and self.den == other.den
        return same and self._num == other._num

    def __hash__(self) -> int:
        return hash((self.order, self.den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        parts = []
        for exp, coeff in sorted(self.terms.items()):
            mono = "*".join(
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(VAR_NAMES, exp)
                if e
            )
            parts.append(f"({coeff!r}){'*' + mono if mono else ''}")
        return f"TruncatedPoly({' + '.join(parts) or 0}; order {self.order})"


_new = object.__new__
_set = object.__setattr__


def _poly(order, den, num, out=None, reduce=True) -> TruncatedPoly:
    """The poly num / den (stored into ``out`` if given); num has no (0, 0).

    Unless ``reduce`` is false (den is known to be coprime to the numerators
    already), the gcd of den and every numerator is divided out.
    """
    if reduce and den != 1:
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            den //= g
            num = {k: (re // g, im // g) for k, (re, im) in num.items()}
    p = _new(TruncatedPoly) if out is None else out
    _set(p, "order", order)
    _set(p, "den", den)
    _set(p, "_num", num)
    return p


def poly_from_monomials(order: int, terms: Iterable[tuple]) -> TruncatedPoly:
    """Sum of coeff * x_{v1} ... x_{vk} over (coeff, (v1, ..., vk)) pairs.

    Variable indices may repeat (a square is (v, v)); monomials above the
    order are dropped.
    """
    coeffs: dict = {}
    for coeff, variables in terms:
        if coeff:
            exp = [0] * NUM_VARS
            for v in variables:
                exp[v] += 1
            exp = tuple(exp)
            coeffs[exp] = coeffs.get(exp, 0) + coeff
    return TruncatedPoly(order, coeffs)


def poly_add(a: TruncatedPoly, b: TruncatedPoly) -> TruncatedPoly:
    """Exact sum; the result carries order min(a.order, b.order)."""
    order = min(a.order, b.order)
    limit = (order + 1) << _DEG_SHIFT
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    out = {k: (re * fa, im * fa) for k, (re, im) in a._num.items() if k < limit}
    get = out.get
    for k, (re, im) in b._num.items():
        if k < limit:
            acc = get(k, (0, 0))
            out[k] = (acc[0] + re * fb, acc[1] + im * fb)
    return _poly(order, den, {k: c for k, c in out.items() if c[0] or c[1]})


def poly_mul(a: TruncatedPoly, b: TruncatedPoly) -> TruncatedPoly:
    """Exact product with terms above min(a.order, b.order) discarded.

    A key sum can carry out of an exponent digit only when that exponent
    exceeds 7, which needs total degree > 7 >= order; a carry only raises
    the degree field, so such products are discarded all the same.
    """
    order = min(a.order, b.order)
    limit = (order + 1) << _DEG_SHIFT
    # Sorted keys ascend in total degree, so each row stops at the first
    # product above the order.
    b_terms = sorted(b._num.items())
    out: dict = {}
    get = out.get
    for ka, (ar, ai) in a._num.items():
        for kb, (br, bi) in b_terms:
            k = ka + kb
            if k >= limit:
                break
            acc = get(k)
            if acc is None:
                out[k] = (ar * br - ai * bi, ar * bi + ai * br)
            else:
                out[k] = (acc[0] + ar * br - ai * bi, acc[1] + ar * bi + ai * br)
    return _poly(order, a.den * b.den, {k: c for k, c in out.items() if c[0] or c[1]})


def poly_diff(a: TruncatedPoly, var: int) -> TruncatedPoly:
    """Formal partial derivative; lowers the truncation order by one.

    A polynomial known up to degree k determines its derivative only up to
    degree k - 1, so differentiating an order-0 value is an error.
    """
    if not 0 <= var < NUM_VARS:
        raise ValueError(f"variable index out of range: {var}")
    if a.order < 1:
        raise ValueError("cannot differentiate a poly of truncation order 0")
    shift = _SHIFTS[var]
    step = (1 << _DEG_SHIFT) + (1 << shift)
    out = {}
    for k, (re, im) in a._num.items():
        e = k >> shift & 7
        if e:
            out[k - step] = (re * e, im * e)
    return _poly(a.order - 1, a.den, out)


def binomial_power_jet(u: TruncatedPoly, r: object) -> TruncatedPoly:
    """Jet of (1 + u)^r for rational r, where u has zero constant term.

    Returns sum over k of C(r, k) u^k up to u's truncation order, with
    generalized binomial coefficients computed exactly.
    """
    if not u.constant_term().is_zero():
        raise ValueError("binomial_power_jet requires a zero constant term")
    r = rat(r)
    order = u.order
    result = TruncatedPoly.constant(1, order)
    if u.is_zero():
        return result
    coeff = rat(1)
    power = TruncatedPoly.constant(1, order)
    for k in range(1, order + 1):
        coeff = coeff * (r - (k - 1)) / k
        if coeff == 0:
            break
        power = poly_mul(power, u)
        if power.is_zero():
            break
        result = poly_add(result, power.scale(coeff))
    return result


# -- serialization --------------------------------------------------------


def poly_to_dict(p: TruncatedPoly) -> dict:
    """JSON-ready form with terms sorted lexicographically by exponent."""
    den, terms = p.den, sorted(p._num.items(), key=lambda kc: kc[0] & _EXP_MASK)
    return {
        "order": p.order,
        "terms": [
            {"exp": list(_unpack(k)), "re": _qstr(re, den), "im": _qstr(im, den)}
            for k, (re, im) in terms
        ],
    }


def poly_from_dict(data: Mapping) -> TruncatedPoly:
    terms = {}
    for entry in data["terms"]:
        exp = tuple(int(e) for e in entry["exp"])
        terms[exp] = GaussianRational(entry["re"], entry["im"])
    return TruncatedPoly(int(data["order"]), terms)


def poly_dumps(p: TruncatedPoly) -> str:
    return json.dumps(poly_to_dict(p), separators=(",", ":"))


def poly_loads(text: str) -> TruncatedPoly:
    return poly_from_dict(json.loads(text))


def iter_exponents(order: int) -> Iterator[Exponent]:
    """All exponent tuples of total degree <= order, lexicographic order."""
    for exp in product(range(order + 1), repeat=NUM_VARS):
        if sum(exp) <= order:
            yield exp
