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
so equal values have equal representations.  Values are immutable.  An
operation with a zero operand returns at once, without that pass: a sum
returns the other operand cut to the smaller order, a product or derivative
the zero of its order, and a negation, conjugate or scaling the zero itself.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator


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


def _key(exp: Iterable[int]) -> int | None:
    """Key of an exponent; None if an exponent digit exceeds MAX_ORDER, and
    ValueError unless exp is six non-negative integers."""
    exp = tuple(exp)
    if len(exp) != NUM_VARS or not all(isinstance(e, int) and e >= 0 for e in exp):
        raise ValueError(f"bad exponent tuple {exp!r}")
    if max(exp) > MAX_ORDER:
        return None
    key = sum(exp)
    for e in exp:
        key = key << 3 | e
    return key


def _unpack(key: int) -> Exponent:
    return tuple(key >> s & 7 for s in _SHIFTS)


def _qstr(num: int, den: int) -> str:
    """str(Fraction(num, den)), computed on the integers."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


# The exact value types declare __slots__ themselves: dataclass(slots=True)
# rebuilds the class, and on Python 3.11 the frozen __setattr__ of the rebuilt
# class raises TypeError, not AttributeError, for a name that is not a field.


@dataclass(frozen=True, init=False, eq=False, repr=False)
class GaussianRational:
    """The exact complex number (x + i*y) / den, den > 0, gcd(x, y, den) == 1.

    This is one TruncatedPoly term reduced on its own, so equal values have
    equal representations.  Floats are refused: they are binary fractions.
    """

    __slots__ = ("x", "y", "den")
    x: int
    y: int
    den: int

    def __init__(self, re: object = 0, im: object = 0) -> None:
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("floats are not exact: pass an int, Fraction or str")
        re, im = Fraction(re), Fraction(im)
        a, b = re.denominator, im.denominator
        _gr(re.numerator * b, im.numerator * a, a * b, self)

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.den)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.x or self.y)

    def is_real(self) -> bool:
        return not self.y

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: object) -> "GaussianRational":
        o, d = _coerce(other), self.den
        return _gr(self.x * o.den + o.x * d, self.y * o.den + o.y * d, d * o.den)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GaussianRational":
        o, d = _coerce(other), self.den
        return _gr(self.x * o.den - o.x * d, self.y * o.den - o.y * d, d * o.den)

    def __rsub__(self, other: object) -> "GaussianRational":
        return _coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return _gr(-self.x, -self.y, self.den)

    def __mul__(self, other: object) -> "GaussianRational":
        o, x, y = _coerce(other), self.x, self.y
        return _gr(x * o.x - y * o.y, x * o.y + y * o.x, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "GaussianRational":
        # (x + iy)/d / ((u + iv)/e) = e (x + iy)(u - iv) / (d (u^2 + v^2))
        o = _coerce(other)
        (x, y, d), (u, v, e) = (self.x, self.y, self.den), (o.x, o.y, o.den)
        norm = u * u + v * v
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _gr((x * u + y * v) * e, (y * u - x * v) * e, d * norm)

    def conjugate(self) -> "GaussianRational":
        return _gr(self.x, -self.y, self.den)

    # -- comparison and display ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (GaussianRational, int, Fraction)):
            o = _coerce(other)
            return self.x == o.x and self.y == o.y and self.den == o.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.den))

    def __repr__(self) -> str:
        re = _qstr(self.x, self.den)
        return f"GR({re}, {_qstr(self.y, self.den)}i)" if self.y else f"GR({re})"

    def __str__(self) -> str:
        """"p/q" when real, else "p/q+p/qi" or "p/q-p/qi"."""
        if not self.y:
            return _qstr(self.x, self.den)
        sign = "+" if self.y > 0 else ""
        return f"{_qstr(self.x, self.den)}{sign}{_qstr(self.y, self.den)}i"


_new = object.__new__
_set = object.__setattr__


def _gr(x: int, y: int, den: int, out=None) -> GaussianRational:
    """(x + i*y) / den for den > 0 in lowest terms (stored into ``out`` if given)."""
    g = gcd(x, y, den)
    c = _new(GaussianRational) if out is None else out
    _set(c, "x", x // g)
    _set(c, "y", y // g)
    _set(c, "den", den // g)
    return c


def _coerce(value: object) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return _gr(value.numerator, 0, value.denominator)
    return GaussianRational(value)


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
        coeff = coefficient_reader(exp)(self._p)
        if coeff.is_zero():  # no stored coefficient is zero
            raise KeyError(exp)
        return coeff


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
            key = _key(exp)
            if key is not None and key >> _DEG_SHIFT <= order:
                coeffs[key] = coeff
        den = lcm(*(c.den for c in coeffs.values()))
        num = {k: (c.x * den // c.den, c.y * den // c.den) for k, c in coeffs.items()}
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
        return coefficient_reader(exp)(self)

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
        if not self._num:
            return self
        neg = {k: (-re, -im) for k, (re, im) in self._num.items()}
        return _poly(self.order, self.den, neg, reduce=False)

    def scale(self, value: object) -> "TruncatedPoly":
        c = _coerce(value)
        if not self._num:
            return self
        a, b, d = c.x, c.y, c.den
        if not (a or b):
            return TruncatedPoly(self.order)
        num = {k: (x * a - y * b, x * b + y * a) for k, (x, y) in self._num.items()}
        return _poly(self.order, self.den * d, num)

    def conjugate(self) -> "TruncatedPoly":
        if not self._num:
            return self
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


def coefficient_reader(exp: Iterable[int]) -> Callable:
    """p -> p.coefficient(exp), with exp checked and packed once."""
    key = _key(exp)
    return lambda p: _gr(*p._num[key], p.den) if key in p._num else GR_ZERO


def numerator_over(value: Fraction, den: int) -> int:
    """The integer value * den, for a den that value's denominator divides."""
    return value.numerator * (den // value.denominator)


def poly_from_monomials(order: int, terms: Iterable[tuple]) -> TruncatedPoly:
    """Sum of coeff * x_{v1} ... x_{vk} over (coeff, (v1, ..., vk)) pairs.

    Variable indices may repeat (a square is (v, v)); monomials above the
    order are dropped.
    """
    coeffs: dict = {}
    for coeff, variables in terms:
        if coeff:
            exp = monomial(variables)
            coeffs[exp] = coeffs.get(exp, 0) + coeff
    return TruncatedPoly(order, coeffs)


def monomial(variables: Iterable[int]) -> Exponent:
    """The exponent tuple of x_{v1} ... x_{vk}; indices may repeat."""
    exp = [0] * NUM_VARS
    for v in variables:
        exp[v] += 1
    return tuple(exp)


def poly_add(a: TruncatedPoly, b: TruncatedPoly) -> TruncatedPoly:
    """Exact sum; the result carries order min(a.order, b.order)."""
    order = min(a.order, b.order)
    if not a._num:
        return b.truncate(order)
    if not b._num:
        return a.truncate(order)
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
    if not (a._num and b._num):
        return _poly(order, 1, {})
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
    if not a._num:
        return _poly(a.order - 1, 1, {})
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
    r = Fraction(r)
    order = u.order
    result = TruncatedPoly.constant(1, order)
    if u.is_zero():
        return result
    coeff = Fraction(1)
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
