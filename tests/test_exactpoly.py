"""Exact polynomial kernel: ring laws, truncation semantics, serialization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlasym.exactpoly import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    TruncatedPoly,
    binomial_power_jet,
    poly_add,
    poly_diff,
    poly_from_monomials,
    poly_mul,
)

from conftest import iter_exponents, poly_dumps, poly_loads, random_poly


def small_rationals():
    return st.builds(
        Fraction, st.integers(-5, 5), st.integers(1, 6)
    )


def gaussian_rationals():
    return st.builds(GaussianRational, small_rationals(), small_rationals())


@st.composite
def operands(draw):
    """A GaussianRational, int or Fraction and its (re, im) Fraction pair."""
    re, im = draw(small_rationals()), draw(small_rationals())
    kind = draw(st.sampled_from(("gr", "int", "fraction")))
    if kind == "int":
        return re.numerator, (Fraction(re.numerator), Fraction(0))
    if kind == "fraction":
        return re, (re, Fraction(0))
    return GaussianRational(re, im), (re, im)


def ref_pair(c):
    """(re, im) of a GaussianRational, int or Fraction, as Fractions."""
    if isinstance(c, GaussianRational):
        return Fraction(c.re), Fraction(c.im)
    return Fraction(c), Fraction(0)


def ref_str(re, im):
    if im == 0:
        return str(re)
    return f"{re}{'+' if im > 0 else ''}{im}i"


def ref_repr(re, im):
    return f"GR({re})" if im == 0 else f"GR({re}, {im}i)"


#: Malformed exponents: wrong length, negative or not an int.
BAD_EXPONENTS = pytest.mark.parametrize(
    "exp",
    [
        (1, 0, 0),
        (1, 0, 0, 0, 0, 0, 0),
        (),
        (-1, 0, 0, 0, 0, 0),
        (1.0, 0, 0, 0, 0, 0),
    ],
    ids=["three", "seven", "empty", "negative", "float"],
)


@st.composite
def polys(draw, max_order=3):
    order = draw(st.integers(0, max_order))
    exps = list(iter_exponents(order))
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        e = draw(st.sampled_from(exps))
        terms[e] = draw(gaussian_rationals())
    return TruncatedPoly(order, terms)


class TestGaussianRational:
    @given(gaussian_rationals(), gaussian_rationals(), gaussian_rationals())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GR_ZERO == a
        assert a * GR_ONE == a

    @given(gaussian_rationals())
    def test_conjugation_involution(self, a):
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).is_real()

    @given(gaussian_rationals(), gaussian_rationals())
    def test_division_inverts_multiplication(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            assert (a / b) * b == a

    def test_i_squared(self):
        assert GR_I * GR_I == GaussianRational(-1)

    def test_str_renders_p_over_q(self):
        assert str(GaussianRational(Fraction(-1, 2))) == "-1/2"
        assert str(GaussianRational(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3i"
        assert str(GaussianRational(0, 2)) == "0+2i"
        half_third = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
        assert repr(half_third) == "GR(1/2, -1/3i)"

    @pytest.mark.parametrize("value", [0.1, 1.0, -0.5])
    def test_float_refused(self, value):
        # 0.1 would silently become 3602879701896397/36028797018963968.
        x = TruncatedPoly.variable(0, 1)
        for make in (
            lambda: GaussianRational(value),
            lambda: GaussianRational(0, value),
            lambda: GR_ONE + value,
            lambda: x.scale(value),
        ):
            with pytest.raises(TypeError, match="float"):
                make()

    @given(gaussian_rationals(), operands())
    @settings(max_examples=300)
    def test_matches_fraction_pair_reference(self, a, operand):
        b, (br, bi) = operand
        ar, ai = ref_pair(a)
        assert all(type(v) is Fraction for v in (a.re, a.im))

        def check(value, re, im):
            assert isinstance(value, GaussianRational)
            assert ref_pair(value) == (re, im)
            same = GaussianRational(re, im)
            assert value == same and hash(value) == hash(same)
            assert str(value) == ref_str(re, im)
            assert repr(value) == ref_repr(re, im)

        check(a, ar, ai)
        check(a + b, ar + br, ai + bi)
        check(b + a, ar + br, ai + bi)
        check(a - b, ar - br, ai - bi)
        check(b - a, br - ar, bi - ai)
        check(a * b, ar * br - ai * bi, ar * bi + ai * br)
        check(b * a, ar * br - ai * bi, ar * bi + ai * br)
        check(-a, -ar, -ai)
        check(a.conjugate(), ar, -ai)
        norm = br * br + bi * bi
        if norm == 0:
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            check(a / b, (ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)
        assert (a == b) == (b == a) == ((ar, ai) == (br, bi))
        assert (a != b) == ((ar, ai) != (br, bi))

    def test_poly_repr_keeps_gr_coefficients(self):
        p = TruncatedPoly.variable(3, 1, GR_I)
        assert repr(p) == "TruncatedPoly((GR(0, 1i))*e1; order 1)"


class TestTruncatedPoly:
    @given(polys(), polys(), polys())
    @settings(max_examples=150)
    def test_ring_laws(self, a, b, c):
        assert poly_add(a, b) == poly_add(b, a)
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))
        lhs = poly_mul(a, poly_add(b, c))
        rhs = poly_add(poly_mul(a, b), poly_mul(a, c))
        assert lhs == rhs

    @given(polys(), polys(), polys())
    @settings(max_examples=100)
    def test_mul_associative(self, a, b, c):
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))

    @given(polys())
    def test_add_neg_is_zero(self, a):
        assert poly_add(a, -a).is_zero()

    def test_order_of_sum_is_min(self):
        a = TruncatedPoly.constant(1, 3)
        b = TruncatedPoly.constant(1, 1)
        assert poly_add(a, b).order == 1

    def test_mul_truncates(self):
        x = TruncatedPoly.variable(0, 2)
        sq = poly_mul(x, x)
        assert sq.coefficient((2, 0, 0, 0, 0, 0)) == GaussianRational(1)
        cube = poly_mul(sq, x)
        assert cube.is_zero()

    def test_diff_lowers_order(self):
        x = TruncatedPoly.variable(0, 3)
        d = poly_diff(poly_mul(x, x), 0)
        assert d.order == 2
        assert d.coefficient((1, 0, 0, 0, 0, 0)) == GaussianRational(2)

    def test_diff_order_zero_raises(self):
        with pytest.raises(ValueError):
            poly_diff(TruncatedPoly.constant(1, 0), 0)

    def test_truncate_cannot_raise(self):
        p = TruncatedPoly.constant(1, 1)
        with pytest.raises(ValueError):
            p.truncate(2)

    def test_restrict(self):
        x = TruncatedPoly.variable(0, 2)
        e = TruncatedPoly.variable(3, 2)
        p = poly_add(x, e)
        assert p.restrict((3,)) == x
        assert p.restrict((0,)) == e

    def test_no_zero_coefficients_stored(self):
        p = poly_add(TruncatedPoly.variable(0, 2), TruncatedPoly.variable(0, 2, -1))
        assert p.terms == {}

    @BAD_EXPONENTS
    def test_coefficient_refuses_a_bad_exponent(self, exp):
        """As the constructor does: a malformed exponent is an error, not 0."""
        p = TruncatedPoly(3, {(1, 0, 0, 0, 0, 0): 5})
        with pytest.raises(ValueError, match="bad exponent tuple"):
            p.coefficient(exp)
        with pytest.raises(ValueError, match="bad exponent tuple"):
            TruncatedPoly(3, {exp: 5})

    def test_coefficient_of_an_absent_term_is_zero(self):
        p = TruncatedPoly(3, {(1, 0, 0, 0, 0, 0): 5})
        assert p.coefficient([1, 0, 0, 0, 0, 0]) == GaussianRational(5)
        assert p.coefficient((0, 1, 0, 0, 0, 0)) == GR_ZERO
        assert p.coefficient((8, 0, 0, 0, 0, 0)) == GR_ZERO
        assert p.coefficient((2, 2, 0, 0, 0, 0)) == GR_ZERO

    @BAD_EXPONENTS
    def test_terms_view_refuses_a_bad_exponent(self, exp):
        """Indexing and get name the exponent, as coefficient does."""
        p = TruncatedPoly(3, {(1, 0, 0, 0, 0, 0): 5})
        with pytest.raises(ValueError, match="bad exponent tuple"):
            p.terms[exp]
        with pytest.raises(ValueError, match="bad exponent tuple"):
            p.terms.get(exp)

    @pytest.mark.parametrize(
        "exp", [(0, 1, 0, 0, 0, 0), (8, 0, 0, 0, 0, 0)], ids=["no_term", "above_max"]
    )
    def test_terms_view_of_an_absent_term(self, exp):
        p = TruncatedPoly(3, {(1, 0, 0, 0, 0, 0): 5})
        assert p.terms[[1, 0, 0, 0, 0, 0]] == GaussianRational(5)
        with pytest.raises(KeyError) as info:
            p.terms[exp]
        assert info.value.args == (exp,)
        assert p.terms.get(exp) is None


class TestBinomialPowerJet:
    def test_sqrt_of_square(self):
        rng = random.Random(5)
        u = random_poly(rng, 3)
        u = poly_add(u, TruncatedPoly.constant(-u.constant_term(), 3))
        half = binomial_power_jet(u, Fraction(1, 2))
        assert poly_mul(half, half) == poly_add(
            TruncatedPoly.constant(1, 3), u
        )

    def test_inverse(self):
        rng = random.Random(6)
        u = random_poly(rng, 3)
        u = poly_add(u, TruncatedPoly.constant(-u.constant_term(), 3))
        inv = binomial_power_jet(u, Fraction(-1))
        prod = poly_mul(inv, poly_add(TruncatedPoly.constant(1, 3), u))
        assert prod == TruncatedPoly.constant(1, 3)

    def test_inverse_pair_over_exponent_set(self):
        rng = random.Random(9)
        exponents = (
            Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1),
            Fraction(3, 2), Fraction(-3, 2), Fraction(-2), Fraction(-5, 2),
        )
        for _ in range(5):
            u = random_poly(rng, 3)
            u = poly_add(u, TruncatedPoly.constant(-u.constant_term(), 3))
            for r in exponents:
                prod = poly_mul(
                    binomial_power_jet(u, r), binomial_power_jet(u, -r)
                )
                assert prod == TruncatedPoly.constant(1, 3)

    def test_integer_power_matches_direct(self):
        x = TruncatedPoly.variable(0, 3)
        jet = binomial_power_jet(x, Fraction(3))
        one_plus = poly_add(TruncatedPoly.constant(1, 3), x)
        direct = poly_mul(poly_mul(one_plus, one_plus), one_plus)
        assert jet == direct

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            binomial_power_jet(TruncatedPoly.constant(1, 2), Fraction(1, 2))


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_poly(rng, 3)
            assert poly_loads(poly_dumps(p)) == p

    def test_deterministic_output(self):
        rng = random.Random(8)
        p = random_poly(rng, 3)
        assert poly_dumps(p) == poly_dumps(poly_loads(poly_dumps(p)))


# -- integer-backed storage -------------------------------------------------
#
# The reference below keeps one pair of Fractions per exponent tuple, the
# textbook representation, so every kernel operation can be checked against
# an implementation that shares none of its code.


def ref_terms(p):
    return {exp: (c.re, c.im) for exp, c in p.terms.items()}


def ref_clean(terms, order):
    return {
        e: c for e, c in terms.items() if sum(e) <= order and (c[0] or c[1])
    }


def ref_add(a, b):
    order = min(a.order, b.order)
    out = dict(ref_terms(a))
    for e, (re, im) in ref_terms(b).items():
        r0, i0 = out.get(e, (0, 0))
        out[e] = (r0 + re, i0 + im)
    return ref_clean(out, order)


def ref_mul(a, b):
    order = min(a.order, b.order)
    out = {}
    for ea, (ar, ai) in ref_terms(a).items():
        for eb, (br, bi) in ref_terms(b).items():
            e = tuple(x + y for x, y in zip(ea, eb))
            r0, i0 = out.get(e, (0, 0))
            out[e] = (r0 + ar * br - ai * bi, i0 + ar * bi + ai * br)
    return ref_clean(out, order)


def ref_diff(a, var):
    out = {}
    for e, (re, im) in ref_terms(a).items():
        if e[var]:
            d = list(e)
            d[var] -= 1
            out[tuple(d)] = (re * e[var], im * e[var])
    return ref_clean(out, a.order - 1)


def ref_scale(a, c):
    cr, ci = ref_pair(c)
    out = {
        e: (re * cr - im * ci, re * ci + im * cr)
        for e, (re, im) in ref_terms(a).items()
    }
    return ref_clean(out, a.order)


class TestAgainstFractionReference:
    @given(polys(), polys())
    @settings(max_examples=150)
    def test_mul_and_add(self, a, b):
        assert ref_terms(poly_mul(a, b)) == ref_mul(a, b)
        assert ref_terms(poly_add(a, b)) == ref_add(a, b)

    @given(polys())
    def test_diff(self, a):
        if a.order == 0:
            return
        for var in range(6):
            d = poly_diff(a, var)
            assert d.order == a.order - 1
            assert ref_terms(d) == ref_diff(a, var)

    @given(
        polys(),
        st.one_of(gaussian_rationals(), small_rationals(), st.integers(-5, 5)),
    )
    def test_scale_and_conjugate(self, a, c):
        assert ref_terms(a.scale(c)) == ref_scale(a, c)
        assert ref_terms(a.conjugate()) == {
            e: (re, -im) for e, (re, im) in ref_terms(a).items()
        }


class TestCanonicalForm:
    def test_product_truncated_to_zero_is_zero(self):
        x = TruncatedPoly.variable(0, 1, Fraction(1, 2))
        y = TruncatedPoly.variable(1, 1, Fraction(1, 3))
        zero = TruncatedPoly.zero(1)
        prod = poly_mul(x, y)
        assert prod == zero
        assert hash(prod) == hash(zero)
        assert prod.den == 1

    def test_product_with_cancelling_terms(self):
        # (x + i y)(x - i y) = x^2 + y^2: the x y terms cancel in the product.
        x = TruncatedPoly.variable(0, 2, Fraction(1, 3))
        iy = TruncatedPoly.variable(1, 2, GaussianRational(0, Fraction(1, 3)))
        left = poly_mul(poly_add(x, iy), poly_add(x, -iy))
        right = poly_add(poly_mul(x, x), poly_mul(iy.conjugate(), iy))
        assert left == right and hash(left) == hash(right)
        assert len(left.terms) == 2
        diff = poly_add(left, -right)
        assert diff == TruncatedPoly.zero(2)
        assert hash(diff) == hash(TruncatedPoly.zero(2))

    @given(polys())
    def test_sum_cancelling_to_zero_is_zero(self, a):
        zero = TruncatedPoly.zero(a.order)
        s = poly_add(a, -a)
        assert s == zero and hash(s) == hash(zero) and s.den == 1

    def test_same_value_two_ways_same_representation(self):
        x = TruncatedPoly.variable(0, 2)
        built = poly_add(x.scale(Fraction(1, 2)), x.scale(Fraction(1, 3)))
        direct = TruncatedPoly(2, {(1, 0, 0, 0, 0, 0): Fraction(5, 6)})
        assert built == direct
        assert hash(built) == hash(direct)
        assert built.den == direct.den == 6
        assert poly_dumps(built) == poly_dumps(direct)

    @given(polys(), gaussian_rationals())
    def test_scale_round_trip_same_representation(self, a, c):
        if c.is_zero():
            return
        back = a.scale(c).scale(GR_ONE / c)
        assert back == a and hash(back) == hash(a) and back.den == a.den


def canonical(p):
    """What equality compares: the order, the denominator, the numerators."""
    return p.order, p.den, p._num


def ref_poly(order, terms):
    """The constructor's poly of reference (re, im) terms."""
    return TruncatedPoly(
        order, {e: GaussianRational(re, im) for e, (re, im) in terms.items()}
    )


zeros = st.builds(TruncatedPoly.zero, st.integers(0, 4))


class TestZeroOperands:
    """An operation with a zero operand returns at once, in canonical form."""

    @given(zeros, polys(max_order=4), st.booleans())
    @settings(max_examples=150)
    def test_sum_and_product(self, z, p, zero_first):
        a, b = (z, p) if zero_first else (p, z)
        order = min(a.order, b.order)
        assert canonical(poly_add(a, b)) == canonical(ref_poly(order, ref_add(a, b)))
        assert canonical(poly_mul(a, b)) == canonical(ref_poly(order, ref_mul(a, b)))
        assert canonical(poly_add(z, z)) == canonical(ref_poly(z.order, {}))

    @given(
        zeros,
        st.integers(0, 5),
        st.one_of(gaussian_rationals(), small_rationals(), st.integers(-5, 5)),
    )
    def test_diff_neg_conjugate_scale(self, z, var, c):
        expected = canonical(ref_poly(z.order, {}))
        assert canonical(-z) == expected
        assert canonical(z.conjugate()) == expected
        assert canonical(z.scale(c)) == expected
        if z.order:
            d = poly_diff(z, var)
            assert canonical(d) == canonical(ref_poly(z.order - 1, ref_diff(z, var)))

    def test_zero_operands_are_still_validated(self):
        z = TruncatedPoly.zero(2)
        with pytest.raises(TypeError, match="float"):
            z.scale(0.5)
        with pytest.raises(ValueError, match="order 0"):
            poly_diff(TruncatedPoly.zero(0), 0)
        for var in (-1, 6):
            with pytest.raises(ValueError, match="out of range"):
                poly_diff(z, var)


class TestStorageLimits:
    @pytest.mark.parametrize("order", [8, 9, 20])
    def test_order_above_seven_rejected(self, order):
        with pytest.raises(ValueError):
            TruncatedPoly(order)
        with pytest.raises(ValueError):
            TruncatedPoly.constant(1, order)

    def test_order_seven_keeps_top_degree(self):
        x = TruncatedPoly.variable(0, 7)
        p = x
        for _ in range(6):
            p = poly_mul(p, x)
        assert p.coefficient((7, 0, 0, 0, 0, 0)) == GR_ONE
        assert poly_mul(p, x).is_zero()

    def test_terms_cannot_be_mutated(self):
        p = TruncatedPoly.variable(0, 2, Fraction(1, 2))
        exp = (1, 0, 0, 0, 0, 0)
        with pytest.raises(TypeError):
            p.terms[exp] = GR_ONE
        with pytest.raises(TypeError):
            del p.terms[exp]
        with pytest.raises(AttributeError):
            p.terms = {}
        assert p.terms == {exp: GaussianRational(Fraction(1, 2))}


@st.composite
def monomial_terms(draw):
    """(coeff, variables) pairs; variables may repeat and exceed the order."""
    coeffs = st.one_of(st.integers(-3, 3), small_rationals(), gaussian_rationals())
    variables = st.lists(st.integers(0, 5), max_size=4).map(tuple)
    return draw(st.lists(st.tuples(coeffs, variables), max_size=6))


class TestPolyFromMonomials:
    @given(st.integers(0, 4), monomial_terms())
    @settings(max_examples=150)
    def test_matches_products_of_variables(self, order, terms):
        expected = TruncatedPoly.zero(order)
        for coeff, variables in terms:
            mono = TruncatedPoly.constant(1, order)
            for v in variables:
                mono = poly_mul(mono, TruncatedPoly.variable(v, order))
            expected = poly_add(expected, mono.scale(coeff))
        assert poly_from_monomials(order, terms) == expected

    def test_repeated_monomials_add_up(self):
        x = TruncatedPoly.variable(0, 2)
        p = poly_from_monomials(2, [(1, (0,)), (Fraction(1, 2), (0,)), (-1, (3, 3))])
        e1 = TruncatedPoly.variable(3, 2)
        assert p == poly_add(x.scale(Fraction(3, 2)), -poly_mul(e1, e1))
