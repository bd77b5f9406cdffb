"""The tensor builder and the products of the matrix layer."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlasym.exactpoly import (
    GaussianRational,
    TruncatedPoly,
    poly_add,
    poly_mul,
)
from curlasym.polymat import mat_commutator, mat_mul, mat_shape, tensor

from conftest import iter_exponents


def _flatten(value, depth):
    """Leaves of a depth-fold nested 3-tuple, checking each level's shape."""
    if depth == 0:
        return [value]
    assert isinstance(value, tuple) and len(value) == 3
    return [leaf for v in value for leaf in _flatten(v, depth - 1)]


@pytest.mark.parametrize("rank", range(6))
def test_index_order_and_shape(rank):
    t = tensor(lambda *idx: idx, rank)
    indices = list(product(range(3), repeat=rank))
    assert _flatten(t, rank) == indices
    for idx in indices:
        assert reduce(getitem, idx, t) == idx


def test_rank_two_is_a_matrix():
    m = tensor(lambda a, b: TruncatedPoly.constant(3 * a + b, 1), 2)
    assert mat_shape(m) == (3, 3)
    assert m[1][2] == TruncatedPoly.constant(5, 1)


def dense_mul(a, b):
    """The dense product: entry (i, j) is poly_mul(a[i][k], b[k][j]) summed
    with poly_add over every k in order, zero factors included."""
    inner = range(len(b))
    return tuple(
        tuple(
            reduce(poly_add, (poly_mul(row[k], b[k][j]) for k in inner))
            for j in range(len(b[0]))
        )
        for row in a
    )


@st.composite
def nonzero_polys(draw, order):
    exponents = st.sampled_from(list(iter_exponents(order)))
    exps = draw(st.lists(exponents, min_size=1, max_size=4))
    nonzero = st.integers(-5, 5).filter(bool)
    terms = {
        e: GaussianRational(
            Fraction(draw(nonzero), draw(st.integers(1, 6))),
            Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 6))),
        )
        for e in exps
    }
    return TruncatedPoly(order, terms)


@st.composite
def sparse_matrices(draw, shape):
    """About half the entries zero, some whole rows and columns zero, and
    every entry of its own order in 0..3, zero entries included."""
    rows, cols = shape
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            order = draw(st.integers(0, 3))
            if i in zero_rows or j in zero_cols or draw(st.booleans()):
                row.append(TruncatedPoly.zero(order))
            else:
                row.append(draw(nonzero_polys(order)))
        out.append(tuple(row))
    return tuple(out)


def assert_same_entries(got, want):
    assert mat_shape(got) == mat_shape(want)
    assert [[p.order for p in row] for row in got] == [
        [p.order for p in row] for row in want
    ]
    assert got == want


class TestProducts:
    @pytest.mark.parametrize(
        "left, right",
        [((3, 3), (3, 3)), ((3, 3), (3, 1)), ((1, 3), (3, 3))],
        ids=["3x3.3x3", "3x3.3x1", "1x3.3x3"],
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mat_mul_matches_dense(self, left, right, data):
        a = data.draw(sparse_matrices(left))
        b = data.draw(sparse_matrices(right))
        assert_same_entries(mat_mul(a, b), dense_mul(a, b))

    @given(sparse_matrices((3, 3)), sparse_matrices((3, 3)))
    @settings(max_examples=60, deadline=None)
    def test_mat_commutator_matches_dense(self, a, b):
        ab, ba = dense_mul(a, b), dense_mul(b, a)
        want = tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))
        assert_same_entries(mat_commutator(a, b), want)

    def test_zero_entry_of_lower_order_lowers_the_order(self):
        """A zero factor adds nothing to an entry but still bounds its order."""
        x = TruncatedPoly.variable(0, 3)
        z0, z3 = TruncatedPoly.zero(0), TruncatedPoly.zero(3)
        a = ((x, z0, z3),)
        b = ((x,), (x,), (x,))
        ((entry,),) = mat_mul(a, b)
        assert entry.order == 0 and entry.is_zero()
        assert mat_mul(a, b) == dense_mul(a, b)
        a = ((x, z3, z3),)
        ((entry,),) = mat_mul(a, b)
        assert entry.order == 3 and entry == poly_mul(x, x)
