"""The tensor builder of the matrix layer."""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import getitem

import pytest

from curlasym.exactpoly import TruncatedPoly
from curlasym.polymat import mat_shape, tensor


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
