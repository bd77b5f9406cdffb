"""Small matrices of truncated polynomials.

Matrices are plain nested tuples of TruncatedPoly, shape (rows, cols) with
rows and cols in {1, 3}.  These back all 3x3 symbol components as well as the
column and row symbols of the exterior derivative and codifferential.
"""

from __future__ import annotations

from itertools import product
from typing import Callable

from .exactpoly import TruncatedPoly, poly_add, poly_diff, poly_mul, poly_to_dict

Matrix = tuple


def mat_shape(m: Matrix) -> tuple:
    return (len(m), len(m[0]))


def zero_mat(shape: tuple, order: int) -> Matrix:
    z = TruncatedPoly.zero(order)
    return tuple(tuple(z for _ in range(shape[1])) for _ in range(shape[0]))


def identity_mat(order: int) -> Matrix:
    one = TruncatedPoly.constant(1, order)
    z = TruncatedPoly.zero(order)
    return tensor(lambda i, j: one if i == j else z, 2)


def tensor(f: Callable, rank: int):
    """Nested 3-tuples of f(i1, ..., i_rank) over the index tuples {0, 1, 2}^rank.

    A rank-0 result is f() itself and a rank-2 result is a Matrix.
    """
    out = [f(*idx) for idx in product(range(3), repeat=rank)]
    for _ in range(rank):
        out = list(zip(*[iter(out)] * 3))
    return out[0]


def mat_map(f: Callable[[TruncatedPoly], TruncatedPoly], m: Matrix) -> Matrix:
    return tuple(tuple(f(entry) for entry in row) for row in m)


def mat_diff(a: Matrix, var: int) -> Matrix:
    return mat_map(lambda p: poly_diff(p, var), a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(poly_add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(poly_add(x, -y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_neg(a: Matrix) -> Matrix:
    return mat_map(lambda p: -p, a)


def mat_scale(a: Matrix, c: object) -> Matrix:
    return mat_map(lambda p: p.scale(c), a)


def mat_poly_scale(a: Matrix, p: TruncatedPoly) -> Matrix:
    return mat_map(lambda q: poly_mul(p, q), a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = None
            for k in range(ca):
                term = poly_mul(a[i][k], b[k][j])
                acc = term if acc is None else poly_add(acc, term)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_truncate(a: Matrix, order: int) -> Matrix:
    return mat_map(lambda p: p.truncate(order), a)


def mat_transpose(a: Matrix) -> Matrix:
    rows, cols = mat_shape(a)
    return tuple(tuple(a[i][j] for i in range(rows)) for j in range(cols))


def mat_conj(a: Matrix) -> Matrix:
    return mat_map(lambda p: p.conjugate(), a)


def mat_trace(a: Matrix) -> TruncatedPoly:
    rows, cols = mat_shape(a)
    if rows != cols:
        raise ValueError("trace requires a square matrix")
    acc = a[0][0]
    for i in range(1, rows):
        acc = poly_add(acc, a[i][i])
    return acc


def mat_to_dict(a: Matrix) -> list:
    """JSON-ready form: nested lists of ``poly_to_dict`` entries."""
    return [[poly_to_dict(p) for p in row] for row in a]


def mat_is_zero(a: Matrix) -> bool:
    return all(entry.is_zero() for row in a for entry in row)


def mat_restrict(a: Matrix, zero_vars) -> Matrix:
    zs = tuple(zero_vars)
    return mat_map(lambda p: p.restrict(zs), a)
