"""Shared helpers for the test suite."""

from __future__ import annotations

import random

from curlasym.exactpoly import (
    GaussianRational,
    TruncatedPoly,
    iter_exponents,
    rat,
)
from curlasym.calculus import SymbolJet
from curlasym.geometry import curl_symbol, norm_power_jet, raised_covector
from curlasym.projections import initial_symbols


def gr(re, im=0):
    return GaussianRational(rat(re), rat(im))


def const_mat(rows, order):
    """Matrix of constants from (re, im) pairs or plain rationals."""
    out = []
    for row in rows:
        r = []
        for v in row:
            if isinstance(v, tuple):
                c = gr(*v)
            else:
                c = gr(v)
            r.append(TruncatedPoly.constant(c, order))
        out.append(tuple(r))
    return tuple(out)


def eigenprojections(mj, order):
    """The pointwise eigenprojections of one metric jet at one order."""
    return initial_symbols(
        raised_covector(mj, order),
        norm_power_jet(mj, -1, order),
        curl_symbol(mj, order).principal(),
    )


def anchor_values(m):
    """Constant terms of a polynomial matrix as GaussianRationals."""
    return tuple(tuple(p.constant_term() for p in row) for row in m)


def x_part(m):
    """Restrict a polynomial matrix to eta = 0."""
    return tuple(tuple(p.restrict((3, 4, 5)) for p in row) for row in m)


def mat_pad(m, order):
    """Re-embed a polynomial matrix at a higher truncation order."""
    return tuple(
        tuple(TruncatedPoly(order, dict(p.terms)) for p in row) for row in m
    )


def random_poly(rng: random.Random, order: int, density: float = 0.25):
    terms = {}
    for e in iter_exponents(order):
        if rng.random() < density:
            terms[e] = GaussianRational(
                rat(rng.randint(-2, 2), rng.randint(1, 3)),
                rat(rng.randint(-2, 2), rng.randint(1, 3)),
            )
    return TruncatedPoly(order, terms)


def random_matrix(rng: random.Random, order: int, shape=(3, 3), density=0.25):
    return tuple(
        tuple(random_poly(rng, order, density) for _ in range(shape[1]))
        for _ in range(shape[0])
    )


def random_jet(rng: random.Random, accuracy: int, shape=(3, 3), density=0.2):
    comps = [
        random_matrix(rng, accuracy - k, shape, density)
        for k in range(accuracy + 1)
    ]
    return SymbolJet(0, accuracy, shape, comps)
