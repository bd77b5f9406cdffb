"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product

from curlasym.exactpoly import (
    NUM_VARS,
    GaussianRational,
    TruncatedPoly,
    poly_from_dict,
    poly_to_dict,
)
from curlasym.calculus import SymbolJet
from curlasym.configs import random_config, unit_config
from curlasym.geometry import EPSILON, curl_symbol, norm_power_jet, raised_covector
from curlasym.polymat import identity_mat, mat_shape
from curlasym.projections import initial_symbols


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def iter_exponents(order: int):
    """All exponent tuples of total degree <= order, lexicographic order."""
    for exp in product(range(order + 1), repeat=NUM_VARS):
        if sum(exp) <= order:
            yield exp


def poly_dumps(p: TruncatedPoly) -> str:
    return json.dumps(poly_to_dict(p), separators=(",", ":"))


def poly_loads(text: str) -> TruncatedPoly:
    return poly_from_dict(json.loads(text))


def epsilon(a: int, b: int, c: int) -> int:
    """The totally antisymmetric symbol epsilon_{abc} (0-based indices)."""
    return EPSILON.get((a, b, c), 0)


def poly_scale_x(p: TruncatedPoly, factor) -> TruncatedPoly:
    """Substitute x -> factor * x (all three base variables)."""
    factor = Fraction(factor)
    terms = {}
    for exp, coeff in p.terms.items():
        deg = exp[0] + exp[1] + exp[2]
        terms[exp] = coeff * (factor**deg) if deg else coeff
    return TruncatedPoly(p.order, terms)


def identity_jet(accuracy: int) -> SymbolJet:
    return SymbolJet(0, accuracy, (3, 3), [identity_mat(accuracy)])


def constant_jet(m, accuracy: int) -> SymbolJet:
    return SymbolJet(0, accuracy, mat_shape(m), [m])


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


#: A unit config and a dense random one, for the order contract.
ORDER_CONFIGS = {"c11": unit_config("c11"), "random1": random_config(random.Random(1))}


def orders(t):
    """The set of truncation orders of the polynomials in a nested tuple."""
    if isinstance(t, TruncatedPoly):
        return {t.order}
    return set().union(*map(orders, t))


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
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
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
