"""Independent route to the principal asymmetry value.

Assembles the subleading symbol parts of the Hodge Laplacian on 1-forms
directly from curvature-derivative tensors, runs the square-root symbol
hierarchy for the half and inverse-half powers at the order of the given
metric jet, and extracts the principal asymmetry value from the two deepest
components.  This path shares only the polynomial layer and the metric jet
with the projection construction, so exact agreement of the two results is
a strong cross-check.

All of this assumes the Ricci tensor itself vanishes at the origin; only its
covariant derivative enters, which still covers every curvature direction the
asymmetry value can feel.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .configs import EPSILON
from .exactpoly import (
    E1,
    ETA_VARS,
    GR_I,
    GaussianRational,
    TruncatedPoly,
    X_VARS,
    numerator_over,
    poly_diff,
    poly_from_monomials,
    poly_mul,
)
from .geometry import (
    MetricJet,
    covector_norm_sq,
    euclid_norm_power_jet,
    norm_power,
    raised_covector,
    xi_polys,
)
from .polymat import (
    Matrix,
    identity_mat,
    mat_add,
    mat_diff,
    mat_map,
    mat_poly_scale,
    mat_scale,
    tensor,
)


def hodge_symbol(mj: MetricJet) -> tuple:
    """Degree-1 and degree-0 symbol parts of the Hodge Laplacian on 1-forms.

    Returns (q1, q0) as matrices of polynomials truncated at the jet's order:
    q1 is linear in the covector and quadratic in x, q0 linear in x, both
    assembled from the covariant derivatives of Ricci and Riemann at the
    origin, read from the metric jet's configuration and its Riemann
    derivative.  Accurate up to the stated higher-order-in-x remainders.
    """
    if not mj.config.ricci_flat:
        raise ValueError("requires vanishing Ricci tensor at the origin")
    # Integer numerators over the config's common denominator: den times a
    # Ricci-derivative entry is an integer, and so is den times a Riemann
    # derivative entry (see riemann_from_ricci).  a_tensor and b_tensor
    # return their entries times 12 den.
    dric = mj.config.dric0
    den = mj.config.denominator
    dric = tensor(lambda s, a, b: numerator_over(dric[s][a][b], den), 3)
    driem0 = tensor(
        lambda s, a, b, c, d: numerator_over(mj.driem0[s][a][b][c][d], den), 5
    )
    den *= 12

    # a_al{}^{be ga}{}_{mu nu}; index raising at the origin is trivial.
    def a_tensor(al, be, ga, mu, nu):
        val = 6 * dric[mu][ga][nu] - dric[ga][mu][nu] if al == be else 0
        return val - 2 * (
            driem0[al][ga][mu][be][nu]
            - 3 * driem0[mu][ga][al][be][nu]
            + 5 * driem0[nu][ga][mu][be][al]
        )

    def b_tensor(al, be, nu):
        return -2 * dric[be][al][nu] + 6 * dric[al][be][nu] + 6 * dric[nu][al][be]

    def q1_entry(al, be):
        # xi_ga x_mu x_nu with xi_ga = delta_{ga 3} + e_ga: two monomials,
        # each of whose coefficients sums both orders of mu and nu.
        terms = []
        pairs = itertools.combinations_with_replacement(range(3), 2)
        for ga, (mu, nu) in itertools.product(range(3), pairs):
            num = a_tensor(al, be, ga, mu, nu)
            if mu != nu:
                num += a_tensor(al, be, ga, nu, mu)
            if num:
                coeff = Fraction(num, den)
                terms.append((coeff, (E1 + ga, mu, nu)))
                if ga == 2:
                    terms.append((coeff, (mu, nu)))
        return poly_from_monomials(mj.order, terms).scale(GR_I)

    def q0_entry(al, be):
        terms = [(Fraction(b_tensor(al, be, nu), den), (nu,)) for nu in X_VARS]
        return poly_from_monomials(mj.order, terms)

    return tensor(q1_entry, 2), tensor(q0_entry, 2)


def _sorted_partials(diff, base, rank: int) -> dict:
    """d^I base for every sorted index tuple I of length 0 to rank.

    Each is formed from its prefix by one diff(value, index) call, so rank 3
    takes 3 + 6 + 10 calls.
    """
    out = {(): base}
    for r in range(1, rank + 1):
        for idx in itertools.combinations_with_replacement(range(3), r):
            out[idx] = diff(out[idx[:-1]], idx[-1])
    return out


def _orderings(idx: tuple) -> int:
    """The number of distinct orderings of an index tuple."""
    count = math.factorial(len(idx))
    for v in set(idx):
        count //= math.factorial(idx.count(v))
    return count


def _derivative_term(
    m: Matrix, weight: TruncatedPoly, norm_derivs: dict, rank: int
) -> Matrix:
    """weight * sum over index tuples I of rank `rank` of the eta derivative
    d^I |xi|, read from norm_derivs, times the x derivative d^I m.

    Mixed partials commute, so the sum runs over sorted tuples only, each
    term counted once per ordering of its tuple.
    """
    dm = _sorted_partials(mat_diff, m, rank)
    out = None
    for idx in itertools.combinations_with_replacement(range(3), rank):
        term = mat_poly_scale(dm[idx], norm_derivs[idx].scale(_orderings(idx)))
        out = term if out is None else mat_add(out, term)
    return mat_poly_scale(out, weight)


@functools.cache
def _euclid_jets(order: int) -> tuple:
    """The Euclidean jets of the hierarchy at one order, which do not depend
    on the metric: |xi|^-1, |xi|^-2, the eta derivatives d^I |xi| of rank 0
    to 3 and the transport weights xi^mu / |xi|^2.  Formed once per order
    and process."""
    eu1 = euclid_norm_power_jet(1, order)
    eum2 = euclid_norm_power_jet(-2, order)
    return (
        euclid_norm_power_jet(-1, order),
        eum2,
        _sorted_partials(lambda p, v: poly_diff(p, ETA_VARS[v]), eu1, 3),
        tuple(poly_mul(eum2, x) for x in xi_polys(order)),
    )


@dataclass(frozen=True)
class HodgeHierarchy:
    """Symbol components of the half and inverse-half Laplacian powers."""

    mj: MetricJet
    q1: Matrix
    q0: Matrix
    r0: Matrix
    r_m1: Matrix
    r_m2: Matrix
    s_m2: Matrix
    s_m3: Matrix
    s_m4: Matrix


def build_hierarchy(mj: MetricJet) -> HodgeHierarchy:
    """Solve the square-root symbol hierarchy at the metric jet's order.

    r0, r_m1, r_m2 are the components of the half power below the Riemannian
    norm; s_m2, s_m3, s_m4 those of the inverse-half power below the inverse
    norm.  They follow two recursions for j = 0, 1, 2, in which a term whose
    component does not exist is dropped:

      r_{-j}   = |xi|^-1 (q_{1-j}/2 + D2 r_{2-j}/4 - i D3 r_{3-j}/12) - T r_{1-j}/2
      s_{-2-j} = -|xi|^-2 r_{-j} - T s_{-1-j} + |xi|^-1 (D2 s_{-j}/2 - i D3 s_{1-j}/6)

    with r_1 = ||xi|| Id and s_-1 = ||xi||^-1 Id.  T is the transport term
    (1/(i |xi|^2)) xi^mu d_x^mu and Dk the derivative term of rank k.  Each
    rule mixes the Euclidean norm jet (covector derivatives) with Riemannian
    norm jets (base derivatives), exactly as the hierarchy is stated, and
    each result is reliable only up to its stated remainder.  On an order-3
    jet q1 and q0 have order 3, r0 and s_m2 order 2, r_m1 and s_m3 order 1,
    r_m2 and s_m4 order 0: all that aprin_alternative reads.
    """
    q1, q0 = hodge_symbol(mj)
    order = mj.order
    ident = identity_mat(order)
    # norm_derivs[I] is d^I |xi|; eum2_xi are the transport weights.
    eum1, eum2, norm_derivs, eum2_xi = _euclid_jets(order)
    quad = covector_norm_sq(raised_covector(mj, order))
    # The Riemannian norm powers enter as multiples of the identity: they are
    # kept as 1x1 matrices, and their terms are formed on the scalar and then
    # put on the diagonal.
    q = {1: q1, 0: q0}
    r = {1: ((norm_power(quad, 1),),)}
    s = {-1: ((norm_power(quad, -1),),)}

    def weighted_term(m: Matrix, weight: TruncatedPoly, coeff) -> Matrix:
        return mat_poly_scale(m, weight.scale(coeff))

    def transport_term(m: Matrix, coeff) -> Matrix:
        """coeff (1/(i |xi|^2)) xi^mu d_x^mu applied to a matrix symbol."""
        out = None
        for mu, weight in enumerate(eum2_xi):
            term = mat_map(lambda p: poly_mul(weight, poly_diff(p, mu)), m)
            out = term if out is None else mat_add(out, term)
        return mat_scale(out, -GR_I * coeff)

    def derivative_term(m: Matrix, coeff, rank: int) -> Matrix:
        return _derivative_term(m, eum1.scale(coeff), norm_derivs, rank)

    def combine(*terms) -> Matrix:
        """Sum of make(m, *args) over the terms whose component m exists; a
        norm power's 1x1 term goes on the diagonal."""
        out = None
        for make, m, *args in terms:
            if m is not None:
                term = make(m, *args)
                if len(term) == 1:
                    term = mat_poly_scale(ident, term[0][0])
                out = term if out is None else mat_add(out, term)
        return out

    half = Fraction(1, 2)
    for j in range(3):
        r[-j] = combine(
            (weighted_term, q.get(1 - j), eum1, half),
            (derivative_term, r.get(2 - j), Fraction(1, 4), 2),
            (derivative_term, r.get(3 - j), -GR_I / 12, 3),
            (transport_term, r[1 - j], -half),
        )
        s[-2 - j] = combine(
            (weighted_term, r[-j], eum2, -1),
            (transport_term, s[-1 - j], -1),
            (derivative_term, s.get(-j), half, 2),
            (derivative_term, s.get(1 - j), -GR_I / 6, 3),
        )
    return HodgeHierarchy(mj, q1, q0, r[0], r[-1], r[-2], s[-2], s[-3], s[-4])


def aprin_alternative(h: HodgeHierarchy) -> GaussianRational:
    """Principal asymmetry value from the inverse-half power components.

    Contracts the alternating symbol with the base derivative of the degree
    -3 component plus i times the anchor covector against the degree -4
    component, evaluated at the anchor point.
    """
    total = GaussianRational(0)
    for (be, al, ga), sign in EPSILON.items():
        val = poly_diff(h.s_m3[al][be], ga).constant_term()
        if ga == 2:
            val = val + h.s_m4[al][be].constant_term() * GR_I
        total = total + val * sign
    return -total
