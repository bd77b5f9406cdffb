"""Independent route to the principal asymmetry value.

Assembles the subleading symbol parts of the Hodge Laplacian on 1-forms
directly from curvature-derivative tensors, runs the square-root symbol
hierarchy for the half and inverse-half powers, and extracts the principal
asymmetry value from the two deepest components.  This path shares only the
polynomial and geometry layers with the projection construction, so exact
agreement of the two results is a strong cross-check.

All of this assumes the Ricci tensor itself vanishes at the origin; only its
covariant derivative enters, which still covers every curvature direction the
asymmetry value can feel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exactpoly import (
    E1,
    ETA_VARS,
    GR_I,
    GaussianRational,
    TruncatedPoly,
    X_VARS,
    poly_diff,
    poly_from_monomials,
    poly_mul,
    rat,
)
from .geometry import (
    EPSILON,
    CurvatureConfig,
    MetricJet,
    build_metric_jet,
    covector_norm_sq,
    euclid_norm_power_jet,
    norm_power,
    raised_covector,
    riemann_from_ricci,
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

_WORK_ORDER = 4


def hodge_symbol(cfg: CurvatureConfig) -> tuple:
    """Degree-1 and degree-0 symbol parts of the Hodge Laplacian on 1-forms.

    Returns (q1, q0) as matrices of truncated polynomials: q1 is linear in
    the covector and quadratic in x, q0 linear in x, both assembled from the
    covariant derivatives of Ricci and Riemann at the origin.  Accurate up to
    the stated higher-order-in-x remainders.
    """
    if any(v != 0 for row in cfg.ric0 for v in row):
        raise ValueError("requires vanishing Ricci tensor at the origin")
    _, driem0 = riemann_from_ricci(cfg)
    dric = cfg.dric0
    order = _WORK_ORDER

    # a_al{}^{be ga}{}_{mu nu}; index raising at the origin is trivial.
    def a_tensor(al, be, ga, mu, nu):
        val = rat(0)
        if al == be:
            val += rat(1, 2) * dric[mu][ga][nu] - rat(1, 12) * dric[ga][mu][nu]
        val -= (
            driem0[al][ga][mu][be][nu]
            - 3 * driem0[mu][ga][al][be][nu]
            + 5 * driem0[nu][ga][mu][be][al]
        ) * rat(1, 6)
        return val

    def b_tensor(al, be, nu):
        return (
            -rat(1, 6) * dric[be][al][nu]
            + rat(1, 2) * dric[al][be][nu]
            + rat(1, 2) * dric[nu][al][be]
        )

    def q1_entry(al, be):
        # xi_ga x_mu x_nu with xi_ga = delta_{ga 3} + e_ga: two monomials.
        terms = []
        for ga, mu, nu in itertools.product(range(3), repeat=3):
            coeff = a_tensor(al, be, ga, mu, nu)
            terms.append((coeff, (E1 + ga, mu, nu)))
            if ga == 2:
                terms.append((coeff, (mu, nu)))
        return poly_from_monomials(order, terms).scale(GR_I)

    def q0_entry(al, be):
        return poly_from_monomials(order, [(b_tensor(al, be, nu), (nu,)) for nu in X_VARS])

    return tensor(q1_entry, 2), tensor(q0_entry, 2)


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


def sqrt_hierarchy(q1: Matrix, q0: Matrix, mj: MetricJet) -> HodgeHierarchy:
    """Solve the symbol hierarchy for the square-root powers.

    r0, r_m1, r_m2 are the components of the half power below the Riemannian
    norm; s_m2, s_m3, s_m4 those of the inverse-half power below the inverse
    norm.  Each identity mixes the Euclidean norm jet (covector derivatives)
    with Riemannian norm jets (base derivatives), exactly as the hierarchy is
    stated, and each result is reliable only up to its stated remainder.
    """
    order = _WORK_ORDER
    ident = identity_mat(order)
    xi = xi_polys(order)

    eu1 = euclid_norm_power_jet(1, order)
    eum1 = euclid_norm_power_jet(-1, order)
    eum2 = euclid_norm_power_jet(-2, order)
    quad = covector_norm_sq(raised_covector(mj, order))
    rn1 = norm_power(quad, 1)
    rnm1 = norm_power(quad, -1)

    half = rat(1, 2)
    inv_i = -GR_I  # 1/i

    def dxi(p: TruncatedPoly, *vs: int) -> TruncatedPoly:
        for v in vs:
            p = poly_diff(p, ETA_VARS[v])
        return p

    # xi^mu / |xi|^2, the weights of the transport term.
    eum2_xi = [poly_mul(eum2, x) for x in xi]

    def transport_term(m: Matrix) -> Matrix:
        """(1/(i |xi|^2)) xi^mu d_x^mu applied to a matrix symbol."""
        out = None
        for mu, weight in enumerate(eum2_xi):
            term = mat_map(lambda p: poly_mul(weight, poly_diff(p, mu)), m)
            out = term if out is None else mat_add(out, term)
        return mat_scale(out, inv_i)

    def derivative_term(m: Matrix, weight, rank: int) -> Matrix:
        """weight * sum over index tuples I of rank `rank` of the eta
        derivative d^I |xi| times the x derivative d^I m."""
        out = None
        for idx in itertools.product(range(3), repeat=rank):
            dm = m
            for v in idx:
                dm = mat_diff(dm, v)
            term = mat_poly_scale(dm, dxi(eu1, *idx))
            out = term if out is None else mat_add(out, term)
        return mat_poly_scale(out, weight)

    rn_mat = mat_poly_scale(ident, rn1)
    rnm1_mat = mat_poly_scale(ident, rnm1)

    half_eum1 = eum1.scale(half)

    r0 = mat_add(
        mat_poly_scale(q1, half_eum1),
        mat_scale(transport_term(rn_mat), rat(-1, 2)),
    )
    r_m1 = mat_add(
        mat_add(
            mat_poly_scale(q0, half_eum1),
            mat_scale(transport_term(r0), rat(-1, 2)),
        ),
        derivative_term(rn_mat, eum1.scale(rat(1, 4)), 2),
    )
    r_m2 = mat_add(
        mat_add(
            mat_scale(transport_term(r_m1), rat(-1, 2)),
            derivative_term(r0, eum1.scale(rat(1, 4)), 2),
        ),
        mat_scale(derivative_term(rn_mat, eum1.scale(rat(1, 12)), 3), inv_i),
    )

    s_m2 = mat_add(
        mat_scale(mat_poly_scale(r0, eum2), rat(-1)),
        mat_scale(transport_term(rnm1_mat), rat(-1)),
    )
    s_m3 = mat_add(
        mat_add(
            mat_scale(mat_poly_scale(r_m1, eum2), rat(-1)),
            mat_scale(transport_term(s_m2), rat(-1)),
        ),
        derivative_term(rnm1_mat, eum1.scale(half), 2),
    )
    s_m4 = mat_add(
        mat_add(
            mat_add(
                mat_scale(mat_poly_scale(r_m2, eum2), rat(-1)),
                mat_scale(transport_term(s_m3), rat(-1)),
            ),
            derivative_term(s_m2, eum1.scale(half), 2),
        ),
        mat_scale(derivative_term(rnm1_mat, eum1.scale(rat(1, 6)), 3), inv_i),
    )

    return HodgeHierarchy(mj, q1, q0, r0, r_m1, r_m2, s_m2, s_m3, s_m4)


def build_hierarchy(cfg: CurvatureConfig) -> HodgeHierarchy:
    q1, q0 = hodge_symbol(cfg)
    mj = build_metric_jet(cfg, order=_WORK_ORDER)
    return sqrt_hierarchy(q1, q0, mj)


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
