"""Alternative asymmetry-value route through the Hodge square-root hierarchy."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from curlasym.altderiv import (
    _WORK_ORDER,
    _derivative_term,
    aprin_alternative,
    build_hierarchy,
    hodge_symbol,
    sqrt_hierarchy,
)
from curlasym.calculus import SymbolJet, compose
from curlasym.configs import (
    UNIT_CONFIG_NAMES,
    random_bianchi_config,
    unit_config,
)
from curlasym.exactpoly import (
    E1,
    ETA_VARS,
    GR_I,
    X_VARS,
    GaussianRational,
    poly_diff,
    poly_from_monomials,
    poly_mul,
)
from curlasym.geometry import (
    CurvatureConfig,
    build_metric_jet,
    curl_symbol,
    d_delta_symbols,
    euclid_norm_power_jet,
    norm_power_jet,
    xi_polys,
)
from curlasym.polymat import (
    identity_mat,
    mat_add,
    mat_diff,
    mat_is_zero,
    mat_map,
    mat_poly_scale,
    mat_sub,
    mat_truncate,
    tensor,
)
from curlasym.projections import aprin_closed_form

from conftest import identity_jet, random_matrix, random_poly


def _power_jets(h):
    """Half and inverse-half power jets assembled from hierarchy components."""
    rn1 = norm_power_jet(h.mj, 1, 3)
    rnm1 = norm_power_jet(h.mj, -1, 3)
    lead_r = mat_map(lambda p: poly_mul(rn1, p), identity_mat(3))
    lead_s = mat_map(lambda p: poly_mul(rnm1, p), identity_mat(3))
    r_jet = SymbolJet(
        1,
        3,
        (3, 3),
        [
            lead_r,
            mat_truncate(h.r0, 2),
            mat_truncate(h.r_m1, 1),
            mat_truncate(h.r_m2, 0),
        ],
    )
    s_jet = SymbolJet(
        -1,
        3,
        (3, 3),
        [
            lead_s,
            mat_truncate(h.s_m2, 2),
            mat_truncate(h.s_m3, 1),
            mat_truncate(h.s_m4, 0),
        ],
    )
    return r_jet, s_jet


def _fraction_hodge_symbol(mj):
    """hodge_symbol's (q1, q0) with each tensor entry summed in Fraction
    arithmetic, term by term from the curvature-derivative formula."""
    driem0 = mj.driem0
    dric = mj.config.dric0

    def a_tensor(al, be, ga, mu, nu):
        val = Fraction(0)
        if al == be:
            val += Fraction(1, 2) * dric[mu][ga][nu]
            val -= Fraction(1, 12) * dric[ga][mu][nu]
        val -= (
            driem0[al][ga][mu][be][nu]
            - 3 * driem0[mu][ga][al][be][nu]
            + 5 * driem0[nu][ga][mu][be][al]
        ) * Fraction(1, 6)
        return val

    def b_tensor(al, be, nu):
        return (
            -Fraction(1, 6) * dric[be][al][nu]
            + Fraction(1, 2) * dric[al][be][nu]
            + Fraction(1, 2) * dric[nu][al][be]
        )

    def q1_entry(al, be):
        terms = []
        for ga, mu, nu in itertools.product(range(3), repeat=3):
            coeff = a_tensor(al, be, ga, mu, nu)
            terms.append((coeff, (E1 + ga, mu, nu)))
            if ga == 2:
                terms.append((coeff, (mu, nu)))
        return poly_from_monomials(_WORK_ORDER, terms).scale(GR_I)

    def q0_entry(al, be):
        terms = [(b_tensor(al, be, nu), (nu,)) for nu in X_VARS]
        return poly_from_monomials(_WORK_ORDER, terms)

    return tensor(q1_entry, 2), tensor(q0_entry, 2)


def _ordered_derivative_term(m, weight, p, rank):
    """weight * the sum of d^I p * d^I m over every ordered index tuple I of
    the rank, each derivative taken from scratch: the term as written."""
    out = None
    for idx in itertools.product(range(3), repeat=rank):
        dm, dp = m, p
        for v in idx:
            dm = mat_diff(dm, v)
            dp = poly_diff(dp, ETA_VARS[v])
        term = mat_poly_scale(dm, dp)
        out = term if out is None else mat_add(out, term)
    return mat_poly_scale(out, weight)


class TestHodgeSymbol:
    def test_matches_fraction_formula(self):
        """On the 18 Ricci-flat unit configs and seeded Bianchi configs."""
        rng = random.Random(123)
        cfgs = [unit_config(name) for name in UNIT_CONFIG_NAMES[6:]]
        cfgs += [random_bianchi_config(rng) for _ in range(6)]
        for cfg in cfgs:
            mj = build_metric_jet(cfg, order=_WORK_ORDER)
            assert hodge_symbol(mj) == _fraction_hodge_symbol(mj)

    def test_requires_ricci_flat_origin(self):
        with pytest.raises(ValueError):
            hodge_symbol(build_metric_jet(unit_config("c1")))

    def test_flat_is_zero(self):
        q1, q0 = hodge_symbol(build_metric_jet(CurvatureConfig.flat()))
        assert mat_is_zero(q1)
        assert mat_is_zero(q0)

    def test_composition_oracle_on_bianchi_configs(self):
        """The curvature-tensor assembly agrees with composing the curl and
        exterior-derivative symbols whenever the derivative data satisfies the
        contracted Bianchi constraint of a genuine metric."""
        rng = random.Random(120)
        for _ in range(5):
            cfg = random_bianchi_config(rng)
            mj = build_metric_jet(cfg, order=3)
            q1, q0 = hodge_symbol(mj)
            curl = curl_symbol(mj, accuracy=3)
            d_sym, delta_sym = d_delta_symbols(mj, accuracy=3)
            lap = compose(curl, curl) + compose(d_sym, delta_sym)
            assert mat_is_zero(
                mat_sub(mat_truncate(q1, 2), lap.components[1])
            )
            assert mat_is_zero(
                mat_sub(mat_truncate(q0, 1), lap.components[2])
            )


class TestSqrtHierarchy:
    @pytest.mark.parametrize("rank", (1, 2, 3))
    def test_derivative_term_matches_ordered_sum(self, rank):
        """On seeded random order-4 matrices, weights and eta polynomials."""
        rng = random.Random(130 + rank)
        for _ in range(3):
            m = random_matrix(rng, _WORK_ORDER)
            weight = random_poly(rng, _WORK_ORDER)
            p = random_poly(rng, _WORK_ORDER)
            derivs = {}
            for idx in itertools.product(range(3), repeat=rank):
                dp = p
                for v in idx:
                    dp = poly_diff(dp, ETA_VARS[v])
                derivs[idx] = dp
            expected = _ordered_derivative_term(m, weight, p, rank)
            assert _derivative_term(m, weight, derivs, rank) == expected

    def test_flat_subleading_components_vanish(self):
        h = build_hierarchy(CurvatureConfig.flat())
        for m in (h.r0, h.r_m1, h.r_m2, h.s_m2, h.s_m3, h.s_m4):
            assert mat_is_zero(m)
        assert aprin_alternative(h).is_zero()

    def test_half_powers_are_mutually_inverse(self):
        """Composing the half and inverse-half power jets gives the identity
        symbol through every retained degree, in both orders."""
        for name in ("c11", "c7", "c20"):
            h = build_hierarchy(unit_config(name))
            r_jet, s_jet = _power_jets(h)
            ident = identity_jet(3)
            assert compose(r_jet, s_jet) == ident
            assert compose(s_jet, r_jet) == ident

    def test_half_power_squares_to_laplacian_oracle(self):
        """The half-power jet composed with itself reproduces the symbol of
        the operator it is a square root of."""
        rng = random.Random(121)
        cfg = random_bianchi_config(rng)
        h = build_hierarchy(cfg)
        r_jet, _ = _power_jets(h)
        square = compose(r_jet, r_jet)
        mj = build_metric_jet(cfg, order=3)
        curl = curl_symbol(mj, accuracy=3)
        d_sym, delta_sym = d_delta_symbols(mj, accuracy=3)
        lap = compose(curl, curl) + compose(d_sym, delta_sym)
        assert square == lap

    def test_c11_deep_component_goldens(self):
        """Frozen anchor data of the two deepest inverse-half components for
        the Ricci-derivative unit config."""
        h = build_hierarchy(unit_config("c11"))
        expected_lin = {
            (0, 1): {2: Fraction(-1, 4)},
            (0, 2): {1: Fraction(-1, 4)},
            (1, 0): {2: Fraction(1, 12)},
            (1, 2): {0: Fraction(-1, 4)},
            (2, 0): {1: Fraction(1, 12)},
            (2, 1): {0: Fraction(-1, 4)},
        }
        for a in range(3):
            for b in range(3):
                p = h.s_m3[a][b].restrict((3, 4, 5))
                lin = {
                    exp.index(1): c
                    for exp, c in p.terms.items()
                    if sum(exp) == 1
                }
                want = expected_lin.get((a, b), {})
                assert set(lin) == set(want)
                for var, val in want.items():
                    assert lin[var] == GaussianRational(val)
        for a in range(3):
            for b in range(3):
                v = h.s_m4[a][b].constant_term()
                if (a, b) == (1, 0):
                    assert v == GaussianRational(0, Fraction(-1, 2))
                else:
                    assert v.is_zero()


class TestAlternativeValue:
    def test_c11(self):
        assert aprin_alternative(build_hierarchy(unit_config("c11"))) == Fraction(
            -1, 2
        )

    def test_all_derivative_unit_configs_match_both_pipelines(self):
        """For the 18 Ricci-derivative unit configs the hierarchy route, the
        projection route, and the closed form agree exactly."""
        from curlasym.projections import asymmetry_report

        xi0 = (0, 0, 1)
        for name in UNIT_CONFIG_NAMES[6:]:
            cfg = unit_config(name)
            alt = aprin_alternative(build_hierarchy(cfg))
            closed = aprin_closed_form(cfg, xi0)
            rep = asymmetry_report(cfg)
            assert alt == closed, name
            assert rep.a_prin_value == alt, name

    def test_bianchi_configs_match_closed_form(self):
        rng = random.Random(122)
        xi0 = (0, 0, 1)
        for _ in range(5):
            cfg = random_bianchi_config(rng)
            alt = aprin_alternative(build_hierarchy(cfg))
            assert alt == aprin_closed_form(cfg, xi0)


def test_transport_weights_formed_once_per_mu(monkeypatch):
    """sqrt_hierarchy forms |xi|^-2 xi_mu once per mu, not per matrix entry."""
    from curlasym import altderiv

    eum2 = euclid_norm_power_jet(-2, 4)
    xi = xi_polys(4)
    weights = []
    real = altderiv.poly_mul

    def counting(a, b):
        if a == eum2 and b in xi:
            weights.append(b)
        return real(a, b)

    monkeypatch.setattr(altderiv, "poly_mul", counting)
    altderiv.build_hierarchy(unit_config("c11"))
    assert len(weights) == 3
