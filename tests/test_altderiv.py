"""Alternative asymmetry-value route through the Hodge square-root hierarchy."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from curlasym.altderiv import (
    aprin_alternative,
    build_hierarchy,
    hodge_symbol,
    sqrt_hierarchy,
)
from curlasym.calculus import SymbolJet, compose, identity_jet
from curlasym.configs import (
    UNIT_CONFIG_NAMES,
    random_bianchi_config,
    unit_config,
)
from curlasym.exactpoly import GaussianRational, poly_mul
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
    mat_is_zero,
    mat_map,
    mat_sub,
    mat_truncate,
)
from curlasym.projections import aprin_closed_form


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


class TestHodgeSymbol:
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
