"""Metric jets, norm jets, curl and exterior symbols, transport maps."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from itertools import permutations, product

import pytest

from curlasym.configs import (
    UNIT_CONFIG_NAMES,
    CurvatureConfig,
    random_bianchi_config,
    random_config,
    unit_config,
)
from curlasym.exactpoly import (
    GR_I,
    TruncatedPoly,
    poly_add,
    poly_diff,
    poly_from_monomials,
    poly_mul,
)
from curlasym.geometry import (
    build_metric_jet,
    curl_symbol,
    d_delta_symbols,
    euclid_norm_power_jet,
    norm_power_jet,
    raised_covector,
    riemann_from_ricci,
    transport_jet,
    xi_polys,
)
from curlasym.polymat import (
    identity_mat,
    mat_is_zero,
    mat_mul,
    mat_sub,
    mat_transpose,
    tensor,
)

from conftest import ORDER_CONFIGS, epsilon, gr, identity_jet, orders


def _oracle_configs(seed: int, count: int = 8) -> list:
    """The 24 unit configs and `count` seeded random ones."""
    rng = random.Random(seed)
    return [unit_config(n) for n in UNIT_CONFIG_NAMES] + [
        random_config(rng) for _ in range(count)
    ]


def _fraction_metric(cfg, order):
    """g = delta - (1/3) Riem x x - (1/6) (grad Riem) x x x, one Fraction
    per ordered index tuple."""
    riem0, driem0 = riemann_from_ricci(cfg)

    def entry(a, b):
        terms = [(1 if a == b else 0, ())]
        terms += [
            (Fraction(-riem0[a][m][b][n], 3), (m, n))
            for m, n in product(range(3), repeat=2)
        ]
        terms += [
            (Fraction(-driem0[s][a][m][b][n], 6), (s, m, n))
            for s, m, n in product(range(3), repeat=3)
        ]
        return poly_from_monomials(order, terms)

    return tensor(entry, 2)


def _diff_chain_d2gamma0(mj):
    """d_n d_r Gamma^a_{bc} at the origin by two formal derivatives."""
    return tensor(
        lambda a, b, c, n, r: poly_diff(
            poly_diff(mj.gamma[a][b][c], n), r
        ).constant_term(),
        5,
    )


def mono(exps, num, den=1):
    """Degree-3 monomial with the given exponent tuple and rational coefficient."""
    return TruncatedPoly(3, {tuple(exps): gr(Fraction(num, den))})


class TestCurvatureConfig:
    def test_flat(self):
        cfg = unit_config("flat")
        assert cfg == CurvatureConfig(((0, 0, 0),) * 3, (((0, 0, 0),) * 3,) * 3)
        assert cfg.scalar0() == 0

    def test_scalar_contractions(self):
        cfg = unit_config("c1")
        assert cfg.scalar0() == 1
        cfg = unit_config("c2")
        assert cfg.scalar0() == 0
        cfg = unit_config("c7")
        assert cfg.dscalar0(0) == 1
        assert cfg.dscalar0(1) == 0

    def test_serialization_roundtrip(self):
        rng = random.Random(11)
        cfg = random_config(rng)
        assert CurvatureConfig.loads(cfg.dumps()) == cfg

    def test_asymmetric_input_rejected(self):
        ric = [[Fraction(0)] * 3 for _ in range(3)]
        ric[0][1] = Fraction(1)
        dric = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        with pytest.raises(ValueError):
            CurvatureConfig(ric, dric)

    @pytest.mark.parametrize("entry", [0.1, 1.0, float("nan")])
    def test_float_entry_rejected(self, entry):
        zero = [[0] * 3 for _ in range(3)]
        ric = [[entry, 0, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(ValueError, match="float"):
            CurvatureConfig(ric, [zero] * 3)
        with pytest.raises(ValueError, match="float"):
            CurvatureConfig(zero, [ric, zero, zero])

    def test_fraction_entries_kept_as_given(self):
        """A Fraction entry is stored as it is, an int as its Fraction; a
        float or a bool is still refused."""
        x = Fraction(-7, 3)
        zero = [[0] * 3 for _ in range(3)]
        ric = [[x, 0, 0], [0, 0, 0], [0, 0, 0]]
        cfg = CurvatureConfig(ric, [zero, zero, ric])
        assert cfg.ric0[0][0] is x and cfg.dric0[2][0][0] is x
        assert type(cfg.ric0[1][1]) is Fraction and cfg.ric0[1][1] == 0
        for bad in (0.5, True):
            ric[0][0] = bad
            with pytest.raises(ValueError):
                CurvatureConfig(ric, [zero] * 3)
            with pytest.raises(ValueError):
                CurvatureConfig(zero, [zero, zero, ric])

    @pytest.mark.parametrize(
        "entry",
        [None, [0], True, Decimal("0.5")],
        ids=["None", "nested", "bool", "Decimal"],
    )
    def test_direct_construction_refuses_what_json_refuses(self, entry):
        """One validator for both paths: a wrongly nested or non-rational
        entry raised TypeError, and a bool was stored as 1."""
        zero = [[0] * 3 for _ in range(3)]
        bad = [[entry, 0, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(ValueError, match="^ric must be a 3x3 list"):
            CurvatureConfig(bad, [zero] * 3)
        with pytest.raises(ValueError, match="^dric must be a 3x3x3 list"):
            CurvatureConfig(zero, [bad, zero, zero])

    @pytest.mark.parametrize("value", [None, 0, [0, 0, 0], [[0] * 3] * 2])
    def test_direct_construction_refuses_wrong_shapes(self, value):
        zero = [[0] * 3 for _ in range(3)]
        with pytest.raises(ValueError, match="^ric must be a 3x3 list"):
            CurvatureConfig(value, [zero] * 3)
        with pytest.raises(ValueError, match="^dric must be a 3x3x3 list"):
            CurvatureConfig(zero, [zero, zero, value])

    @pytest.mark.parametrize("name", ["flat", *UNIT_CONFIG_NAMES])
    def test_unit_configs_are_shared(self, name):
        """A unit config is built once per process: every call returns the
        same frozen record, which equals a fresh parse of its JSON."""
        cfg = unit_config(name)
        assert unit_config(name) is cfg
        assert cfg == CurvatureConfig.loads(cfg.dumps())

    def test_unknown_unit_config_raises_on_every_call(self):
        """The cache stores no exception: each call refuses the name again."""
        for _ in range(3):
            with pytest.raises(ValueError, match="^unknown configuration 'c25'$"):
                unit_config("c25")

    def test_equal_configs_hash_equal(self):
        cfg = random_config(random.Random(13))
        as_lists = [[str(v) for v in row] for row in cfg.ric0]
        same = CurvatureConfig(as_lists, [list(m) for m in cfg.dric0])
        assert same == cfg and hash(same) == hash(cfg)
        assert len({cfg, same, unit_config("flat")}) == 2

    def test_records_are_frozen(self):
        cfg = unit_config("c7")
        mj = build_metric_jet(cfg)
        tj = transport_jet(mj, "origin_to_y")
        for record, field in ((cfg, "ric0"), (mj, "g"), (tj, "z_vector")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_records_reject_new_and_existing_names(self):
        # dataclass(slots=True) made these raise TypeError for a new name.
        mj = build_metric_jet(unit_config("c7"))
        records = (
            identity_jet(2),
            mj.config,
            mj,
            transport_jet(mj, "origin_to_y"),
        )
        for record in records:
            for name in ("foo", type(record).__slots__[0]):
                with pytest.raises(AttributeError):
                    setattr(record, name, 1)

    def test_contracted_bianchi_selects_the_geometric_unit_configs(self):
        """The nine sweep configs that a metric can have, as the docs name them."""

        def obeys(cfg):
            # sum_a grad_a Ric_ab = (1/2) grad_b Sc at the origin, for every b.
            d = cfg.dric0
            return all(
                2 * sum(d[a][a][b] for a in range(3)) == sum(d[b][a][a] for a in range(3))
                for b in range(3)
            )

        geometric = [name for name in UNIT_CONFIG_NAMES if obeys(unit_config(name))]
        assert geometric == ["c1", "c2", "c3", "c4", "c5", "c6", "c11", "c15", "c20"]
        rng = random.Random(7)
        assert all(obeys(random_bianchi_config(rng)) for _ in range(5))
        assert not any(obeys(random_config(random.Random(s))) for s in range(5))


class TestRiemannFromRicci:
    def test_ricci_contraction_recovered(self):
        rng = random.Random(12)
        cfg = random_config(rng)
        riem, driem = riemann_from_ricci(cfg)
        for a in range(3):
            for b in range(3):
                assert sum(riem[m][a][m][b] for m in range(3)) == cfg.ric0[a][b]
                for s in range(3):
                    assert (
                        sum(driem[s][m][a][m][b] for m in range(3))
                        == cfg.dric0[s][a][b]
                    )

    def test_symmetries(self):
        rng = random.Random(13)
        cfg = random_config(rng)
        riem, _ = riemann_from_ricci(cfg)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        assert riem[a][b][c][d] == -riem[b][a][c][d]
                        assert riem[a][b][c][d] == -riem[a][b][d][c]
                        assert riem[a][b][c][d] == riem[c][d][a][b]

    def test_matches_delta_product_formula(self):
        """Every entry is a Fraction equal to the Kronecker-delta products of
        the dimension-3 identity, on the unit configs and random ones."""

        def delta(a, b):
            return 1 if a == b else 0

        def oracle(ric, scal, a, b, c, d):
            half_scal = Fraction(scal, 2)
            return (
                ric[a][c] * delta(b, d)
                - ric[a][d] * delta(b, c)
                + ric[b][d] * delta(a, c)
                - ric[b][c] * delta(a, d)
                + half_scal * (delta(a, d) * delta(b, c) - delta(a, c) * delta(b, d))
            )

        rng = random.Random(14)
        configs = [unit_config(name) for name in UNIT_CONFIG_NAMES]
        configs += [random_config(rng) for _ in range(8)]
        for cfg in configs:
            riem, driem = riemann_from_ricci(cfg)
            tensors = [(riem, cfg.ric0, cfg.scalar0())]
            tensors += [
                (driem[s], cfg.dric0[s], cfg.dscalar0(s)) for s in range(3)
            ]
            for got, ric, scal in tensors:
                for a, b, c, d in product(range(3), repeat=4):
                    entry = got[a][b][c][d]
                    assert type(entry) is Fraction
                    assert entry == oracle(ric, scal, a, b, c, d)


class TestMetricJet:
    def test_flat_is_identity(self):
        mj = build_metric_jet(unit_config("flat"), order=3)
        assert mj.g == identity_mat(3)
        assert mj.g_inv == identity_mat(3)
        assert mj.rho == TruncatedPoly.constant(1, 3)

    def test_c1_golden(self):
        mj = build_metric_jet(unit_config("c1"), order=3)
        one = TruncatedPoly.constant(1, 3)
        g11 = poly_add(
            one,
            poly_add(mono((0, 2, 0, 0, 0, 0), -1, 6), mono((0, 0, 2, 0, 0, 0), -1, 6)),
        )
        assert mj.g[0][0] == g11
        assert mj.g[0][1] == mono((1, 1, 0, 0, 0, 0), 1, 6)
        assert mj.g[1][2] == mono((0, 1, 1, 0, 0, 0), -1, 6)
        assert mj.rho == poly_add(one, mono((2, 0, 0, 0, 0, 0), -1, 6))

    def test_c11_golden(self):
        mj = build_metric_jet(unit_config("c11"), order=3)
        one = TruncatedPoly.constant(1, 3)
        assert mj.g[0][0] == poly_add(one, mono((1, 1, 1, 0, 0, 0), -1, 3))
        assert mj.g[0][1] == mono((2, 0, 1, 0, 0, 0), 1, 6)
        assert mj.g[1][2] == mono((3, 0, 0, 0, 0, 0), -1, 6)
        assert mj.rho == poly_add(one, mono((1, 1, 1, 0, 0, 0), -1, 6))

    def test_inverse_and_density_consistency(self):
        rng = random.Random(14)
        for _ in range(5):
            cfg = random_config(rng)
            mj = build_metric_jet(cfg, order=3)
            prod = mat_mul(mj.g, mj.g_inv)
            assert mat_is_zero(mat_sub(prod, identity_mat(3)))
            det = sum(
                (
                    poly_mul(poly_mul(mj.g[0][i], mj.g[1][j]), mj.g[2][k]).scale(
                        epsilon(i, j, k)
                    )
                    for i, j, k in permutations(range(3))
                ),
                TruncatedPoly.zero(3),
            )
            assert poly_mul(mj.rho, mj.rho) == det
            assert mj.g == mat_transpose(mj.g)

    @pytest.mark.parametrize("order", (3, 4))
    def test_metric_matches_fraction_formula(self, order):
        for cfg in _oracle_configs(16):
            assert build_metric_jet(cfg, order).g == _fraction_metric(cfg, order)

    @pytest.mark.parametrize("order", (3, 4))
    def test_d2gamma0_matches_derivative_chain(self, order):
        for cfg in _oracle_configs(17):
            mj = build_metric_jet(cfg, order)
            assert mj.d2gamma0() == _diff_chain_d2gamma0(mj)

    def test_christoffel_symmetry_and_origin(self):
        rng = random.Random(15)
        cfg = random_config(rng)
        mj = build_metric_jet(cfg, order=3)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert mj.gamma[a][b][c] == mj.gamma[a][c][b]
                    assert mj.gamma[a][b][c].constant_term().is_zero()


class TestNormJets:
    def test_riemannian_inverse_pair(self):
        rng = random.Random(16)
        cfg = random_config(rng)
        mj = build_metric_jet(cfg, order=3)
        plus = norm_power_jet(mj, 1, 3)
        minus = norm_power_jet(mj, -1, 3)
        assert poly_mul(plus, minus) == TruncatedPoly.constant(1, 3)
        sq = norm_power_jet(mj, 2, 3)
        assert poly_mul(plus, plus) == sq

    def test_riemannian_square_is_quadratic_form(self):
        rng = random.Random(17)
        cfg = random_config(rng)
        mj = build_metric_jet(cfg, order=3)
        xi = xi_polys(3)
        acc = TruncatedPoly.zero(3)
        for a in range(3):
            for b in range(3):
                acc = poly_add(acc, poly_mul(mj.g_inv[a][b], poly_mul(xi[a], xi[b])))
        assert norm_power_jet(mj, 2, 3) == acc

    def test_euclid_pair(self):
        plus = euclid_norm_power_jet(1, 4)
        minus = euclid_norm_power_jet(-1, 4)
        assert poly_mul(plus, minus) == TruncatedPoly.constant(1, 4)
        xi = xi_polys(4)
        sq = poly_add(
            poly_add(poly_mul(xi[0], xi[0]), poly_mul(xi[1], xi[1])),
            poly_mul(xi[2], xi[2]),
        )
        assert euclid_norm_power_jet(2, 4) == sq

    def test_flat_norms_agree(self):
        mj = build_metric_jet(unit_config("flat"), order=3)
        assert norm_power_jet(mj, -1, 3) == euclid_norm_power_jet(-1, 3)


class TestOperatorSymbols:
    def test_flat_curl_principal(self):
        mj = build_metric_jet(unit_config("flat"), order=3)
        jet = curl_symbol(mj, accuracy=2)
        xi = xi_polys(2)
        for a in range(3):
            for b in range(3):
                expect = TruncatedPoly.zero(2)
                for c in range(3):
                    s = epsilon(a, b, c)
                    if s:
                        expect = poly_add(expect, xi[c].scale(s))
                assert jet.principal()[a][b] == expect.scale(-GR_I)
        for k in range(1, 3):
            assert mat_is_zero(jet.components[k])

    def test_curl_principal_hermitian_at_origin(self):
        rng = random.Random(18)
        cfg = random_config(rng)
        mj = build_metric_jet(cfg, order=3)
        prin = curl_symbol(mj, accuracy=2).principal()
        at0 = [
            [p.restrict((0, 1, 2)) for p in row] for row in prin
        ]
        for a in range(3):
            for b in range(3):
                assert at0[a][b] == at0[b][a].conjugate()

    def test_d_delta_shapes_and_flat_values(self):
        mj = build_metric_jet(unit_config("flat"), order=3)
        d_sym, delta_sym = d_delta_symbols(mj, accuracy=2)
        assert d_sym.shape == (3, 1)
        assert delta_sym.shape == (1, 3)
        xi = xi_polys(2)
        for a in range(3):
            assert d_sym.principal()[a][0] == xi[a].scale(GR_I)
            assert delta_sym.principal()[0][a] == xi[a].scale(-GR_I)
        assert mat_is_zero(delta_sym.components[1])


class TestOrderContract:
    """Each jet carries the order that min-order arithmetic gives it."""

    @pytest.mark.parametrize("mj_order", (3, 4))
    @pytest.mark.parametrize("accuracy", (2, 3))
    @pytest.mark.parametrize("name", ORDER_CONFIGS)
    def test_jet_orders(self, name, accuracy, mj_order):
        mj = build_metric_jet(ORDER_CONFIGS[name], order=mj_order)
        assert orders(mj.gamma) == {mj_order - 1}
        for n in range(accuracy + 1):
            assert orders(raised_covector(mj, n)) == {n}
        schedule = [{accuracy - k} for k in range(accuracy + 1)]
        for jet in (curl_symbol(mj, accuracy), *d_delta_symbols(mj, accuracy)):
            assert [orders(m) for m in jet.components] == schedule

    def test_order_above_the_metric_jet_refused(self):
        mj = build_metric_jet(unit_config("c11"))
        for build in (raised_covector, curl_symbol, d_delta_symbols):
            with pytest.raises(ValueError, match="exceeds the metric jet order"):
                build(mj, 4)


class TestTransport:
    def test_flat_transport_is_identity(self):
        mj = build_metric_jet(unit_config("flat"), order=3)
        tj = transport_jet(mj, "origin_to_y")
        assert tj.z_vector == identity_mat(3)
        assert tj.z_covector == identity_mat(3)

    def test_round_trip(self):
        rng = random.Random(19)
        cfg = random_config(rng)
        mj = build_metric_jet(cfg, order=3)
        out = transport_jet(mj, "origin_to_y")
        back = transport_jet(mj, "y_to_origin")
        assert mat_is_zero(
            mat_sub(mat_mul(out.z_vector, back.z_vector), identity_mat(3))
        )

    def test_vector_covector_duality(self):
        rng = random.Random(20)
        cfg = random_config(rng)
        mj = build_metric_jet(cfg, order=3)
        tj = transport_jet(mj, "origin_to_y")
        assert mat_is_zero(
            mat_sub(mat_mul(tj.z_vector, tj.z_covector), identity_mat(3))
        )

    def test_tau_endpoints(self):
        rng = random.Random(21)
        cfg = random_config(rng)
        mj = build_metric_jet(cfg, order=3)
        unit = transport_jet(mj, ("y_to_tau_y", 1))
        assert unit.z_vector == identity_mat(3)
        to_origin = transport_jet(mj, ("y_to_tau_y", 0))
        assert to_origin.z_vector == transport_jet(mj, "y_to_origin").z_vector

    def test_unknown_endpoints_rejected(self):
        mj = build_metric_jet(unit_config("flat"), order=3)
        with pytest.raises(ValueError):
            transport_jet(mj, "elsewhere")
