"""Symbol calculus: composition, subprincipal, adjoint, transport corrections.

Every property here is exact; the randomized suites run at least 100 cases
each with fixed seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import getitem

import pytest

from curlasym.calculus import (
    SymbolJet,
    adjoint_prin_sub,
    compose,
    conjugate_branch,
    poisson_bracket,
    subprincipal,
    trace_diag,
    transport_correction,
)
from curlasym.configs import UNIT_CONFIG_NAMES, random_config, unit_config
from curlasym.exactpoly import (
    ETA_VARS,
    GR_I,
    GaussianRational,
    TruncatedPoly,
    poly_diff,
)
from curlasym.geometry import (
    CurvatureConfig,
    build_metric_jet,
    curl_symbol,
    d_delta_symbols,
    transport_jet,
)
from curlasym.polymat import (
    identity_mat,
    mat_truncate,
    mat_add,
    mat_conj,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    zero_mat,
)

from conftest import (
    ORDER_CONFIGS,
    constant_jet,
    identity_jet,
    mat_pad,
    orders,
    poly_scale_x,
    random_jet,
    random_matrix,
)


class TestSymbolJet:
    def test_constructor_pads_and_truncates(self):
        m = identity_mat(5)
        jet = SymbolJet(0, 2, (3, 3), [m])
        assert jet.components[0][0][0].order == 2
        assert mat_is_zero(jet.components[1])
        assert mat_is_zero(jet.components[2])

    def test_constructor_rejects_low_order(self):
        m = identity_mat(1)
        with pytest.raises(ValueError):
            SymbolJet(0, 3, (3, 3), [m])

    def test_frozen_and_hashable(self):
        jet = SymbolJet(0, 2, (3, 3), [identity_mat(2)])
        with pytest.raises(AttributeError):
            jet.accuracy = 3
        assert hash(jet) == hash(identity_jet(2))

    def test_linear_structure(self):
        rng = random.Random(31)
        a = random_jet(rng, 2)
        b = random_jet(rng, 2)
        assert (a + b) - b == a
        assert a.scale(Fraction(3)).scale(Fraction(1, 3)) == a
        assert (a - a).is_zero()

    def test_serialization_roundtrip(self):
        rng = random.Random(32)
        for _ in range(10):
            jet = random_jet(rng, 3)
            assert SymbolJet.loads(jet.dumps()) == jet

    def test_serialization_deterministic(self):
        rng = random.Random(33)
        jet = random_jet(rng, 2)
        assert jet.dumps() == SymbolJet.loads(jet.dumps()).dumps()


class TestCompose:
    def test_associative_100(self):
        rng = random.Random(40)
        for _ in range(100):
            a = random_jet(rng, 2, density=0.15)
            b = random_jet(rng, 2, density=0.15)
            c = random_jet(rng, 2, density=0.15)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_identity_neutral(self):
        rng = random.Random(41)
        for _ in range(20):
            a = random_jet(rng, 2)
            ident = identity_jet(2)
            assert compose(a, ident) == a
            assert compose(ident, a) == a

    def test_bilinear(self):
        rng = random.Random(42)
        for _ in range(20):
            a = random_jet(rng, 2)
            b = random_jet(rng, 2)
            c = random_jet(rng, 2)
            assert compose(a, b + c) == compose(a, b) + compose(a, c)
            assert compose(a + b, c) == compose(a, c) + compose(b, c)

    def test_flat_constant_symbols_multiply_pointwise(self):
        rng = random.Random(43)
        m1 = identity_mat(2)
        jet1 = constant_jet(m1, 2)
        jet2 = random_jet(rng, 2)
        assert compose(jet1, jet2) == jet2

    def test_top_degrees_add(self):
        rng = random.Random(44)
        a = random_jet(rng, 2)
        b = random_jet(rng, 2)
        shifted = SymbolJet(1, 2, (3, 3), list(b.components))
        assert compose(a, shifted).top_degree == a.top_degree + 1


class TestConjugateBranch:
    def test_levels_and_involution(self):
        a = random_jet(random.Random(45), 3)
        j = conjugate_branch(a)
        assert j.components[0] == mat_conj(a.components[0])
        assert mat_is_zero(mat_add(j.components[1], mat_conj(a.components[1])))
        assert conjugate_branch(j) == a

    def test_respects_composition(self):
        rng = random.Random(46)
        for _ in range(10):
            a = random_jet(rng, 3, density=0.15)
            b = random_jet(rng, 3, density=0.15)
            assert conjugate_branch(compose(b, a)) == compose(
                conjugate_branch(b), conjugate_branch(a)
            )

    def test_curl_changes_sign(self):
        for cfg in (unit_config("c11"), random_config(random.Random(47))):
            curl = curl_symbol(build_metric_jet(cfg), accuracy=3)
            assert conjugate_branch(curl) == curl.scale(-1)


class TestSubprincipalComposition:
    def test_identity_two_code_paths_100(self):
        """Subprincipal of a composition via the direct formula versus the
        product rule with the (i/2)-weighted covariant Poisson bracket."""
        rng = random.Random(50)
        half_i = GR_I * Fraction(1, 2)
        for _ in range(100):
            cfg = random_config(rng)
            mj = build_metric_jet(cfg, order=3)
            q = random_jet(rng, 2, density=0.15)
            r = random_jet(rng, 2, density=0.15)
            lhs = subprincipal(compose(q, r), mj)
            bracket = poisson_bracket(q.principal(), r.principal(), mj)
            rhs = mat_add(
                mat_add(
                    mat_mul(q.principal(), subprincipal(r, mj)),
                    mat_mul(subprincipal(q, mj), r.principal()),
                ),
                mat_scale(bracket, half_i),
            )
            assert mat_is_zero(mat_sub(lhs, rhs))

    def test_opposite_bracket_weight_fails(self):
        """Negative control: the (-i/2) weight breaks the identity."""
        rng = random.Random(51)
        broken = 0
        half_i = GR_I * Fraction(1, 2)
        for _ in range(10):
            cfg = random_config(rng)
            mj = build_metric_jet(cfg, order=3)
            q = random_jet(rng, 2, density=0.3)
            r = random_jet(rng, 2, density=0.3)
            lhs = subprincipal(compose(q, r), mj)
            bracket = poisson_bracket(q.principal(), r.principal(), mj)
            rhs = mat_add(
                mat_add(
                    mat_mul(q.principal(), subprincipal(r, mj)),
                    mat_mul(subprincipal(q, mj), r.principal()),
                ),
                mat_scale(bracket, -half_i),
            )
            if not mat_is_zero(mat_sub(lhs, rhs)):
                broken += 1
        assert broken > 0


class TestOperatorSubprincipals:
    def test_natural_operators_vanish_100(self):
        """Curl, curl squared, both Hodge compositions and the identity have
        vanishing subprincipal symbol in every curvature configuration."""
        rng = random.Random(60)
        for _ in range(100):
            cfg = random_config(rng)
            mj = build_metric_jet(cfg, order=3)
            curl = curl_symbol(mj, accuracy=2)
            assert mat_is_zero(subprincipal(curl, mj))
            assert mat_is_zero(subprincipal(compose(curl, curl), mj))
            d_sym, delta_sym = d_delta_symbols(mj, accuracy=2)
            assert mat_is_zero(subprincipal(compose(d_sym, delta_sym), mj))
            assert mat_is_zero(subprincipal(compose(delta_sym, d_sym), mj))
            assert mat_is_zero(subprincipal(identity_jet(2), mj))

    def test_requires_two_levels(self):
        mj = build_metric_jet(CurvatureConfig.flat(), order=3)
        with pytest.raises(ValueError):
            subprincipal(identity_jet(1), mj)


class TestAdjoint:
    @staticmethod
    def _jet_with_prin_sub(prin, sub, mj, top_degree):
        """Jet whose principal and subprincipal symbols are the given pair."""
        bare = SymbolJet(top_degree, 2, (3, 3), [prin])
        corr = subprincipal(bare, mj)
        level1 = mat_pad(mat_sub(mat_truncate(sub, 0), corr), 1)
        return SymbolJet(top_degree, 2, (3, 3), [prin, level1])

    def test_involution_100(self):
        """Applying the adjoint twice returns the original pair of principal
        and subprincipal symbols."""
        rng = random.Random(70)
        for _ in range(100):
            cfg = random_config(rng)
            mj = build_metric_jet(cfg, order=3)
            q = random_jet(rng, 2, density=0.2)
            prin, sub = adjoint_prin_sub(q, mj)
            adj = self._jet_with_prin_sub(prin, sub, mj, q.top_degree)
            prin2, sub2 = adjoint_prin_sub(adj, mj)
            assert mat_is_zero(mat_sub(prin2, q.principal()))
            assert mat_is_zero(mat_sub(sub2, subprincipal(q, mj)))

    def test_curl_self_adjoint(self):
        rng = random.Random(71)
        for _ in range(20):
            cfg = random_config(rng)
            mj = build_metric_jet(cfg, order=3)
            curl = curl_symbol(mj, accuracy=2)
            prin, sub = adjoint_prin_sub(curl, mj)
            assert mat_is_zero(mat_sub(prin, curl.principal()))
            assert mat_is_zero(sub)


class TestOrderContract:
    """Each result carries the order that min-order arithmetic gives it."""

    @pytest.mark.parametrize("accuracy", (2, 3))
    @pytest.mark.parametrize("name", ORDER_CONFIGS)
    def test_result_orders(self, name, accuracy):
        mj = build_metric_jet(ORDER_CONFIGS[name])
        rng = random.Random(accuracy)
        q = compose(curl_symbol(mj, accuracy), random_jet(rng, accuracy))
        r = random_jet(rng, accuracy)
        assert orders(subprincipal(q, mj)) == {accuracy - 2}
        for qp, rp in (
            (q.principal(), r.principal()),
            (q.principal(), r.components[1]),
            (q.components[1], r.principal()),
        ):
            expect = min(orders(qp) | orders(rp)) - 1
            assert orders(poisson_bracket(qp, rp, mj)) == {expect}
        prin, sub = adjoint_prin_sub(q, mj)
        assert orders(prin) == {accuracy}
        assert orders(sub) == {accuracy - 2}

    @pytest.mark.parametrize("name", ORDER_CONFIGS)
    def test_lower_accuracy_is_the_truncation(self, name):
        """The accuracy-2 results are the accuracy-3 ones truncated."""
        mj = build_metric_jet(ORDER_CONFIGS[name])
        rng = random.Random(3)
        q3 = compose(curl_symbol(mj, 3), random_jet(rng, 3))
        q2 = SymbolJet(q3.top_degree, 2, q3.shape, q3.components[:3])
        assert subprincipal(q2, mj) == mat_truncate(subprincipal(q3, mj), 0)
        prin3, sub3 = adjoint_prin_sub(q3, mj)
        assert adjoint_prin_sub(q2, mj) == (
            mat_truncate(prin3, 2),
            mat_truncate(sub3, 0),
        )
        bracket3 = poisson_bracket(q3.principal(), q3.principal(), mj)
        bracket2 = poisson_bracket(q2.principal(), q2.principal(), mj)
        assert bracket2 == mat_truncate(bracket3, 1)

    def test_bracket_refuses_order_zero(self):
        mj = build_metric_jet(CurvatureConfig.flat())
        with pytest.raises(ValueError, match="order >= 1"):
            poisson_bracket(identity_mat(0), identity_mat(2), mj)


class TestTrace:
    def test_linear(self):
        rng = random.Random(80)
        a = random_jet(rng, 2)
        b = random_jet(rng, 2)
        assert trace_diag(a + b) == trace_diag(a) + trace_diag(b)

    def test_identity_trace(self):
        tr = trace_diag(identity_jet(2))
        assert tr.principal()[0][0] == TruncatedPoly.constant(3, 2)

    def test_cyclic_on_constant_matrices(self):
        rng = random.Random(81)
        def const_of(m):
            return tuple(
                tuple(TruncatedPoly.constant(p.constant_term(), 2) for p in row)
                for row in m
            )

        a = constant_jet(const_of(random_matrix(rng, 2)), 2)
        b = constant_jet(const_of(random_matrix(rng, 2)), 2)
        assert trace_diag(compose(a, b)) == trace_diag(compose(b, a))


class TestTransportMaps:
    def test_round_trip_100(self):
        rng = random.Random(90)
        for _ in range(100):
            cfg = random_config(rng)
            mj = build_metric_jet(cfg, order=3)
            out = transport_jet(mj, "origin_to_y")
            back = transport_jet(mj, "y_to_origin")
            assert mat_is_zero(
                mat_sub(mat_mul(out.z_vector, back.z_vector), identity_mat(3))
            )
            assert mat_is_zero(
                mat_sub(mat_mul(out.z_vector, out.z_covector), identity_mat(3))
            )

    def test_tau_independence_100(self):
        """Transporting y -> tau y -> origin composes to the tau-independent
        map y -> origin for every intermediate scaling."""
        rng = random.Random(91)
        taus = (Fraction(0), Fraction(1, 2), Fraction(1))
        for _ in range(34):
            cfg = random_config(rng)
            mj = build_metric_jet(cfg, order=3)
            to0 = transport_jet(mj, "y_to_origin")
            for tau in taus:
                mid = transport_jet(mj, ("y_to_tau_y", tau))
                tail = tuple(
                    tuple(poly_scale_x(p, tau) for p in row)
                    for row in to0.z_vector
                )
                comp = mat_mul(mid.z_vector, tail)
                assert mat_is_zero(mat_sub(comp, to0.z_vector))


class TestTransportCorrection:
    @staticmethod
    def _asym_parts(cfg):
        from curlasym.projections import run_algorithm

        mj = build_metric_jet(cfg)
        diff = run_algorithm(mj, "+", 3).jet - run_algorithm(mj, "-", 3).jet
        return diff.components[0], diff.components[1]

    def test_vanishes_on_unit_configs(self):
        for name in UNIT_CONFIG_NAMES:
            cfg = unit_config(name)
            mj = build_metric_jet(cfg, order=3)
            q0, qm1 = self._asym_parts(cfg)
            for level in (2, 3):
                val = transport_correction(q0, mj, level, qm1=qm1)
                assert val.is_zero(), name

    def test_vanishes_on_random_configs(self):
        rng = random.Random(92)
        for _ in range(20):
            cfg = random_config(rng)
            mj = build_metric_jet(cfg, order=3)
            q0, qm1 = self._asym_parts(cfg)
            for level in (2, 3):
                val = transport_correction(q0, mj, level, qm1=qm1)
                assert val.is_zero()

    @staticmethod
    def _derivative_chain(q0, mj, level):
        """The correction with every eta derivative taken by poly_diff."""
        if level == 2:
            table, weight = mj.riem0, Fraction(1, 6)
        else:
            table, weight = mj.d2gamma0(), -GR_I * Fraction(1, 6)
        total = GaussianRational(0)
        for idx in product(range(3), repeat=level + 2):
            coeff = reduce(getitem, idx, table)
            a, v1, k, *rest = idx
            p = q0[a][k]
            for v in (v1, *rest):
                p = poly_diff(p, ETA_VARS[v])
            total = total + p.constant_term() * coeff
        return total * weight

    def test_matches_derivative_chain_on_random_symbols(self):
        """Random q0 make both corrections nonzero; qm1 = 0 meets the
        precondition."""
        rng = random.Random(93)
        cfgs = [unit_config(n) for n in ("c1", "c20")]
        cfgs += [random_config(rng) for _ in range(3)]
        nonzero = set()
        for cfg in cfgs:
            mj = build_metric_jet(cfg, order=3)
            for _ in range(2):
                q0 = random_matrix(rng, 3, density=0.5)
                for level in (2, 3):
                    val = transport_correction(q0, mj, level, qm1=zero_mat((3, 3), 2))
                    assert val == self._derivative_chain(q0, mj, level)
                    if not val.is_zero():
                        nonzero.add(level)
        assert nonzero == {2, 3}

    @pytest.mark.parametrize("name", ["flat", "c11"])
    def test_order_below_level_refused(self, name):
        # Three eta derivatives of an order-2 q0 are not determined; on the
        # flat config the correction used to read them as 0.
        mj = build_metric_jet(unit_config(name), order=3)
        with pytest.raises(ValueError, match="order >= 3"):
            transport_correction(identity_mat(2), mj, 3, qm1=zero_mat((3, 3), 1))

    def test_precondition_enforced(self):
        cfg = unit_config("c7")
        mj = build_metric_jet(cfg, order=3)
        q0, _ = self._asym_parts(cfg)
        bad = identity_mat(2)
        with pytest.raises(ValueError):
            transport_correction(q0, mj, 3, qm1=bad)
