"""Independent oracles for the hand-rolled numerics and series.

scipy's and mpmath's K_1 back ``bessel_k1`` (mpmath to a few ulp on the
exp-sinh branch), and scipy's adaptive quadrature and mpmath's 2 y K_1(y)
back Basset's quadrature in ``basset_check``; scipy is a test-only
dependency.  sympy's truncated power series (``sympy.polys.ring_series``)
back the binomial series of ``binomial_power_jet``, the Neumann series of
the inverse metric and the norm power jets: each jet is compared with the
series of the same function computed by sympy from the exact inputs.  A jet truncated at joint order N
is the t-series of f(t x, t eta) truncated at t^N, so every variable is
scaled by one extra ring generator t and sympy truncates in t.

The curvature oracle starts from the metric jet alone: sympy forms the
Christoffel symbols and the Ricci tensor of that metric to first order in x
and recovers the configuration's Ric(0) and, where the data obey the
contracted Bianchi identity that every metric obeys, its derivative dRic(0).
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from curlasym.configs import random_bianchi_config, random_config, unit_config
from curlasym.exactpoly import VAR_NAMES, TruncatedPoly, binomial_power_jet
from curlasym.geometry import build_metric_jet, euclid_norm_power_jet, norm_power_jet
from curlasym.kernel import basset_check, bessel_k1

from conftest import random_poly


def test_bessel_k1_against_scipy():
    special = pytest.importorskip("scipy.special")
    for t in np.geomspace(1e-4, 50, 200):
        ref = float(special.k1(t))
        assert abs(bessel_k1(float(t)) - ref) <= 1e-12 * ref, t


def test_bessel_k1_exp_sinh_branch_against_mpmath():
    """The exp-sinh branch (t > 2) to 1e-14 relative on [2, 700]; the rule
    at step 1/12 instead of 1/16 misses by 1.7e-13."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for t in np.geomspace(2, 700, 506):
            t = float(t)
            ref = float(mpmath.besselk(1, t))
            assert abs(bessel_k1(t) - ref) <= 1e-14 * ref, t


def test_basset_against_scipy_quad_and_mpmath():
    """Basset's quadrature against mpmath's closed form to rounding, and
    against scipy's adaptive quadrature over [0, inf) to that quadrature's
    own accuracy: QAWF (weight cos) from y = 1e-4, where it converges, QAGI
    on cos(y t) (1 + t^2)^{-3/2} below."""
    integrate = pytest.importorskip("scipy.integrate")
    mpmath = pytest.importorskip("mpmath")

    def f(t):
        return (1 + t * t) ** -1.5

    for y in np.geomspace(1e-6, 1e3, 19):
        y = float(y)
        quadrature, _, _ = basset_check(y)
        assert abs(quadrature - float(2 * y * mpmath.besselk(1, y))) <= 1e-14, y
        if y >= 1e-4:
            half, _ = integrate.quad(f, 0, np.inf, weight="cos", wvar=y)
            tol = 1e-9
        else:
            half, _ = integrate.quad(lambda t: math.cos(y * t) * f(t), 0, np.inf)
            tol = 1e-8
        assert abs(quadrature - 2 * half) <= tol, y


sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import (  # noqa: E402
    rs_nth_root,
    rs_pow,
    rs_series_inversion,
    rs_trunc,
)

R, T, *V = sympy.polys.rings.ring(("t",) + VAR_NAMES, sympy.QQ)


def to_ring(p: TruncatedPoly):
    """A real jet as a ring element, each variable scaled by t."""
    out = R(0)
    for exp, c in p.terms.items():
        assert c.im == 0
        term = R(sympy.QQ(c.re.numerator, c.re.denominator))
        for v, e in zip(V, exp):
            term *= (T * v) ** e
        out += term
    return out


def rational_power(p, r, prec: int):
    """sympy series of p^r for a rational r, p with constant term 1."""
    r = Fraction(r)
    root = rs_nth_root(p, r.denominator, T, prec)
    power = rs_pow(root, abs(r.numerator), T, prec)
    return power if r > 0 else rs_series_inversion(power, T, prec)


def inverse_metric(mj):
    """Series of g^{-1} = adj(g) / det(g), independent of the Neumann sum."""
    g = [[to_ring(mj.g[a][b]) for b in range(3)] for a in range(3)]

    def cofactor(a, b):
        r0, r1 = (r for r in range(3) if r != a)
        c0, c1 = (c for c in range(3) if c != b)
        minor = g[r0][c0] * g[r1][c1] - g[r0][c1] * g[r1][c0]
        return minor if (a + b) % 2 == 0 else -minor

    det = sum(g[0][b] * cofactor(0, b) for b in range(3))
    inv_det = rs_series_inversion(det, T, mj.order + 1)
    return [
        [rs_trunc(cofactor(b, a) * inv_det, T, mj.order + 1) for b in range(3)]
        for a in range(3)
    ]


CONFIGS = [unit_config("c2"), unit_config("c14")] + [
    random_config(random.Random(seed)) for seed in (1, 2)
]


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(-2), Fraction(1, 3)])
def test_binomial_power_jet_against_sympy(r):
    rng = random.Random(31)
    for order in (2, 3, 4):
        u = random_poly(rng, order, density=0.4)
        u = (u + u.conjugate()).scale(Fraction(1, 2))  # the real part
        u = u - TruncatedPoly.constant(u.constant_term(), order)
        expected = rational_power(1 + to_ring(u), r, order + 1)
        assert to_ring(binomial_power_jet(u, r)) == expected


@pytest.mark.parametrize("cfg", CONFIGS)
def test_neumann_inverse_metric_against_sympy(cfg):
    for order in (3, 4):
        mj = build_metric_jet(cfg, order=order)
        expected = inverse_metric(mj)
        for a in range(3):
            for b in range(3):
                assert to_ring(mj.g_inv[a][b]) == expected[a][b]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_norm_power_jet_against_sympy(cfg):
    mj = build_metric_jet(cfg, order=3)
    g_inv = inverse_metric(mj)
    xi = [T * V[3], T * V[4], 1 + T * V[5]]
    quad = sum(g_inv[a][b] * xi[a] * xi[b] for a in range(3) for b in range(3))
    euclid = sum(x * x for x in xi)
    for r in (1, -1, 2, -2, 3, -3):
        for order in (2, 3):
            expected = rational_power(rs_trunc(quad, T, order + 1), Fraction(r, 2), order + 1)
            assert to_ring(norm_power_jet(mj, r, order)) == expected
            expected = rational_power(euclid, Fraction(r, 2), order + 1)
            assert to_ring(euclid_norm_power_jet(r, order)) == expected


XR, *XS = sympy.polys.rings.ring(VAR_NAMES[:3], sympy.QQ)


def to_x_ring(p):
    """A t-graded ring element free of eta as a polynomial in x alone."""
    assert all(not any(m[4:]) for m in p.keys())
    return XR.from_dict({m[1:4]: c for m, c in p.items()})


def truncated(p, degree: int):
    return XR.from_dict({m: c for m, c in p.items() if sum(m) <= degree})


def ricci_to_first_order(mj):
    """Ric_bd = R^a_bad of the metric mj.g, with
    R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb, to
    first order in x.  The Christoffel symbols G need second order, so the
    metric and its inverse need third."""
    g = [[to_x_ring(to_ring(mj.g[a][b])) for b in range(3)] for a in range(3)]
    g_inv = [[to_x_ring(p) for p in row] for row in inverse_metric(mj)]
    # dg[c][a][b] = d_c g_ab
    dg = [[[p.diff(x) for p in row] for row in g] for x in XS]

    def christoffel(a, b, c):
        lowered = [dg[b][d][c] + dg[c][d][b] - dg[d][b][c] for d in range(3)]
        return truncated(sum(map(operator.mul, g_inv[a], lowered)) / 2, 2)

    gamma = [
        [[christoffel(a, b, c) for c in range(3)] for b in range(3)] for a in range(3)
    ]

    def ricci(b, d):
        total = XR(0)
        for a in range(3):
            total += gamma[a][d][b].diff(XS[a]) - gamma[a][a][b].diff(XS[d])
            for e in range(3):
                total += gamma[a][a][e] * gamma[e][d][b]
                total -= gamma[a][d][e] * gamma[e][a][b]
        return truncated(total, 1)

    return [[ricci(b, d) for d in range(3)] for b in range(3)]


def as_qq(v: Fraction):
    return sympy.QQ(v.numerator, v.denominator)


#: The nine unit configs that obey the contracted Bianchi identity, and two
#: random draws that are made to.
BIANCHI = {
    name: unit_config(name)
    for name in ("c1", "c2", "c3", "c4", "c5", "c6", "c11", "c15", "c20")
}
BIANCHI.update(
    {f"bianchi{s}": random_bianchi_config(random.Random(s)) for s in (1, 2)}
)


@pytest.mark.parametrize("name", BIANCHI)
def test_metric_curvature_recovers_the_config(name):
    cfg = BIANCHI[name]
    ric = ricci_to_first_order(build_metric_jet(cfg))
    for b in range(3):
        for d in range(3):
            assert ric[b][d].coeff(XR(1)) == as_qq(cfg.ric0[b][d])
            for s in range(3):
                assert ric[b][d].coeff(XS[s]) == as_qq(cfg.dric0[s][b][d])


def test_metric_curvature_without_bianchi_identity():
    """A dense random config breaks the contracted Bianchi identity: the
    metric built from it still has Ric(0) = ric0, but no metric has dRic(0)
    = dric0, so the metric's own derivative differs."""
    cfg = random_config(random.Random(1))
    ric = ricci_to_first_order(build_metric_jet(cfg))
    assert [[p.coeff(XR(1)) for p in row] for row in ric] == [
        [as_qq(v) for v in row] for row in cfg.ric0
    ]
    assert any(
        ric[b][d].coeff(XS[s]) != as_qq(cfg.dric0[s][b][d])
        for s in range(3)
        for b in range(3)
        for d in range(3)
    )
