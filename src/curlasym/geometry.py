"""Geometric jets in normal coordinates from curvature data.

The sole geometric input is the Ricci tensor and its covariant derivative at
the origin of a normal coordinate system on an oriented Riemannian
3-manifold.  In dimension three the Riemann tensor is determined by the Ricci
tensor, which yields the metric jet

    g = delta - (1/3) Riem(0) x x - (1/6) (grad Riem)(0) x x x + O(|x|^4),

and from it the inverse metric, the Riemannian density rho, the Christoffel
symbols, jets of powers of the Riemannian covector norm anchored at
xi0 = (0, 0, 1), the full symbols of curl, d and delta, and the cubic Taylor
expansions of parallel transport maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import lcm
from typing import Mapping, Sequence

from .calculus import SymbolJet
from .exactpoly import (
    E1,
    GR_I,
    TruncatedPoly,
    binomial_power_jet,
    monomial,
    numerator_over,
    parse_rational,
    poly_add,
    poly_diff,
    poly_from_monomials,
    poly_mul,
)
from .polymat import (
    Matrix,
    identity_mat,
    mat_add,
    mat_mul,
    mat_is_zero,
    mat_scale,
    mat_sub,
    tensor,
)

#: Totally antisymmetric symbol epsilon_{abc} on index triples (0-based).
EPSILON = {
    (0, 1, 2): 1,
    (1, 2, 0): 1,
    (2, 0, 1): 1,
    (0, 2, 1): -1,
    (2, 1, 0): -1,
    (1, 0, 2): -1,
}


def _delta(a: int, b: int) -> int:
    return 1 if a == b else 0


@dataclass(frozen=True)
class CurvatureConfig:
    """Ricci tensor and its covariant derivative at the origin.

    ric0 is a symmetric 3x3 matrix of rationals; dric0 holds the three
    symmetric 3x3 matrices (grad_1 Ric, grad_2 Ric, grad_3 Ric).  Entries are
    stored as nested tuples of Fractions (strings are parsed exactly; floats
    are refused, since a binary fraction is not the decimal that was meant).
    Symmetry in the last two indices is enforced; no differential identity
    relating the 24 constants is imposed, they are treated as independent.
    """

    __slots__ = ("ric0", "dric0")
    ric0: Sequence
    dric0: Sequence

    def __post_init__(self) -> None:
        ric = tuple(tuple(_exact(v) for v in row) for row in self.ric0)
        dric = tuple(
            tuple(tuple(_exact(v) for v in row) for row in m) for m in self.dric0
        )
        if len(ric) != 3 or any(len(r) != 3 for r in ric):
            raise ValueError("ric0 must be 3x3")
        if len(dric) != 3 or any(
            len(m) != 3 or any(len(r) != 3 for r in m) for m in dric
        ):
            raise ValueError("dric0 must be 3x3x3")
        if ric != tuple(zip(*ric)):
            raise ValueError("ric0 must be symmetric")
        if any(m != tuple(zip(*m)) for m in dric):
            raise ValueError("each dric0 slice must be symmetric")
        object.__setattr__(self, "ric0", ric)
        object.__setattr__(self, "dric0", dric)

    @staticmethod
    def flat() -> "CurvatureConfig":
        z = ((0, 0, 0),) * 3
        return CurvatureConfig(z, (z, z, z))

    def is_flat(self) -> bool:
        return all(v == 0 for row in self.ric0 for v in row) and all(
            v == 0 for m in self.dric0 for row in m for v in row
        )

    def scalar0(self) -> object:
        return sum(self.ric0[i][i] for i in range(3))

    def dscalar0(self, s: int) -> object:
        return sum(self.dric0[s][i][i] for i in range(3))

    def to_dict(self) -> dict:
        return {
            "ric": [[str(v) for v in row] for row in self.ric0],
            "dric": [[[str(v) for v in row] for row in m] for m in self.dric0],
        }

    @staticmethod
    def from_dict(data: object) -> "CurvatureConfig":
        """Inverse of to_dict.

        Entries must be integers, exact rationals or rational strings; read
        JSON with ``parse_float=parse_rational`` so that decimals stay exact.
        """
        if not isinstance(data, Mapping) or not {"ric", "dric"} <= data.keys():
            raise ValueError("config must be an object with keys 'ric' and 'dric'")
        for key, depth in (("ric", 2), ("dric", 3)):
            if not _is_exact_array(data[key], depth):
                raise ValueError(
                    f"{key} must be a {'x'.join('3' * depth)} list of integers, "
                    "decimals or 'p/q' strings"
                )
        return CurvatureConfig(data["ric"], data["dric"])

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @staticmethod
    def loads(text: str) -> "CurvatureConfig":
        try:
            data = json.loads(text, parse_float=parse_rational)
        except RecursionError:
            raise ValueError("config JSON nests too deeply") from None
        return CurvatureConfig.from_dict(data)


def _exact(value: object) -> Fraction:
    if isinstance(value, float):
        raise ValueError(f"entry {value!r} is a float: give it as a 'p/q' string")
    if not isinstance(value, str):
        return Fraction(value)
    try:
        return parse_rational(value)
    except ZeroDivisionError:
        raise ValueError(f"entry {value!r} divides by zero") from None


def _is_exact_array(value: object, depth: int) -> bool:
    """Whether value is a depth-fold nested 3-list of exact rational entries."""
    if depth == 0:
        return isinstance(value, (int, Fraction, str)) and not isinstance(value, bool)
    return (
        isinstance(value, (list, tuple))
        and len(value) == 3
        and all(_is_exact_array(v, depth - 1) for v in value)
    )


def riemann_from_ricci(cfg: CurvatureConfig):
    """Riemann tensor and its first derivative at the origin.

    Uses the dimension-3 identity expressing Riem through Ric, the metric and
    the scalar curvature; at the origin of normal coordinates the metric is
    the Kronecker delta and coordinate derivatives agree with covariant ones.
    """

    def riemann(ric, scal):
        # Integer numerators over one common denominator: den times a Ricci
        # entry, and den times half the scalar curvature, are integers.
        den = 2 * lcm(*(v.denominator for row in ric for v in row))
        num = tensor(lambda a, b: numerator_over(ric[a][b], den), 2)
        half_scal = numerator_over(scal, den // 2)

        def entry(a, b, c, d):
            # Only the terms whose Kronecker deltas are 1.
            value = 0
            if b == d:
                value += num[a][c] - (half_scal if a == c else 0)
            if b == c:
                value -= num[a][d] - (half_scal if a == d else 0)
            if a == c:
                value += num[b][d]
            if a == d:
                value -= num[b][c]
            return Fraction(value, den)

        return tensor(entry, 4)

    riem0 = riemann(cfg.ric0, cfg.scalar0())
    driem0 = tuple(riemann(m, cfg.dscalar0(s)) for s, m in enumerate(cfg.dric0))
    return riem0, driem0


@dataclass(frozen=True)
class MetricJet:
    """All geometric jets derived from one curvature configuration."""

    __slots__ = (
        "config", "order", "g", "g_inv", "rho", "rho_inv", "gamma", "riem0", "driem0"
    )
    config: CurvatureConfig
    order: int
    g: Matrix
    g_inv: Matrix
    rho: TruncatedPoly
    rho_inv: TruncatedPoly
    gamma: tuple
    riem0: tuple
    driem0: tuple

    def e_mixed(self) -> tuple:
        """E_a{}^{bc} with the last two indices raised by the inverse metric."""
        g_inv = self.g_inv

        def entry(a, b, c):
            terms = [
                poly_mul(g_inv[m][b], g_inv[n][c]).scale(sign)
                for (lead, m, n), sign in EPSILON.items()
                if lead == a
            ]
            return poly_mul(self.rho, reduce(poly_add, terms))

        return tensor(entry, 3)

    def d2gamma0(self):
        """Second coordinate derivatives of Christoffel symbols at the origin:
        the coefficient of x_n x_r, times 2! when n == r."""
        gamma = self.gamma

        def entry(a, b, c, n, r):
            coeff = gamma[a][b][c].coefficient(monomial((n, r)))
            return coeff * 2 if n == r else coeff

        return tensor(entry, 5)


def build_metric_jet(cfg: CurvatureConfig, order: int = 3) -> MetricJet:
    """Assemble the metric jet at the requested joint truncation order.

    Terms of degree > 3 in x alone are not determined by the curvature input
    and are absent regardless of the truncation order; downstream consumers
    must only read results whose x-degree the construction controls.
    """
    if order < 3:
        raise ValueError("metric jet needs truncation order >= 3")
    riem0, driem0 = riemann_from_ricci(cfg)

    # Integer coefficients over the common denominator 6 * den: den times
    # every Riemann entry is an integer (see riemann_from_ricci).
    den = 2 * lcm(
        *(v.denominator for m in (cfg.ric0, *cfg.dric0) for row in m for v in row)
    )
    g = tensor(
        lambda a, b: _quadratic_cubic(
            order,
            6 * den * _delta(a, b),
            lambda m, n: -2 * numerator_over(riem0[a][m][b][n], den),
            lambda s, m, n: -numerator_over(driem0[s][a][m][b][n], den),
        ).scale(Fraction(1, 6 * den)),
        2,
    )

    # Inverse metric by Neumann series in h = g - I (h is O(|x|^2)).
    ident = identity_mat(order)
    h = mat_sub(g, ident)
    g_inv = ident
    power = h
    sign = -1
    while not mat_is_zero(power):
        g_inv = mat_add(g_inv, mat_scale(power, sign))
        power = mat_mul(power, h)
        sign = -sign

    # Riemannian density rho = sqrt(det g) and its inverse.
    det = reduce(
        poly_add,
        (
            poly_mul(poly_mul(g[0][i], g[1][j]), g[2][k]).scale(sgn)
            for (i, j, k), sgn in EPSILON.items()
        ),
    )
    u = det - TruncatedPoly.constant(1, order)
    rho = binomial_power_jet(u, Fraction(1, 2))
    rho_inv = binomial_power_jet(u, Fraction(-1, 2))

    # Christoffel symbols from the first-derivative formula; one order lower.
    dg = tensor(lambda a, b, c: poly_diff(g[a][b], c), 3)
    lowered = tensor(
        lambda d, b, c: (dg[d][c][b] + dg[d][b][c] - dg[b][c][d]).scale(Fraction(1, 2)),
        3,
    )
    gamma = tensor(
        lambda a, b, c: reduce(
            poly_add, (poly_mul(g_inv[a][d], lowered[d][b][c]) for d in range(3))
        ),
        3,
    )

    return MetricJet(cfg, order, g, g_inv, rho, rho_inv, gamma, riem0, driem0)


def _quadratic_cubic(order: int, constant, quadratic, cubic) -> TruncatedPoly:
    """constant + quadratic(m, n) x_m x_n + cubic(s, m, n) x_s x_m x_n, summed."""
    terms = [(constant, ())]
    terms += [(quadratic(*idx), idx) for idx in product(range(3), repeat=2)]
    terms += [(cubic(*idx), idx) for idx in product(range(3), repeat=3)]
    return poly_from_monomials(order, terms)


def xi_polys(order: int) -> tuple:
    """The covector components (xi0 + eta)_a as order-`order` polynomials."""
    return tensor(
        lambda a: poly_from_monomials(order, [(_delta(a, 2), ()), (1, (E1 + a,))]), 1
    )


def norm_power(quad: TruncatedPoly, r: object) -> TruncatedPoly:
    """Jet of quad^(r/2) for a squared norm jet with value 1 at the anchor.

    The exponent r must have denominator 1 or 2 so the expansion stays in the
    binomial-series regime with half-integer exponents.
    """
    r = Fraction(r)
    if r.denominator not in (1, 2):
        raise ValueError("norm power exponent must have denominator 1 or 2")
    return binomial_power_jet(quad - TruncatedPoly.constant(1, quad.order), r / 2)


def raised_covector(mj: MetricJet, order: int) -> tuple:
    """The raised covector g^{ab}(x) (xi0 + eta)_b as order-`order` polynomials."""
    if order > mj.order:
        raise ValueError("requested order exceeds the metric jet order")
    xi = xi_polys(order)
    return tuple(reduce(poly_add, map(poly_mul, row, xi)) for row in mj.g_inv)


def covector_norm_sq(raised: tuple) -> TruncatedPoly:
    """The squared norm (xi0 + eta)_a g^{ab} (xi0 + eta)_b of a raised covector."""
    return reduce(poly_add, map(poly_mul, xi_polys(raised[0].order), raised))


def norm_power_jet(mj: MetricJet, r: object, order: int) -> TruncatedPoly:
    """Jet of the Riemannian norm power ||xi||^r at (0, xi0)."""
    return norm_power(covector_norm_sq(raised_covector(mj, order)), r)


def euclid_norm_power_jet(r: object, order: int) -> TruncatedPoly:
    """Jet of the Euclidean norm power |xi|^r at (0, xi0)."""
    return norm_power(covector_norm_sq(xi_polys(order)), r)


def curl_symbol(mj: MetricJet, accuracy: int = 3) -> SymbolJet:
    """Full symbol of curl as a single homogeneity-1 component.

    The symbol -i E_a{}^{bc}(x) xi_c is exactly homogeneous of degree 1, so
    the jet has no lower-order components.
    """
    if accuracy > mj.order:
        raise ValueError("accuracy exceeds the metric jet order")
    e_mix = mj.e_mixed()
    xi = xi_polys(accuracy)

    def entry(a, b):
        terms = (
            poly_mul(e, x)
            for e, x in zip(e_mix[a][b], xi)
            if not e.is_zero()
        )
        return reduce(poly_add, terms, TruncatedPoly.zero(accuracy)).scale(-GR_I)

    return SymbolJet(1, accuracy, (3, 3), [tensor(entry, 2)])


def d_delta_symbols(mj: MetricJet, accuracy: int = 3) -> tuple:
    """Full symbols of d on functions (3x1) and delta on 1-forms (1x3).

    The codifferential acts as delta u = -g^{ab}(d_b u_a - Gamma^c_{ba} u_c),
    so its symbol has a degree-1 part -i g^{ab} xi_b and an exact degree-0
    part g^{ab} Gamma^c_{ba} which vanishes at the origin.
    """
    if accuracy > mj.order:
        raise ValueError("accuracy exceeds the metric jet order")
    xi = xi_polys(accuracy)
    d_sym = SymbolJet(1, accuracy, (3, 1), [tuple((x.scale(GR_I),) for x in xi)])

    def degree0(c):
        terms = (
            poly_mul(mj.g_inv[a][b], mj.gamma[c][b][a])
            for a, b in product(range(3), repeat=2)
        )
        return reduce(poly_add, terms)

    top = tuple(p.scale(-GR_I) for p in raised_covector(mj, accuracy))
    levels = [(top,)]
    if accuracy >= 1:
        levels.append((tensor(degree0, 1),))
    return d_sym, SymbolJet(1, accuracy, (1, 3), levels)


@dataclass(frozen=True)
class TransportJet:
    """Cubic Taylor expansion of a parallel transport map."""

    __slots__ = ("endpoints", "z_vector", "z_covector")
    endpoints: object
    z_vector: Matrix
    z_covector: Matrix


def transport_jet(mj: MetricJet, endpoints) -> TransportJet:
    """Parallel transport maps for vectors and covectors along radial lines.

    Supported endpoint tags: "origin_to_y", "y_to_origin", and
    ("y_to_tau_y", tau) with rational tau.  The transported vector index
    convention is w^b = Z_a{}^b v^a, stored as matrix[a][b].
    """
    if endpoints == "origin_to_y":
        c2, c3 = Fraction(1, 6), Fraction(-1, 6)
    elif endpoints == "y_to_origin":
        c2, c3 = Fraction(-1, 6), Fraction(1, 6)
    elif (
        isinstance(endpoints, tuple)
        and len(endpoints) == 2
        and endpoints[0] == "y_to_tau_y"
    ):
        tau = Fraction(endpoints[1])
        c2 = (tau * tau - 1) / 6
        c3 = -(tau * tau * tau - 1) / 6
    else:
        raise ValueError(f"unsupported endpoints tag: {endpoints!r}")

    d2g = mj.d2gamma0()

    def build(sign: int) -> Matrix:
        return tensor(
            lambda a, b: _quadratic_cubic(
                3,
                _delta(a, b),
                lambda m, n: sign * c2 * mj.riem0[b][m][a][n],
                lambda m, n, r: sign * c3 * d2g[b][m][a][n][r],
            ),
            2,
        )

    return TransportJet(endpoints, build(1), build(-1))
