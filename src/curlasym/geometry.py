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
from typing import Mapping, Sequence

from .exactpoly import (
    E1,
    GR_I,
    TruncatedPoly,
    binomial_power_jet,
    parse_rational,
    poly_add,
    poly_diff,
    poly_mul,
    rat,
    rat_str,
)
from .polymat import (
    Matrix,
    identity_mat,
    mat,
    mat_add,
    mat_mul,
    mat_sub,
    mat_truncate,
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


def epsilon(a: int, b: int, c: int) -> int:
    return EPSILON.get((a, b, c), 0)


def _delta(a: int, b: int) -> int:
    return 1 if a == b else 0


@dataclass(frozen=True, slots=True)
class CurvatureConfig:
    """Ricci tensor and its covariant derivative at the origin.

    ric0 is a symmetric 3x3 matrix of rationals; dric0 holds the three
    symmetric 3x3 matrices (grad_1 Ric, grad_2 Ric, grad_3 Ric).  Entries are
    stored as nested tuples of Fractions (strings are parsed exactly).
    Symmetry in the last two indices is enforced; no differential identity
    relating the 24 constants is imposed, they are treated as independent.
    """

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
        for i in range(3):
            for j in range(i + 1, 3):
                if ric[i][j] != ric[j][i]:
                    raise ValueError("ric0 must be symmetric")
                for s in range(3):
                    if dric[s][i][j] != dric[s][j][i]:
                        raise ValueError(
                            "each dric0 slice must be symmetric"
                        )
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
            "ric": [[rat_str(v) for v in row] for row in self.ric0],
            "dric": [
                [[rat_str(v) for v in row] for row in m] for m in self.dric0
            ],
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
        return CurvatureConfig.from_dict(json.loads(text, parse_float=parse_rational))


def _exact(value: object) -> Fraction:
    return parse_rational(value) if isinstance(value, str) else rat(value)


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
    ric = cfg.ric0
    sc = cfg.scalar0()

    def riem_entry(ricm, scal, a, b, c, d):
        return (
            ricm[a][c] * _delta(b, d)
            - ricm[a][d] * _delta(b, c)
            + ricm[b][d] * _delta(a, c)
            - ricm[b][c] * _delta(a, d)
            + rat(scal, 2) * (_delta(a, d) * _delta(b, c) - _delta(a, c) * _delta(b, d))
        )

    riem0 = tuple(
        tuple(
            tuple(
                tuple(riem_entry(ric, sc, a, b, c, d) for d in range(3))
                for c in range(3)
            )
            for b in range(3)
        )
        for a in range(3)
    )
    driem0 = tuple(
        tuple(
            tuple(
                tuple(
                    tuple(
                        riem_entry(cfg.dric0[s], cfg.dscalar0(s), a, b, c, d)
                        for d in range(3)
                    )
                    for c in range(3)
                )
                for b in range(3)
            )
            for a in range(3)
        )
        for s in range(3)
    )
    return riem0, driem0


@dataclass(frozen=True, slots=True)
class MetricJet:
    """All geometric jets derived from one curvature configuration."""

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
        out = []
        for a in range(3):
            plane = []
            for b in range(3):
                row = []
                for c in range(3):
                    acc = TruncatedPoly.zero(self.order)
                    for m in range(3):
                        for n in range(3):
                            sign = epsilon(a, m, n)
                            if sign == 0:
                                continue
                            term = poly_mul(self.g_inv[m][b], self.g_inv[n][c])
                            acc = poly_add(acc, poly_mul(self.rho, term).scale(sign))
                    row.append(acc)
                plane.append(tuple(row))
            out.append(tuple(plane))
        return tuple(out)

    def d2gamma0(self):
        """Second coordinate derivatives of Christoffel symbols at the origin."""
        out = []
        for a in range(3):
            pa = []
            for b in range(3):
                pb = []
                for c in range(3):
                    entry = self.gamma[a][b][c]
                    pc = []
                    for n in range(3):
                        dn = poly_diff(entry, n)
                        pc.append(
                            tuple(
                                poly_diff(dn, r).constant_term()
                                for r in range(3)
                            )
                        )
                    pb.append(tuple(pc))
                pa.append(tuple(pb))
            out.append(tuple(pa))
        return tuple(out)


def build_metric_jet(cfg: CurvatureConfig, order: int = 3) -> MetricJet:
    """Assemble the metric jet at the requested joint truncation order.

    Terms of degree > 3 in x alone are not determined by the curvature input
    and are absent regardless of the truncation order; downstream consumers
    must only read results whose x-degree the construction controls.
    """
    if order < 3:
        raise ValueError("metric jet needs truncation order >= 3")
    riem0, driem0 = riemann_from_ricci(cfg)

    x = [TruncatedPoly.variable(i, order) for i in range(3)]

    g_rows = []
    for a in range(3):
        row = []
        for b in range(3):
            entry = TruncatedPoly.constant(_delta(a, b), order)
            for m in range(3):
                for n in range(3):
                    coeff = riem0[a][m][b][n]
                    if coeff != 0:
                        entry = poly_add(
                            entry,
                            poly_mul(x[m], x[n]).scale(rat(-coeff, 3)),
                        )
            for s in range(3):
                for m in range(3):
                    for n in range(3):
                        coeff = driem0[s][a][m][b][n]
                        if coeff != 0:
                            entry = poly_add(
                                entry,
                                poly_mul(poly_mul(x[s], x[m]), x[n]).scale(
                                    rat(-coeff, 6)
                                ),
                            )
            row.append(entry)
        g_rows.append(tuple(row))
    g = tuple(g_rows)

    # Inverse metric by Neumann series in h = g - I (h is O(|x|^2)).
    ident = identity_mat(order)
    h = mat_sub(g, ident)
    g_inv = ident
    power = h
    sign = -1
    while not all(p.is_zero() for row in power for p in row):
        g_inv = mat_add(g_inv, tuple(tuple(p.scale(sign) for p in row) for row in power))
        power = mat_mul(power, h)
        sign = -sign

    # Riemannian density rho = sqrt(det g) and its inverse.
    det = TruncatedPoly.zero(order)
    for (i, j, k), sgn in EPSILON.items():
        det = poly_add(
            det,
            poly_mul(poly_mul(g[0][i], g[1][j]), g[2][k]).scale(sgn),
        )
    u = det - TruncatedPoly.constant(1, order)
    rho = binomial_power_jet(u, rat(1, 2))
    rho_inv = binomial_power_jet(u, rat(-1, 2))

    # Christoffel symbols from the first-derivative formula; one order lower.
    dg = [[[poly_diff(g[a][b], c) for c in range(3)] for b in range(3)] for a in range(3)]
    g_inv_low = mat_truncate(g_inv, order - 1)
    gamma_rows = []
    for a in range(3):
        pa = []
        for b in range(3):
            pb = []
            for c in range(3):
                acc = TruncatedPoly.zero(order - 1)
                for d in range(3):
                    inner = poly_add(poly_add(dg[d][c][b], dg[d][b][c]), -dg[b][c][d])
                    acc = poly_add(acc, poly_mul(g_inv_low[a][d], inner))
                pb.append(acc.scale(rat(1, 2)))
            pa.append(tuple(pb))
        gamma_rows.append(tuple(pa))
    gamma = tuple(gamma_rows)

    return MetricJet(cfg, order, g, g_inv, rho, rho_inv, gamma, riem0, driem0)


def xi_polys(order: int) -> tuple:
    """The covector components (xi0 + eta)_a as order-`order` polynomials."""
    return tuple(
        poly_add(
            TruncatedPoly.constant(_delta(a, 2), order),
            TruncatedPoly.variable(E1 + a, order),
        )
        for a in range(3)
    )


def _norm_power(quad: TruncatedPoly, r: object) -> TruncatedPoly:
    """Jet of quad^(r/2) for a squared norm jet with value 1 at the anchor.

    The exponent r must have denominator 1 or 2 so the expansion stays in the
    binomial-series regime with half-integer exponents.
    """
    r = rat(r)
    if r.denominator not in (1, 2):
        raise ValueError("norm power exponent must have denominator 1 or 2")
    return binomial_power_jet(quad - TruncatedPoly.constant(1, quad.order), r / 2)


def norm_power_jet(mj: MetricJet, r: object, order: int | None = None) -> TruncatedPoly:
    """Jet of the Riemannian norm power ||xi||^r at (0, xi0)."""
    if order is None:
        order = mj.order
    if order > mj.order:
        raise ValueError("requested order exceeds the metric jet order")
    xi = xi_polys(order)
    q = TruncatedPoly.zero(order)
    for a in range(3):
        for b in range(3):
            q = poly_add(
                q, poly_mul(mj.g_inv[a][b].truncate(order), poly_mul(xi[a], xi[b]))
            )
    return _norm_power(q, r)


def euclid_norm_power_jet(r: object, order: int) -> TruncatedPoly:
    """Jet of the Euclidean norm power |xi|^r at (0, xi0)."""
    xi = xi_polys(order)
    q = TruncatedPoly.zero(order)
    for a in range(3):
        q = poly_add(q, poly_mul(xi[a], xi[a]))
    return _norm_power(q, r)


def curl_symbol(mj: MetricJet, accuracy: int = 3):
    """Full symbol of curl as a single homogeneity-1 component.

    The symbol -i E_a{}^{bc}(x) xi_c is exactly homogeneous of degree 1, so
    the jet has no lower-order components.
    """
    from .calculus import SymbolJet

    if accuracy > mj.order:
        raise ValueError("accuracy exceeds the metric jet order")
    e_mix = mj.e_mixed()
    xi = xi_polys(accuracy)
    rows = []
    for a in range(3):
        row = []
        for b in range(3):
            acc = TruncatedPoly.zero(accuracy)
            for c in range(3):
                entry = e_mix[a][b][c]
                if entry.is_zero():
                    continue
                acc = poly_add(acc, poly_mul(entry.truncate(accuracy), xi[c]))
            row.append(acc.scale(-GR_I))
        rows.append(tuple(row))
    return SymbolJet(1, accuracy, (3, 3), [mat(rows)])


def d_delta_symbols(mj: MetricJet, accuracy: int = 3):
    """Full symbols of d on functions (3x1) and delta on 1-forms (1x3).

    The codifferential acts as delta u = -g^{ab}(d_b u_a - Gamma^c_{ba} u_c),
    so its symbol has a degree-1 part -i g^{ab} xi_b and an exact degree-0
    part g^{ab} Gamma^c_{ba} which vanishes at the origin.
    """
    from .calculus import SymbolJet

    if accuracy > mj.order:
        raise ValueError("accuracy exceeds the metric jet order")
    xi = xi_polys(accuracy)

    d_top = mat([[xi[a].scale(GR_I)] for a in range(3)])
    d_levels = [d_top]
    for k in range(1, accuracy + 1):
        d_levels.append(mat([[TruncatedPoly.zero(accuracy - k)] for _ in range(3)]))
    d_sym = SymbolJet(1, accuracy, (3, 1), d_levels)

    delta_top_row = []
    for a in range(3):
        acc = TruncatedPoly.zero(accuracy)
        for b in range(3):
            acc = poly_add(acc, poly_mul(mj.g_inv[a][b].truncate(accuracy), xi[b]))
        delta_top_row.append(acc.scale(-GR_I))
    levels = [mat([delta_top_row])]
    if accuracy >= 1:
        zero_row = []
        for c in range(3):
            acc = TruncatedPoly.zero(accuracy - 1)
            for a in range(3):
                for b in range(3):
                    acc = poly_add(
                        acc,
                        poly_mul(
                            mj.g_inv[a][b].truncate(accuracy - 1),
                            mj.gamma[c][b][a].truncate(accuracy - 1),
                        ),
                    )
            zero_row.append(acc)
        levels.append(mat([zero_row]))
        for k in range(2, accuracy + 1):
            levels.append(mat([[TruncatedPoly.zero(accuracy - k)] * 3]))
    delta_sym = SymbolJet(1, accuracy, (1, 3), levels)
    return d_sym, delta_sym


@dataclass(frozen=True, slots=True)
class TransportJet:
    """Cubic Taylor expansion of a parallel transport map."""

    endpoints: object
    z_vector: Matrix
    z_covector: Matrix


def poly_scale_x(p: TruncatedPoly, factor: object) -> TruncatedPoly:
    """Substitute x -> factor * x (all three base variables)."""
    factor = rat(factor)
    terms = {}
    for exp, coeff in p.terms.items():
        deg = exp[0] + exp[1] + exp[2]
        terms[exp] = coeff * (factor**deg) if deg else coeff
    return TruncatedPoly(p.order, terms)


def transport_jet(mj: MetricJet, endpoints, order: int = 3) -> TransportJet:
    """Parallel transport maps for vectors and covectors along radial lines.

    Supported endpoint tags: "origin_to_y", "y_to_origin", and
    ("y_to_tau_y", tau) with rational tau.  The transported vector index
    convention is w^b = Z_a{}^b v^a, stored as matrix[a][b].
    """
    if endpoints == "origin_to_y":
        c2, c3 = rat(1, 6), rat(-1, 6)
    elif endpoints == "y_to_origin":
        c2, c3 = rat(-1, 6), rat(1, 6)
    elif (
        isinstance(endpoints, tuple)
        and len(endpoints) == 2
        and endpoints[0] == "y_to_tau_y"
    ):
        tau = rat(endpoints[1])
        c2 = (tau * tau - 1) / 6
        c3 = -(tau * tau * tau - 1) / 6
    else:
        raise ValueError(f"unsupported endpoints tag: {endpoints!r}")

    y = [TruncatedPoly.variable(i, order) for i in range(3)]
    d2g = mj.d2gamma0()

    def build(sign: int) -> Matrix:
        rows = []
        for a in range(3):
            row = []
            for b in range(3):
                entry = TruncatedPoly.constant(_delta(a, b), order)
                for m in range(3):
                    for n in range(3):
                        coeff = mj.riem0[b][m][a][n]
                        if coeff != 0:
                            entry = poly_add(
                                entry,
                                poly_mul(y[m], y[n]).scale(sign * c2 * coeff),
                            )
                for m in range(3):
                    for n in range(3):
                        for r_i in range(3):
                            coeff = d2g[b][m][a][n][r_i]
                            if coeff != 0:
                                entry = poly_add(
                                    entry,
                                    poly_mul(poly_mul(y[m], y[n]), y[r_i]).scale(
                                        sign * c3 * coeff
                                    ),
                                )
                row.append(entry)
            rows.append(tuple(row))
        return tuple(rows)

    return TransportJet(endpoints, build(1), build(-1))
