"""Graded matrix symbol jets and the calculus operations on them.

A SymbolJet represents a polyhomogeneous symbol near the anchor point
(x, xi) = (0, xi0), xi0 = (0, 0, 1), as an ordered list of matrix components.
Component k carries the part of homogeneity degree top_degree - k, Taylor
expanded in (x, eta) with eta = xi - xi0 and truncated at joint order
accuracy - k.  Homogeneity degree is pure metadata: expanding at xi0 destroys
literal homogeneity, and differentiating in eta reassigns degree m to m - 1.

Operations: composition of symbols, subprincipal symbol of operators on
1-forms (with its three Christoffel terms), the generalized Poisson bracket,
the formal adjoint at principal and subprincipal level, the componentwise
matrix trace, and the two parallel-transport trace corrections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import getitem
from typing import Mapping, Sequence

from .exactpoly import (
    ETA_VARS,
    GR_I,
    GR_ONE,
    X_VARS,
    GaussianRational,
    poly_diff,
    poly_from_dict,
    rat,
)
from .polymat import (
    Matrix,
    identity_mat,
    mat_add,
    mat_commutator,
    mat_conj,
    mat_diff,
    mat_is_zero,
    mat_mul,
    mat_poly_scale,
    mat_restrict,
    mat_scale,
    mat_shape,
    mat_sub,
    mat_to_dict,
    mat_trace,
    mat_transpose,
    mat_truncate,
    tensor,
    zero_mat,
)


@dataclass(frozen=True)
class SymbolJet:
    """Graded list of matrix components expanded at (0, xi0).

    The constructor pads missing levels with zeros and truncates level k at
    order accuracy - k, so components always has accuracy + 1 entries.
    """

    __slots__ = ("top_degree", "accuracy", "shape", "components")
    top_degree: int
    accuracy: int
    shape: tuple
    components: Sequence[Matrix]

    def __post_init__(self) -> None:
        if self.accuracy < 0:
            raise ValueError("accuracy must be >= 0")
        shape = tuple(self.shape)
        comps = list(self.components)
        if len(comps) > self.accuracy + 1:
            raise ValueError("more components than graded levels")
        fixed = []
        for k in range(self.accuracy + 1):
            order = self.accuracy - k
            if k < len(comps):
                m = comps[k]
                if mat_shape(m) != shape:
                    raise ValueError("component shape mismatch")
                if _mat_order(m) < order:
                    raise ValueError(
                        f"level {k} truncation order {_mat_order(m)} "
                        f"below required {order}"
                    )
                fixed.append(mat_truncate(m, order))
            else:
                fixed.append(zero_mat(shape, order))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "components", tuple(fixed))

    # -- queries ----------------------------------------------------------

    def principal(self) -> Matrix:
        return self.components[0]

    def is_zero(self) -> bool:
        return all(mat_is_zero(m) for m in self.components)

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "SymbolJet") -> "SymbolJet":
        self._check_compatible(other)
        return SymbolJet(
            self.top_degree,
            self.accuracy,
            self.shape,
            [mat_add(a, b) for a, b in zip(self.components, other.components)],
        )

    def __sub__(self, other: "SymbolJet") -> "SymbolJet":
        self._check_compatible(other)
        return SymbolJet(
            self.top_degree,
            self.accuracy,
            self.shape,
            [mat_sub(a, b) for a, b in zip(self.components, other.components)],
        )

    def scale(self, c: object) -> "SymbolJet":
        return SymbolJet(
            self.top_degree,
            self.accuracy,
            self.shape,
            [mat_scale(m, c) for m in self.components],
        )

    def with_component_added(self, k: int, m: Matrix) -> "SymbolJet":
        comps = list(self.components)
        comps[k] = mat_add(comps[k], mat_truncate(m, self.accuracy - k))
        return SymbolJet(self.top_degree, self.accuracy, self.shape, comps)

    def _check_compatible(self, other: "SymbolJet") -> None:
        if (
            self.top_degree != other.top_degree
            or self.accuracy != other.accuracy
            or self.shape != other.shape
        ):
            raise ValueError("incompatible jets")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "top_degree": self.top_degree,
            "accuracy": self.accuracy,
            "shape": list(self.shape),
            "components": [mat_to_dict(m) for m in self.components],
        }

    @staticmethod
    def from_dict(data: Mapping) -> "SymbolJet":
        comps = [
            tuple(tuple(poly_from_dict(p) for p in row) for row in m)
            for m in data["components"]
        ]
        return SymbolJet(
            int(data["top_degree"]),
            int(data["accuracy"]),
            tuple(data["shape"]),
            comps,
        )

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @staticmethod
    def loads(text: str) -> "SymbolJet":
        return SymbolJet.from_dict(json.loads(text))


def _mat_order(m: Matrix) -> int:
    return m[0][0].order


def identity_jet(accuracy: int) -> SymbolJet:
    return SymbolJet(0, accuracy, (3, 3), [identity_mat(accuracy)])


def constant_jet(m: Matrix, accuracy: int) -> SymbolJet:
    return SymbolJet(0, accuracy, mat_shape(m), [m])


def compose(b: SymbolJet, a: SymbolJet) -> SymbolJet:
    """Symbol of the composition B A on the graded truncation schedule.

    Output level L collects (1 / (i^k m!)) (d_eta^m b_jb) (d_x^m a_ja) over
    all jb + ja + |m| = L, each product truncated at order accuracy - L.
    """
    if b.accuracy != a.accuracy:
        raise ValueError("accuracy mismatch")
    if b.shape[1] != a.shape[0]:
        raise ValueError("shape mismatch")
    n = b.accuracy
    out_shape = (b.shape[0], a.shape[1])

    cache: dict = {}

    def deriv(side: int, level: int, m: tuple) -> Matrix:
        """d_eta^m of b's level (side 0) or d_x^m of a's level (side 1)."""
        key = (side, level, m)
        if key not in cache:
            if not any(m):
                cache[key] = (b, a)[side].components[level]
            else:
                i = next(j for j in range(3) if m[j] > 0)
                prev = m[:i] + (m[i] - 1,) + m[i + 1 :]
                var = (ETA_VARS, X_VARS)[side][i]
                cache[key] = mat_diff(deriv(side, level, prev), var)
        return cache[key]

    out = [None] * (n + 1)
    minus_i_pow = [GR_ONE]
    for _ in range(n):
        minus_i_pow.append(minus_i_pow[-1] * (-GR_I))

    for jb in range(n + 1):
        if mat_is_zero(b.components[jb]):
            continue
        for ja in range(n + 1 - jb):
            if mat_is_zero(a.components[ja]):
                continue
            for k in range(n + 1 - jb - ja):
                level = jb + ja + k
                for m in _multi_indices(k):
                    bm = deriv(0, jb, m)
                    if mat_is_zero(bm):
                        continue
                    am = deriv(1, ja, m)
                    if mat_is_zero(am):
                        continue
                    coeff = minus_i_pow[k] * rat(1, math.prod(map(math.factorial, m)))
                    term = mat_scale(mat_mul(bm, am), coeff)
                    out[level] = (
                        term if out[level] is None else mat_add(out[level], term)
                    )

    comps = []
    for level in range(n + 1):
        order = n - level
        if out[level] is None:
            comps.append(zero_mat(out_shape, order))
        else:
            comps.append(mat_truncate(out[level], order))
    return SymbolJet(b.top_degree + a.top_degree, n, out_shape, comps)


def _multi_indices(k: int):
    for m1 in range(k + 1):
        for m2 in range(k + 1 - m1):
            yield (m1, m2, k - m1 - m2)


def _christoffel_t(mj, order: int) -> list:
    """The matrices A_g^T, where A_g[r][c] = Gamma^r_{g c}, at the given order."""
    gamma = mj.gamma
    return [
        mat_truncate(tensor(lambda r, c: gamma[c][g][r], 2), order) for g in range(3)
    ]


def subprincipal(q: SymbolJet, mj) -> Matrix:
    """Subprincipal symbol of an operator on 1-forms.

    Implements q_{s-1} + (i/2) d2 q_s / dx dxi plus the three Christoffel
    terms, with E_g = d q_s / d xi_g: the density contraction
    (i/2) tr(A_g) E_g and the row lowering and column raising
    -(i/2) (A_g^T E_g + E_g A_g^T).  Scalar 1x1 jets are supported as
    operators on half-densities: the bundle terms drop and only the density
    contraction remains.  The result is reliable to truncation order
    accuracy - 2.
    """
    if q.shape not in ((3, 3), (1, 1)):
        raise ValueError("subprincipal requires a 3x3 or 1x1 jet")
    scalar = q.shape == (1, 1)
    if q.accuracy < 2:
        raise ValueError("subprincipal needs at least two graded levels")
    order = q.accuracy - 2
    qs = q.components[0]
    half_i = GR_I * rat(1, 2)

    out = mat_truncate(q.components[1], order)
    for g, at in enumerate(_christoffel_t(mj, order)):
        d_eta = mat_diff(qs, ETA_VARS[g])
        e = mat_truncate(d_eta, order)
        term = mat_add(mat_diff(d_eta, X_VARS[g]), mat_poly_scale(e, mat_trace(at)))
        if not scalar:
            term = mat_sub(term, mat_add(mat_mul(at, e), mat_mul(e, at)))
        out = mat_add(out, mat_scale(term, half_i))
    return out


def _covariant_x_derivative(m: Matrix, g: int, at: Matrix, order: int) -> Matrix:
    """d_{x_g} m - [A_g^T, m] for a (1,1)-tensor symbol m, at the given order."""
    dm = mat_truncate(mat_diff(m, X_VARS[g]), order)
    return mat_sub(dm, mat_commutator(at, mat_truncate(m, order)))


def poisson_bracket(qp: Matrix, rp: Matrix, mj) -> Matrix:
    """Generalized Poisson bracket of two principal symbol matrices.

    Both x-derivatives carry Christoffel corrections; the bracket reduces to
    the plain matrix Poisson bracket when the Christoffel jet vanishes.
    """
    order = min(_mat_order(qp), _mat_order(rp)) - 1
    if order < 0:
        raise ValueError("inputs must have truncation order >= 1")
    out = zero_mat((3, 3), order)
    for g, at in enumerate(_christoffel_t(mj, order)):
        dq_cov = _covariant_x_derivative(qp, g, at, order)
        dr_cov = _covariant_x_derivative(rp, g, at, order)
        dq_eta = mat_diff(qp, ETA_VARS[g])
        dr_eta = mat_diff(rp, ETA_VARS[g])
        out = mat_add(out, mat_sub(mat_mul(dq_cov, dr_eta), mat_mul(dq_eta, dr_cov)))
    return mat_truncate(out, order)


def adjoint_prin_sub(q: SymbolJet, mj) -> tuple:
    """Principal and subprincipal symbols of the formal adjoint.

    Both are obtained by the metric sandwich g conj(.)^T g^{-1} applied to
    the corresponding symbol of q.
    """
    if q.shape != (3, 3):
        raise ValueError("adjoint requires a 3x3 jet")

    def sandwich(m: Matrix) -> Matrix:
        order = _mat_order(m)
        g = mat_truncate(mj.g, min(order, mj.order))
        g_inv = mat_truncate(mj.g_inv, min(order, mj.order))
        return mat_truncate(
            mat_mul(mat_mul(g, mat_transpose(mat_conj(m))), g_inv), order
        )

    prin = sandwich(q.principal())
    sub = sandwich(subprincipal(q, mj))
    return prin, sub


def trace_diag(q: SymbolJet) -> SymbolJet:
    """Componentwise matrix trace, keeping the grading schedule."""
    comps = [((mat_trace(m),),) for m in q.components]
    return SymbolJet(q.top_degree, q.accuracy, (1, 1), comps)


def transport_correction(q0: Matrix, mj, level: int, qm1: Matrix) -> GaussianRational:
    """Parallel-transport correction to the matrix trace at the anchor.

    q0 and qm1 must be the degree-0 and degree -1 components of the
    difference of the two nonzero spectral projection symbols.  qm1 is checked
    to vanish at x = 0, which the closed-form contractions assume.

    Level 2 contracts the Riemann tensor with the second eta-derivatives of
    q0; level 3 contracts the symmetrized second derivative of the
    Christoffel symbols with the third eta-derivatives.  Both values are
    exact Gaussian rationals.
    """
    if level not in (2, 3):
        raise ValueError("level must be 2 or 3")
    if not mat_is_zero(mat_restrict(qm1, X_VARS)):
        raise ValueError(
            "degree -1 component does not vanish at the anchor point"
        )

    if level == 2:
        table, weight = mj.riem0, rat(1, 6)
    else:
        table, weight = mj.d2gamma0(), -GR_I * rat(1, 6)
    # Index tuples (a, v1, k, v2, ...): the entry q0[a][k] is differentiated
    # in eta_{v1}, eta_{v2}, ...
    total = GaussianRational(0)
    for idx in product(range(3), repeat=level + 2):
        coeff = reduce(getitem, idx, table)
        if coeff == 0:
            continue
        a, v1, k, *rest = idx
        p = q0[a][k]
        for v in (v1, *rest):
            p = poly_diff(p, ETA_VARS[v])
        total = total + p.constant_term() * coeff
    return total * weight
