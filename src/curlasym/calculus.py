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
from typing import Mapping, Sequence

from .exactpoly import (
    GR_I,
    GR_ONE,
    GaussianRational,
    TruncatedPoly,
    poly_add,
    poly_diff,
    poly_from_dict,
    poly_mul,
    poly_to_dict,
    rat,
)
from .polymat import (
    Matrix,
    identity_mat,
    mat_add,
    mat_conj,
    mat_is_zero,
    mat_map,
    mat_mul,
    mat_restrict,
    mat_scale,
    mat_shape,
    mat_sub,
    mat_transpose,
    mat_truncate,
    zero_mat,
)

_X_VARS = (0, 1, 2)
_ETA_VARS = (3, 4, 5)


class SymbolJet:
    """Graded list of matrix components expanded at (0, xi0)."""

    __slots__ = ("top_degree", "accuracy", "shape", "components")

    def __init__(
        self,
        top_degree: int,
        accuracy: int,
        shape: tuple,
        components: Sequence[Matrix],
    ) -> None:
        if accuracy < 0:
            raise ValueError("accuracy must be >= 0")
        comps = list(components)
        if len(comps) > accuracy + 1:
            raise ValueError("more components than graded levels")
        fixed = []
        for k in range(accuracy + 1):
            order = accuracy - k
            if k < len(comps):
                m = comps[k]
                if mat_shape(m) != tuple(shape):
                    raise ValueError("component shape mismatch")
                if _mat_order(m) < order:
                    raise ValueError(
                        f"level {k} truncation order {_mat_order(m)} "
                        f"below required {order}"
                    )
                fixed.append(mat_truncate(m, order))
            else:
                fixed.append(zero_mat(tuple(shape), order))
        object.__setattr__(self, "top_degree", top_degree)
        object.__setattr__(self, "accuracy", accuracy)
        object.__setattr__(self, "shape", tuple(shape))
        object.__setattr__(self, "components", tuple(fixed))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SymbolJet is immutable")

    # -- queries ----------------------------------------------------------

    def component(self, k: int) -> Matrix:
        """Component at graded level k (homogeneity degree top_degree - k)."""
        return self.components[k]

    def component_by_degree(self, degree: int) -> Matrix:
        return self.components[self.top_degree - degree]

    def principal(self) -> Matrix:
        return self.components[0]

    def is_zero(self) -> bool:
        return all(mat_is_zero(m) for m in self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolJet):
            return NotImplemented
        return (
            self.top_degree == other.top_degree
            and self.accuracy == other.accuracy
            and self.shape == other.shape
            and self.components == other.components
        )

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
            "components": [
                [[poly_to_dict(p) for p in row] for row in m]
                for m in self.components
            ],
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


def identity_jet(accuracy: int, dim: int = 3) -> SymbolJet:
    return SymbolJet(0, accuracy, (dim, dim), [identity_mat(accuracy, dim)])


def constant_jet(m: Matrix, accuracy: int, top_degree: int = 0) -> SymbolJet:
    return SymbolJet(top_degree, accuracy, mat_shape(m), [m])


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

    eta_cache: dict = {}
    x_cache: dict = {}

    def eta_deriv(level: int, m: tuple) -> Matrix:
        key = (level, m)
        if key not in eta_cache:
            if m == (0, 0, 0):
                eta_cache[key] = b.components[level]
            else:
                i = next(j for j in range(3) if m[j] > 0)
                prev = list(m)
                prev[i] -= 1
                base = eta_deriv(level, tuple(prev))
                eta_cache[key] = mat_map(
                    lambda p: poly_diff(p, _ETA_VARS[i]), base
                )
        return eta_cache[key]

    def x_deriv(level: int, m: tuple) -> Matrix:
        key = (level, m)
        if key not in x_cache:
            if m == (0, 0, 0):
                x_cache[key] = a.components[level]
            else:
                i = next(j for j in range(3) if m[j] > 0)
                prev = list(m)
                prev[i] -= 1
                base = x_deriv(level, tuple(prev))
                x_cache[key] = mat_map(
                    lambda p: poly_diff(p, _X_VARS[i]), base
                )
        return x_cache[key]

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
                    bm = eta_deriv(jb, m)
                    if mat_is_zero(bm):
                        continue
                    am = x_deriv(ja, m)
                    if mat_is_zero(am):
                        continue
                    fact = 1
                    for mi in m:
                        for v in range(2, mi + 1):
                            fact *= v
                    coeff = minus_i_pow[k] * rat(1, fact)
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


def subprincipal(q: SymbolJet, mj) -> Matrix:
    """Subprincipal symbol of an operator on 1-forms.

    Implements q_{s-1} + (i/2) d2 q_s / dx dxi plus the three Christoffel
    terms (density contraction, row lowering, column raising).  Scalar 1x1
    jets are supported as operators on half-densities: the bundle terms drop
    and only the density contraction remains.  The result is reliable to
    truncation order accuracy - 2.
    """
    if q.shape not in ((3, 3), (1, 1)):
        raise ValueError("subprincipal requires a 3x3 or 1x1 jet")
    scalar = q.shape == (1, 1)
    if q.accuracy < 2:
        raise ValueError("subprincipal needs at least two graded levels")
    n = q.accuracy
    order = n - 2
    qs = q.components[0]
    qs1 = q.components[1]
    half_i = GR_I * rat(1, 2)

    out = mat_truncate(qs1, order)

    # Mixed second derivative term.
    for g_var in range(3):
        term = mat_map(
            lambda p: poly_diff(poly_diff(p, _ETA_VARS[g_var]), _X_VARS[g_var]),
            qs,
        )
        out = mat_add(out, mat_scale(mat_truncate(term, order), half_i))

    gamma = mj.gamma
    eta_d = [
        mat_map(lambda p: poly_diff(p, _ETA_VARS[g_var]), qs)
        for g_var in range(3)
    ]

    # Density term: Gamma^a_{g a} d q_s / d xi_g.
    for g_var in range(3):
        trace_gamma = gamma[0][g_var][0]
        for a_i in range(1, 3):
            trace_gamma = poly_add(trace_gamma, gamma[a_i][g_var][a_i])
        term = mat_map(
            lambda p: _poly_mul_trunc(trace_gamma, p, order), eta_d[g_var]
        )
        out = mat_add(out, mat_scale(term, half_i))

    if scalar:
        return mat_truncate(out, order)

    # Row term: -Gamma^a_{g mu} d [q_s]_a{}^nu / d xi_g.
    rows = []
    for mu in range(3):
        row = []
        for nu in range(3):
            acc = TruncatedPoly.zero(order)
            for g_var in range(3):
                for a_i in range(3):
                    acc = poly_add(
                        acc,
                        _poly_mul_trunc(
                            gamma[a_i][g_var][mu], eta_d[g_var][a_i][nu], order
                        ),
                    )
            row.append(acc)
        rows.append(tuple(row))
    out = mat_add(out, mat_scale(tuple(rows), -half_i))

    # Column term: -Gamma^nu_{g a} d [q_s]_mu{}^a / d xi_g.
    rows = []
    for mu in range(3):
        row = []
        for nu in range(3):
            acc = TruncatedPoly.zero(order)
            for g_var in range(3):
                for a_i in range(3):
                    acc = poly_add(
                        acc,
                        _poly_mul_trunc(
                            gamma[nu][g_var][a_i], eta_d[g_var][mu][a_i], order
                        ),
                    )
            row.append(acc)
        rows.append(tuple(row))
    out = mat_add(out, mat_scale(tuple(rows), -half_i))
    return mat_truncate(out, order)


def _poly_mul_trunc(a: TruncatedPoly, b: TruncatedPoly, order: int) -> TruncatedPoly:
    p = poly_mul(a, b)
    return p.truncate(min(p.order, order))


class PoissonBracket:
    """Result wrapper for the generalized Poisson bracket."""

    __slots__ = ("value",)

    def __init__(self, value: Matrix) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PoissonBracket is immutable")


def _covariant_x_derivative(m: Matrix, g_var: int, gamma, order: int) -> Matrix:
    """Christoffel-corrected x-derivative of a (1,1)-tensor symbol."""
    rows = []
    for a_i in range(3):
        row = []
        for k_i in range(3):
            acc = poly_diff(m[a_i][k_i], _X_VARS[g_var])
            acc = acc.truncate(min(acc.order, order))
            for j in range(3):
                acc = poly_add(
                    acc,
                    -_poly_mul_trunc(gamma[j][g_var][a_i], m[j][k_i], order),
                )
                acc = poly_add(
                    acc,
                    _poly_mul_trunc(gamma[k_i][g_var][j], m[a_i][j], order),
                )
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def poisson_bracket(qp: Matrix, rp: Matrix, mj) -> PoissonBracket:
    """Generalized Poisson bracket of two principal symbol matrices.

    Both x-derivatives carry Christoffel corrections; the bracket reduces to
    the plain matrix Poisson bracket when the Christoffel jet vanishes.
    """
    order = min(_mat_order(qp), _mat_order(rp)) - 1
    if order < 0:
        raise ValueError("inputs must have truncation order >= 1")
    gamma = mj.gamma
    out = zero_mat((3, 3), order)
    for g_var in range(3):
        dq_cov = _covariant_x_derivative(qp, g_var, gamma, order)
        dr_cov = _covariant_x_derivative(rp, g_var, gamma, order)
        dq_eta = mat_map(lambda p: poly_diff(p, _ETA_VARS[g_var]), qp)
        dr_eta = mat_map(lambda p: poly_diff(p, _ETA_VARS[g_var]), rp)
        out = mat_add(out, mat_truncate(mat_mul(dq_cov, dr_eta), order))
        out = mat_sub(out, mat_truncate(mat_mul(dq_eta, dr_cov), order))
    return PoissonBracket(out)


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
    if q.shape[0] != q.shape[1]:
        raise ValueError("trace requires square components")
    comps = []
    for m in q.components:
        acc = m[0][0]
        for i in range(1, q.shape[0]):
            acc = poly_add(acc, m[i][i])
        comps.append(((acc,),))
    return SymbolJet(q.top_degree, q.accuracy, (1, 1), comps)


def transport_correction(q0: Matrix, mj, level: int, qm1: Matrix | None = None) -> GaussianRational:
    """Parallel-transport correction to the matrix trace at the anchor.

    q0 must be the degree-0 component of the difference of the two nonzero
    spectral projection symbols.  If the degree -1 component is supplied it
    is checked to vanish at x = 0, which the closed-form contractions assume.

    Level 2 contracts the Riemann tensor with the second eta-derivatives of
    q0; level 3 contracts the symmetrized second derivative of the
    Christoffel symbols with the third eta-derivatives.  Both values are
    exact Gaussian rationals.
    """
    if level not in (2, 3):
        raise ValueError("level must be 2 or 3")
    if qm1 is not None and not mat_is_zero(mat_restrict(qm1, _X_VARS)):
        raise ValueError(
            "degree -1 component does not vanish at the anchor point"
        )

    def eta_deriv_at_zero(p: TruncatedPoly, vs: tuple) -> GaussianRational:
        for v in vs:
            p = poly_diff(p, _ETA_VARS[v])
        return p.constant_term()

    total = GaussianRational(0)
    if level == 2:
        riem = mj.riem0
        for a_i in range(3):
            for m_i in range(3):
                for k_i in range(3):
                    for n_i in range(3):
                        coeff = riem[a_i][m_i][k_i][n_i]
                        if coeff == 0:
                            continue
                        total = total + eta_deriv_at_zero(
                            q0[a_i][k_i], (m_i, n_i)
                        ) * coeff
        return total * rat(1, 6)

    d2g = mj.d2gamma0()
    for a_i in range(3):
        for s_i in range(3):
            for k_i in range(3):
                for m_i in range(3):
                    for n_i in range(3):
                        coeff = d2g[a_i][s_i][k_i][m_i][n_i]
                        if coeff == 0:
                            continue
                        total = total + eta_deriv_at_zero(
                            q0[a_i][k_i], (s_i, m_i, n_i)
                        ) * coeff
    return total * (-GR_I) * rat(1, 6)
