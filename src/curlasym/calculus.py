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
matrix trace, the two parallel-transport trace corrections, and the
conjugation J of graded jets, (JQ)_k = (-1)^k conj(Q_k), which respects
composition.

Composing B A differentiates the levels of B in eta and those of A in x.
Each compose forms every derivative it needs once and drops them on return:
no derivative state is shared between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import getitem
from typing import Sequence

from .exactpoly import (
    ETA_VARS,
    GR_I,
    GR_ONE,
    MAX_ORDER,
    X_VARS,
    GaussianRational,
    coefficient_reader,
    monomial,
)
from .polymat import (
    Matrix,
    mat_add,
    mat_commutator,
    mat_conj,
    mat_diff,
    mat_is_zero,
    mat_mul,
    mat_neg,
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
    order accuracy - k, so components always has accuracy + 1 entries.  It
    is the only code that truncates to this graded schedule: sums and
    products carry the smaller order of their operands, so callers pass
    their results untruncated.
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


def _mat_order(m: Matrix) -> int:
    return m[0][0].order


def compose(b: SymbolJet, a: SymbolJet, levels=None) -> SymbolJet:
    """Symbol of the composition B A on the graded truncation schedule.

    Output level L collects (1 / (i^k m!)) (d_eta^m b_jb) (d_x^m a_ja) over
    all jb + ja + |m| = L; the SymbolJet constructor truncates each level sum
    to order accuracy - L.  Only the given ``levels`` (default: all) are
    built, and no derivative that only other levels need; the rest are zero.
    """
    if b.accuracy != a.accuracy:
        raise ValueError("accuracy mismatch")
    if b.shape[1] != a.shape[0]:
        raise ValueError("shape mismatch")
    n = b.accuracy
    wanted = set(range(n + 1) if levels is None else levels)
    if not wanted <= set(range(n + 1)):
        raise ValueError(f"levels {sorted(wanted)} outside 0..{n}")
    out_shape = (b.shape[0], a.shape[1])

    cache: dict = {}

    def deriv(side: int, level: int, m: tuple) -> Matrix | None:
        """d_eta^m of b's level (side 0) or d_x^m of a's level (side 1),
        formed from the derivative one order below it.

        A zero derivative is recorded once, as None, and so are all of its
        own derivatives.
        """
        key = (side, level, m)
        if key not in cache:
            if not any(m):
                d = (b, a)[side].components[level]
            else:
                i = next(j for j in range(3) if m[j] > 0)
                prev = deriv(side, level, m[:i] + (m[i] - 1,) + m[i + 1 :])
                var = (ETA_VARS, X_VARS)[side][i]
                d = None if prev is None else mat_diff(prev, var)
            cache[key] = None if d is None or mat_is_zero(d) else d
        return cache[key]

    # Order n is at or above every level's schedule, so each level sum takes
    # the order of its terms.
    out = [zero_mat(out_shape, n)] * (n + 1)

    for jb in range(n + 1):
        if deriv(0, jb, (0, 0, 0)) is None:
            continue
        for ja in range(n + 1 - jb):
            if deriv(1, ja, (0, 0, 0)) is None:
                continue
            for level in wanted.intersection(range(jb + ja, n + 1)):
                for m in _multi_indices(level - jb - ja):
                    bm = deriv(0, jb, m)
                    if bm is None:
                        continue
                    am = deriv(1, ja, m)
                    if am is None:
                        continue
                    term = mat_scale(mat_mul(bm, am), _WEIGHT[m])
                    out[level] = mat_add(out[level], term)

    return SymbolJet(b.top_degree + a.top_degree, n, out_shape, out)


def conjugate_branch(q: SymbolJet) -> SymbolJet:
    """J(q): level k becomes (-1)^k conj(q_k).

    Level L of B A sums (-i)^|m| / m! times products of levels jb and ja with
    jb + ja + |m| = L, and conj((-i)^|m|) = (-1)^|m| (-i)^|m|, so
    J(B A) = J(B) J(A).  A real differential operator with an imaginary
    principal symbol, such as curl, has J(curl) = -curl.
    """
    comps = [
        mat_conj(m) if k % 2 == 0 else mat_neg(mat_conj(m))
        for k, m in enumerate(q.components)
    ]
    return SymbolJet(q.top_degree, q.accuracy, q.shape, comps)


def _multi_indices(k: int):
    for m1 in range(k + 1):
        for m2 in range(k + 1 - m1):
            yield (m1, m2, k - m1 - m2)


#: The weight (-i)^|m| / m! of the multi-index m in a composition.
_WEIGHT = {
    m: (GR_ONE, -GR_I, -GR_ONE, GR_I)[k % 4] / math.prod(map(math.factorial, m))
    for k in range(MAX_ORDER + 1)
    for m in _multi_indices(k)
}


def _christoffel_t(mj) -> list:
    """The matrices A_g^T, where A_g[r][c] = Gamma^r_{g c}."""
    gamma = mj.gamma
    return [tensor(lambda r, c: gamma[c][g][r], 2) for g in range(3)]


def subprincipal(q: SymbolJet, mj) -> Matrix:
    """Subprincipal symbol of an operator on 1-forms.

    Implements q_{s-1} + (i/2) d2 q_s / dx dxi plus the three Christoffel
    terms, with E_g = d q_s / d xi_g: the density contraction
    (i/2) tr(A_g) E_g and the row lowering and column raising
    -(i/2) (A_g^T E_g + E_g A_g^T).  Scalar 1x1 jets are supported as
    operators on half-densities: the bundle terms drop and only the density
    contraction remains.  The mixed derivative of q_s and the Christoffel
    symbols give the result truncation order min(accuracy - 2, mj.order - 1).
    """
    if q.shape not in ((3, 3), (1, 1)):
        raise ValueError("subprincipal requires a 3x3 or 1x1 jet")
    scalar = q.shape == (1, 1)
    if q.accuracy < 2:
        raise ValueError("subprincipal needs at least two graded levels")
    qs = q.components[0]
    half_i = GR_I * Fraction(1, 2)

    out = q.components[1]
    for g, at in enumerate(_christoffel_t(mj)):
        e = mat_diff(qs, ETA_VARS[g])
        term = mat_add(mat_diff(e, X_VARS[g]), mat_poly_scale(e, mat_trace(at)))
        if not scalar:
            term = mat_sub(term, mat_add(mat_mul(at, e), mat_mul(e, at)))
        out = mat_add(out, mat_scale(term, half_i))
    return out


def _covariant_x_derivative(m: Matrix, g: int, at: Matrix) -> Matrix:
    """d_{x_g} m - [A_g^T, m] for a (1,1)-tensor symbol m."""
    return mat_sub(mat_diff(m, X_VARS[g]), mat_commutator(at, m))


def poisson_bracket(qp: Matrix, rp: Matrix, mj) -> Matrix:
    """Generalized Poisson bracket of two principal symbol matrices.

    Both x-derivatives carry Christoffel corrections; the bracket reduces to
    the plain matrix Poisson bracket when the Christoffel jet vanishes.  The
    result has one order less than the lower of its inputs, and at most the
    Christoffel order mj.order - 1.
    """
    order = min(_mat_order(qp), _mat_order(rp)) - 1
    if order < 0:
        raise ValueError("inputs must have truncation order >= 1")
    out = zero_mat((3, 3), order)
    for g, at in enumerate(_christoffel_t(mj)):
        dq_cov = _covariant_x_derivative(qp, g, at)
        dr_cov = _covariant_x_derivative(rp, g, at)
        dq_eta = mat_diff(qp, ETA_VARS[g])
        dr_eta = mat_diff(rp, ETA_VARS[g])
        out = mat_add(out, mat_sub(mat_mul(dq_cov, dr_eta), mat_mul(dq_eta, dr_cov)))
    return out


def adjoint_prin_sub(q: SymbolJet, mj) -> tuple:
    """Principal and subprincipal symbols of the formal adjoint.

    Both are obtained by the metric sandwich g conj(.)^T g^{-1} applied to
    the corresponding symbol of q.
    """
    if q.shape != (3, 3):
        raise ValueError("adjoint requires a 3x3 jet")

    def sandwich(m: Matrix) -> Matrix:
        return mat_mul(mat_mul(mj.g, mat_transpose(mat_conj(m))), mj.g_inv)

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
    if any(p.order < level for row in q0 for p in row):
        raise ValueError(f"q0 must have truncation order >= {level}")
    if not mat_is_zero(mat_restrict(qm1, X_VARS)):
        raise ValueError(
            "degree -1 component does not vanish at the anchor point"
        )

    if level == 2:
        table, weight = mj.riem0, Fraction(1, 6)
    else:
        table, weight = mj.d2gamma0(), -GR_I * Fraction(1, 6)
    # Index tuples (a, v1, k, v2, ...): q0[a][k] is differentiated in eta_{v1},
    # eta_{v2}, ...; at the anchor, that is the coefficient of the eta monomial
    # (one packed key per eta tuple) times the factorials of its exponents.
    total = GaussianRational(0)
    for v1, *rest in product(range(3), repeat=level):
        exp = monomial(ETA_VARS[v] for v in (v1, *rest))
        read, factor = coefficient_reader(exp), math.prod(map(math.factorial, exp))
        for a, k in product(range(3), repeat=2):
            coeff = reduce(getitem, (a, v1, k, *rest), table)
            if coeff and (deriv := read(q0[a][k])):
                total = total + deriv * (factor * coeff)
    return total * weight
