"""Iterative construction and verification of the spectral projection symbols.

The curl principal symbol at a point has simple eigenvalues 0 and +/- the
covector norm.  Starting from the pointwise eigenprojections, the iteration
adds one lower-degree component per step so that idempotency and commutation
with the curl symbol hold to successively higher accuracy.  The difference of
the two nonzero projections then yields the asymmetry symbol; its diagonal
trace vanishes at degrees 0, -1, -2 and its degree -3 value at the anchor
reproduces a curvature-derivative closed form.

The conjugation J of graded jets, (JQ)_k = (-1)^k conj(Q_k)
(``calculus.conjugate_branch``), respects composition and sends curl to
-curl, and conj(P+_0) = P-_0.  So J maps every step of the "+" construction
onto the "-" one (the commutation defect T with one more sign), P- = J(P+),
and ``asymmetry_report`` builds only the "+" branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .calculus import (
    SymbolJet,
    compose,
    conjugate_branch,
    subprincipal,
    trace_diag,
    transport_correction,
)
from .configs import CurvatureConfig
from .exactpoly import X_VARS, GaussianRational, TruncatedPoly, poly_mul
from .geometry import (
    MetricJet,
    build_metric_jet,
    covector_norm_sq,
    curl_symbol,
    norm_power,
    raised_covector,
    xi_polys,
)
from .kernel import singular_coefficient
from .polymat import (
    Matrix,
    identity_mat,
    mat_add,
    mat_commutator,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_poly_scale,
    mat_restrict,
    mat_scale,
    mat_sub,
    mat_to_dict,
    tensor,
)

# The curl principal eigenvalue of each branch, in units of ||xi||.
EIGENVALUE = {"+": 1, "0": 0, "-": -1}
LABELS = tuple(EIGENVALUE)


def initial_symbols(raised: tuple, inv1: TruncatedPoly, curl_prin: Matrix) -> dict:
    """Pointwise eigenprojection matrices of the curl principal symbol.

    From the raised covector g^{ab} xi_b, the jet inv1 of ||xi||^-1 and
    curl_prin at one order: {"0": P0, "+": P+, "-": P-}, with P0 the
    projection onto the gradient direction and
    P+- = (1/2)(Id - P0 -+ inv1 * curl_prin).
    """
    order = inv1.order
    xi = xi_polys(order)

    # P0[a][b] = xi_a g^{bc} xi_c / ||xi||^2.
    inv2 = poly_mul(inv1, inv1)
    p0 = tensor(lambda a, b: poly_mul(inv2, poly_mul(xi[a], raised[b])), 2)

    half = Fraction(1, 2)
    base = mat_scale(mat_sub(identity_mat(order), p0), half)
    swirl = mat_scale(mat_poly_scale(curl_prin, inv1), half)
    return {
        "0": p0,
        "+": mat_add(base, swirl),
        "-": mat_sub(base, swirl),
    }


@dataclass(frozen=True)
class ProjectionFamily:
    """One projection jet with its construction audit trail, and the metric
    jet and curl symbol it was built from."""

    aleph: str
    mj: MetricJet
    curl_jet: SymbolJet
    jet: SymbolJet
    steps: tuple

    def to_dict(self) -> dict:
        return {
            "aleph": self.aleph,
            "config": self.mj.config.to_dict(),
            "accuracy": self.jet.accuracy,
            "jet": self.jet.to_dict(),
            "steps": [
                {name: mat_to_dict(m) for name, m in step.items()}
                for step in self.steps
            ],
        }


def run_algorithm(mj: MetricJet, aleph: str, accuracy: int) -> ProjectionFamily:
    """Build the projection jet for one eigenvalue branch, step by step.

    The curl symbol, the raised covector and the squared covector norm are
    formed once from the metric jet mj (order 3, as ``build_metric_jet``
    makes it).  At step k the idempotency defect R and commutation defect
    feed the off-diagonal correction X through the eigenvalue-difference
    denominators; X is installed as the graded level-k component and the
    iteration repeats.  All intermediates (R, S, T, X) are recorded for audit.
    Step k composes P P at levels k - 1 and k only: level j depends on the
    components 0..j of P alone, final from step j on, so each level below the
    top is asserted zero once, at the step after it is set.  The step reads
    only level k of the commutation defect P curl - curl P, so it composes
    both commutators at level k alone.  P_aleph T and T P_aleph are formed
    once per step and serve both other branches.
    """
    if aleph not in LABELS:
        raise ValueError(f"unknown branch label {aleph!r}")
    if accuracy not in (1, 2, 3):
        raise ValueError("accuracy must be 1, 2 or 3")
    n = accuracy
    curl_jet = curl_symbol(mj, accuracy=n)
    curl_prin = curl_jet.principal()
    raised = raised_covector(mj, n)
    inv1 = norm_power(covector_norm_sq(raised), -1)
    prin = initial_symbols(raised, inv1, curl_prin)

    comps = [prin[aleph]]
    p = SymbolJet(0, n, (3, 3), comps)
    steps = []
    for k in range(1, n + 1):
        idem = compose(p, p, (k - 1, k)) - p
        if not mat_is_zero(idem.components[k - 1]):
            raise AssertionError(f"idempotency defect at level {k - 1} before step {k}")
        r_mat = mat_neg(idem.components[k])
        s_mat = mat_sub(
            mat_add(mat_mul(prin[aleph], r_mat), mat_mul(r_mat, prin[aleph])),
            r_mat,
        )
        comm = compose(p, curl_jet, (k,)) - compose(curl_jet, p, (k,))
        t_mat = mat_add(comm.components[k], mat_commutator(s_mat, curl_prin))
        x_mat = s_mat
        pt, tp = mat_mul(prin[aleph], t_mat), mat_mul(t_mat, prin[aleph])
        for beth in LABELS:
            if beth == aleph:
                continue
            mixed = mat_sub(mat_mul(pt, prin[beth]), mat_mul(prin[beth], tp))
            denom = inv1.scale(Fraction(1, EIGENVALUE[aleph] - EIGENVALUE[beth]))
            x_mat = mat_add(x_mat, mat_poly_scale(mixed, denom))
        comps.append(x_mat)
        p = SymbolJet(0, n, (3, 3), comps)
        steps.append({"R": r_mat, "S": s_mat, "T": t_mat, "X": x_mat})

    return ProjectionFamily(aleph, mj, curl_jet, p, tuple(steps))


def verify_projection(fam: ProjectionFamily) -> dict:
    """Independent re-check of idempotency and curl commutation.

    Idempotency must hold exactly at every graded level 0..N; commutation
    with the curl symbol at levels 0..N-1.  The level-N commutation residual
    is reported informationally.  The compositions are the full ones, with
    the curl symbol the family was built from.  Both checks always run;
    first_failure names the idempotency failure when there is one.
    """
    n = fam.jet.accuracy
    idem = compose(fam.jet, fam.jet) - fam.jet
    comm = compose(fam.jet, fam.curl_jet) - compose(fam.curl_jet, fam.jet)

    idem_failure = _first_failure("idempotency", idem, n + 1)
    comm_failure = _first_failure("commutation", comm, n)
    idem_pass = idem_failure is None
    comm_pass = comm_failure is None
    return {
        "aleph": fam.aleph,
        "accuracy": n,
        "idempotency_pass": idem_pass,
        "commutation_pass": comm_pass,
        "pass": idem_pass and comm_pass,
        "first_failure": idem_failure or comm_failure,
        "commutation_top_level_zero": mat_is_zero(comm.components[n]),
    }


def _first_failure(kind: str, jet: SymbolJet, levels: int):
    """The first non-zero level among the first ``levels`` levels of jet, as a
    failure record with its homogeneity degree, or None."""
    for k, m in enumerate(jet.components[:levels]):
        if not mat_is_zero(m):
            return {
                "kind": kind,
                "degree": jet.top_degree - k,
                "residual": mat_to_dict(m),
            }
    return None


def subprincipal_check(fam: ProjectionFamily) -> Matrix:
    """Subprincipal symbol of the projection jet restricted to x = 0, taken
    with the family's own metric jet.

    The contract is that the returned matrix (a polynomial in eta only,
    reliable to order accuracy - 2) vanishes identically.
    """
    sub = subprincipal(fam.jet, fam.mj)
    return mat_restrict(sub, X_VARS)


@dataclass(frozen=True)
class AsymmetryReport:
    """Trace data of the difference of the nonzero projections, and its metric jet."""

    mj: MetricJet
    diag_traces: tuple
    pt_corrections: tuple
    a_prin_value: GaussianRational
    closed_form_value: GaussianRational

    @property
    def passed(self) -> bool:
        return (
            all(z.is_zero() for z in self.diag_traces[:3])
            and all(z.is_zero() for z in self.pt_corrections)
            and self.a_prin_value.is_real()
            and self.a_prin_value == self.closed_form_value
        )

    def to_dict(self) -> dict:
        return {
            "config": self.mj.config.to_dict(),
            "diag_traces": [str(z) for z in self.diag_traces],
            "pt_corrections": [str(z) for z in self.pt_corrections],
            "a_prin": str(self.a_prin_value),
            "closed_form": str(self.closed_form_value),
            "pass": self.passed,
        }


def asymmetry_report(cfg: CurvatureConfig) -> AsymmetryReport:
    """Full order and principal-value check for one curvature configuration.

    Runs the construction on the order-3 metric jet, which the report keeps,
    at accuracy 3 for the "+" branch only and forms the difference P+ - P-
    as P+ - J(P+) (see the module docstring).  Takes the diagonal trace of
    the difference per degree at the anchor point, the two parallel-transport
    corrections, and compares the degree -3 value against the closed form.
    """
    mj = build_metric_jet(cfg)
    plus = run_algorithm(mj, "+", 3).jet
    diff = plus - conjugate_branch(plus)

    diag_traces = tuple(c[0][0].constant_term() for c in trace_diag(diff).components)
    q0, qm1 = diff.components[:2]
    pt = tuple(transport_correction(q0, mj, level, qm1) for level in (2, 3))
    a_prin = diag_traces[3]
    closed = aprin_closed_form(cfg, (Fraction(0), Fraction(0), Fraction(1)))
    return AsymmetryReport(mj, diag_traces, pt, a_prin, closed)


def _rational_sqrt(q):
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError("covector norm is irrational")
    return Fraction(rn, rd)


def aprin_closed_form(cfg: CurvatureConfig, xi: Sequence) -> object:
    """Closed-form principal asymmetry value at the origin.

    -(1 / (2 norm^5)) eps^{a b g} (grad_a Ric)_{b r} xi_g xi_r, which is
    -6 xi^T C xi / norm^5 with C the singular coefficient (1/12) eps grad Ric
    of the kernel (``kernel.singular_coefficient``); index raising at the
    origin is trivial.  Requires a nonzero covector with rational Euclidean
    norm.
    """
    xs = [Fraction(v) for v in xi]
    n2 = xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2]
    if n2 == 0:
        raise ValueError("zero covector")
    norm = _rational_sqrt(n2)
    c = singular_coefficient(cfg)
    paired = sum(xs[g] * c[g][r] * xs[r] for g in range(3) for r in range(3))
    return -6 * paired / norm**5
