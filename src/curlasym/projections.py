"""Iterative construction and verification of the spectral projection symbols.

The curl principal symbol at a point has simple eigenvalues 0 and +/- the
covector norm.  Starting from the pointwise eigenprojections, the iteration
adds one lower-degree component per step so that idempotency and commutation
with the curl symbol hold to successively higher accuracy.  The difference of
the two nonzero projections then yields the asymmetry symbol; its diagonal
trace vanishes at degrees 0, -1, -2 and its degree -3 value at the anchor
reproduces a curvature-derivative closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from .calculus import (
    SymbolJet,
    compose,
    subprincipal,
    trace_diag,
    transport_correction,
)
from .exactpoly import X_VARS, GaussianRational, TruncatedPoly, poly_mul, rat
from .geometry import (
    EPSILON,
    CurvatureConfig,
    MetricJet,
    build_metric_jet,
    covector_norm_sq,
    curl_symbol,
    norm_power,
    raised_covector,
    xi_polys,
)
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
    mat_truncate,
    tensor,
)

LABELS = ("+", "0", "-")

# Scalar multiple of the inverse-norm jet giving 1 / (h_aleph - h_beth).
_DENOM_FACTOR = {
    ("+", "0"): rat(1),
    ("+", "-"): rat(1, 2),
    ("0", "+"): rat(-1),
    ("0", "-"): rat(1),
    ("-", "0"): rat(-1),
    ("-", "+"): rat(-1, 2),
}


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

    half = rat(1, 2)
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

    p = SymbolJet(0, n, (3, 3), [prin[aleph]])
    steps = []
    for k in range(1, n + 1):
        order = n - k
        idem = compose(p, p) - p
        for j in range(k):
            if not mat_is_zero(idem.components[j]):
                raise AssertionError(
                    f"idempotency defect at level {j} before step {k}"
                )
        r_mat = mat_neg(idem.components[k])
        s_mat = mat_truncate(
            mat_add(
                mat_neg(r_mat),
                mat_add(
                    mat_mul(prin[aleph], r_mat), mat_mul(r_mat, prin[aleph])
                ),
            ),
            order,
        )
        comm = compose(p, curl_jet) - compose(curl_jet, p)
        t_mat = mat_truncate(
            mat_add(comm.components[k], mat_commutator(s_mat, curl_prin)),
            order,
        )
        x_mat = s_mat
        for beth in LABELS:
            if beth == aleph:
                continue
            mixed = mat_sub(
                mat_mul(mat_mul(prin[aleph], t_mat), prin[beth]),
                mat_mul(mat_mul(prin[beth], t_mat), prin[aleph]),
            )
            denom = inv1.scale(_DENOM_FACTOR[(aleph, beth)])
            x_mat = mat_add(
                x_mat, mat_truncate(mat_poly_scale(mixed, denom), order)
            )
        x_mat = mat_truncate(x_mat, order)
        p = p.with_component_added(k, x_mat)
        steps.append({"R": r_mat, "S": s_mat, "T": t_mat, "X": x_mat})

    return ProjectionFamily(aleph, mj, curl_jet, p, tuple(steps))


def verify_projection(fam: ProjectionFamily) -> dict:
    """Independent re-check of idempotency and curl commutation.

    Idempotency must hold exactly at every graded level 0..N; commutation
    with the curl symbol at levels 0..N-1.  The level-N commutation residual
    is reported informationally.  The compositions are the full ones, with
    the curl symbol the family was built from.
    """
    n = fam.jet.accuracy
    idem = compose(fam.jet, fam.jet) - fam.jet
    comm = compose(fam.jet, fam.curl_jet) - compose(fam.curl_jet, fam.jet)

    first_failure = None
    idem_pass = True
    for k in range(n + 1):
        if not mat_is_zero(idem.components[k]):
            idem_pass = False
            first_failure = {
                "kind": "idempotency",
                "degree": -k,
                "residual": mat_to_dict(idem.components[k]),
            }
            break
    comm_pass = True
    if first_failure is None:
        for k in range(n):
            if not mat_is_zero(comm.components[k]):
                comm_pass = False
                first_failure = {
                    "kind": "commutation",
                    "degree": 1 - k,
                    "residual": mat_to_dict(comm.components[k]),
                }
                break
    return {
        "aleph": fam.aleph,
        "accuracy": n,
        "idempotency_pass": idem_pass,
        "commutation_pass": comm_pass,
        "pass": idem_pass and comm_pass,
        "first_failure": first_failure,
        "commutation_top_level_zero": mat_is_zero(comm.components[n]),
    }


def subprincipal_check(fam: ProjectionFamily, mj: MetricJet) -> Matrix:
    """Subprincipal symbol of the projection jet restricted to x = 0.

    The contract is that the returned matrix (a polynomial in eta only,
    reliable to order accuracy - 2) vanishes identically.
    """
    sub = subprincipal(fam.jet, mj)
    return mat_restrict(sub, X_VARS)


@dataclass(frozen=True)
class AsymmetryReport:
    """Trace data of the difference of the two nonzero projections."""

    config: CurvatureConfig
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
            "config": self.config.to_dict(),
            "diag_traces": [str(z) for z in self.diag_traces],
            "pt_corrections": [str(z) for z in self.pt_corrections],
            "a_prin": str(self.a_prin_value),
            "closed_form": str(self.closed_form_value),
            "pass": self.passed,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def asymmetry_report(cfg: CurvatureConfig) -> AsymmetryReport:
    """Full order and principal-value check for one curvature configuration.

    Runs the construction at accuracy 3 for both nonzero branches, takes the
    diagonal trace of the difference per degree at the anchor point, the two
    parallel-transport corrections, and compares the degree -3 value against
    the curvature-derivative closed form.
    """
    mj = build_metric_jet(cfg)
    diff = run_algorithm(mj, "+", 3).jet - run_algorithm(mj, "-", 3).jet

    diag_traces = tuple(c[0][0].constant_term() for c in trace_diag(diff).components)
    q0, qm1 = diff.components[:2]
    pt = tuple(transport_correction(q0, mj, level, qm1) for level in (2, 3))
    a_prin = diag_traces[3]
    closed = aprin_closed_form(cfg, (rat(0), rat(0), rat(1)))
    return AsymmetryReport(cfg, diag_traces, pt, a_prin, closed)


def _rational_sqrt(q):
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError("covector norm is irrational")
    return rat(rn, rd)


def aprin_closed_form(cfg: CurvatureConfig, xi: Sequence) -> object:
    """Closed-form principal asymmetry value at the origin.

    -(1 / (2 norm^5)) * sum of epsilon_{a b g} times the covariant Ricci
    derivative (nabla_a Ric)_{b r} contracted with xi_g xi_r; index raising
    at the origin is trivial.  Requires a nonzero covector with rational
    Euclidean norm.
    """
    xs = [rat(v) for v in xi]
    n2 = xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2]
    if n2 == 0:
        raise ValueError("zero covector")
    norm = _rational_sqrt(n2)
    total = sum(
        sign * cfg.dric0[a][b][r] * xs[g] * xs[r]
        for (a, b, g), sign in EPSILON.items()
        for r in range(3)
    )
    return total * rat(-1, 2) / (norm**5)
