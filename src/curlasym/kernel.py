"""Bessel-kernel checks and the singular coefficient of the asymmetry kernel.

Near the diagonal the Schwartz kernel of the asymmetry operator has a
log-singular part |y|^2 ln|y| weighted by a trace-free curvature matrix.
This module verifies the scalar machinery numerically (the Basset integral
representation 2 y K_1(y), the t^2 ln t coefficient 1/(12 pi^2)) and the
tensorial cancellation exactly (trace-freeness, vanishing sphere averages).
All checks live on the Euclidean model of the tangent space at the anchor.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

from .exactpoly import rat
from .geometry import EPSILON, CurvatureConfig
from .polymat import tensor

_EULER_GAMMA = 0.5772156649015328606
#: Upper limit of Basset's integral; the tail beyond it is below
#: 1/(2 cutoff^2) <= 1e-9.
_BASSET_CUTOFF = 2.5e4

# scipy is imported on first use, not with the package: it costs about 50 MB
# of memory and half a second of start-up, and the exact commands (project,
# asym) never call it.


@functools.cache
def _gauss_laguerre() -> tuple:
    """Quadrature nodes and weights for the large-argument K_1 integral."""
    from scipy.special import roots_genlaguerre

    return roots_genlaguerre(70, 0.5)


def bessel_k1(t: float) -> float:
    """Modified Bessel function K_1 with dual-branch evaluation.

    Ascending series for t <= 2; for larger t the integral representation
    K_1(z) = (e^-z / z) Int_0^inf e^-u sqrt(u) sqrt(u + 2z) du evaluated by
    generalized Gauss-Laguerre quadrature.  Relative accuracy better than
    1e-12 on [1e-4, 50].  K_1(t) ~ 1/t is not a finite float below about
    5.6e-309; such t raise ValueError.
    """
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"argument must be positive and finite, got {t}")
    if t <= 2:
        value = _k1_series(t)
        if not math.isfinite(value):
            raise ValueError(f"K_1({t}) overflows a float")
        return value
    nodes, weights = _gauss_laguerre()
    return (
        math.exp(-t)
        / t
        * float(sum(w * math.sqrt(x + 2 * t) for x, w in zip(nodes, weights)))
    )


def _k1_series(z: float) -> float:
    # I_1 ascending series.
    half = z / 2
    term = half
    i1 = term
    k = 0
    while True:
        k += 1
        term *= half * half / (k * (k + 1))
        i1 += term
        # <=, not <: below t ~ 1e-304 both sides underflow to 0.
        if term <= 1e-19 * i1:
            break
    # Digamma sum: psi(k+1) + psi(k+2) = -2 gamma + H_k + H_{k+1}.
    total = 0.0
    q = z * z / 4
    factor = 1.0
    psi_a = -_EULER_GAMMA
    psi_b = -_EULER_GAMMA + 1.0
    k = 0
    while True:
        contrib = (psi_a + psi_b) * factor
        total += contrib
        k += 1
        factor *= q / (k * (k + 1))
        psi_a += 1 / k
        psi_b += 1 / (k + 1)
        if abs(factor) * (abs(psi_a) + abs(psi_b)) < 1e-19:
            break
    return 1 / z + math.log(half) * i1 - (z / 4) * total


def k1_small_argument(t: float) -> float:
    """Two-term small-argument expansion of K_1."""
    return 1 / t + (t / 4) * (2 * math.log(t) + 2 * _EULER_GAMMA - 1 - math.log(4))


def basset_check(y: float) -> tuple:
    """Basset's integral against its closed form 2 y K_1(y).

    Integrates cos(y t) (1 + t^2)^{-3/2} over the real line by adaptive
    quadrature on [0, _BASSET_CUTOFF] and compares with the Bessel closed
    form (value 2 at y = 0).
    """
    from scipy.integrate import IntegrationWarning, quad

    if not (math.isfinite(y) and y >= 0):
        raise ValueError(f"y must be finite and >= 0, got {y}")

    def f(t: float) -> float:
        return (1 + t * t) ** -1.5

    # A quadrature that reports failure (a NaN at y >~ 1e75) checks nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            if y == 0:
                val, _ = quad(f, 0, _BASSET_CUTOFF, limit=400)
            else:
                val, _ = quad(f, 0, _BASSET_CUTOFF, weight="cos", wvar=y, limit=400)
        except IntegrationWarning:
            val = math.nan
    quadrature = 2 * val
    reference = 2.0 if y == 0 else 2 * y * bessel_k1(y)
    if not (math.isfinite(quadrature) and math.isfinite(reference)):
        raise ValueError(f"Basset's integral is not a finite float at y={y}")
    return quadrature, reference, abs(quadrature - reference)


def log_coefficient_check(t: float = 1e-3) -> float:
    """Estimate of the t^2 ln t coefficient of t K_1(t) / (6 pi^2).

    Two-point extraction: F(t) - 4 F(t/2) isolates the log term, so the
    estimate converges to 1 / (12 pi^2) as t decreases.
    """

    def f(u: float) -> float:
        return (u * bessel_k1(u) - 1) / (6 * math.pi**2)

    return (f(t) - 4 * f(t / 2)) / (t * t * math.log(2))


LOG_COEFF_TARGET = 1 / (12 * math.pi**2)


@dataclass(frozen=True)
class SingularCoefficient:
    """Trace-free curvature matrix weighting the log-singular kernel part.

    The rational matrix carries the contraction of the alternating symbol
    with the covariant Ricci derivative; the 1/(12 pi^2) prefactor is kept
    symbolic via the unit tag, so the exact part stays rational.
    """

    c_rational: tuple
    unit: ClassVar[str] = "pi**-2"

    def trace(self):
        return sum(self.c_rational[i][i] for i in range(3))

    def as_float(self) -> list:
        scale = 1 / math.pi**2
        return [[float(v) * scale for v in row] for row in self.c_rational]

    def to_dict(self) -> dict:
        return {
            "c": [[str(v) for v in row] for row in self.c_rational],
            "unit": self.unit,
        }


def singular_coefficient(cfg: CurvatureConfig) -> SingularCoefficient:
    """Exact contraction c_{g r} = (1/12) eps^{ab}{}_g (grad_a Ric)_{br}.

    Index raising at the origin is trivial; the result is trace-free by the
    symmetry of the Ricci derivative in its last two indices.
    """

    def entry(g, r):
        total = sum(
            sign * cfg.dric0[a][b][r] for (a, b, c), sign in EPSILON.items() if c == g
        )
        return total * rat(1, 12)

    return SingularCoefficient(tensor(entry, 2))


def sphere_quadrature(r: float = 1.0) -> tuple:
    """Symmetric 14-point quadrature on the radius-r sphere, degree 5.

    Six octahedron vertices with weight 1/15 and eight scaled cube vertices
    with weight 3/40; weights sum to 1 and integrate polynomials of degree
    up to 5 exactly against the normalized surface measure.
    """
    pts = []
    for i in range(3):
        for s in (1.0, -1.0):
            p = [0.0, 0.0, 0.0]
            p[i] = s * r
            pts.append((tuple(p), 1 / 15))
    c = r / math.sqrt(3)
    for sx in (c, -c):
        for sy in (c, -c):
            for sz in (c, -c):
                pts.append(((sx, sy, sz), 3 / 40))
    return tuple(pts)


def second_moment(r: float = 1.0) -> list:
    """Quadrature value of the raw second moment over the radius-r sphere."""
    area = 4 * math.pi * r * r
    out = [[0.0] * 3 for _ in range(3)]
    for p, w in sphere_quadrature(r):
        for g in range(3):
            for rho in range(3):
                out[g][rho] += area * w * p[g] * p[rho]
    return out


def sphere_average_check(sc: SingularCoefficient, r: float = 1.0) -> float:
    """Sphere average of the singular kernel part; contract: vanishes.

    Averages c_{g r} y^g y^r / r^2 over the radius-r sphere.  Because the
    second moment is isotropic and the coefficient matrix is trace-free, the
    average is zero up to rounding for any symmetric quadrature of degree
    at least 2.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    c = sc.as_float()
    total = 0.0
    for p, w in sphere_quadrature(r):
        val = 0.0
        for g in range(3):
            for rho in range(3):
                val += c[g][rho] * p[g] * p[rho]
        total += w * val / (r * r)
    return total
