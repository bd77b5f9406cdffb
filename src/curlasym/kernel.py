"""Bessel-kernel checks and the singular coefficient of the asymmetry kernel.

Near the diagonal the Schwartz kernel of the asymmetry operator has a
log-singular part |y|^2 ln|y| weighted by a trace-free curvature matrix.
This module verifies the scalar machinery numerically (the Basset integral
representation 2 y K_1(y), the t^2 ln t coefficient 1/(12 pi^2)) and the
tensorial cancellation exactly (trace-freeness, vanishing sphere averages).
All checks live on the Euclidean model of the tangent space at the anchor.

The quadratures are double-exponential rules over the whole half line: one
exp-sinh rule serves K_1's large-argument integral and Basset's integral at
y = 0, and the Ooura-Mori formula Basset's integral at y > 0.  That last one
needs numpy, imported on first use, as in ``berger``, so that the exact
commands (project, asym) start without it.
"""

from __future__ import annotations

import math

from .configs import CurvatureConfig
from .polymat import tensor

_EULER_GAMMA = 0.5772156649015328606
#: Basset's check is defined for 0 <= y <= BASSET_Y_MAX and refused above.
#: Past y ~ 745 the closed form 2 y K_1(y) ~ sqrt(2 pi y) e^-y rounds to 0,
#: so the check there tests only the quadrature's cancellation; the bound, a
#: round figure, caps that range.
BASSET_Y_MAX = 1e72


def bessel_k1(t: float) -> float:
    """Modified Bessel function K_1 with dual-branch evaluation.

    Ascending series for t <= 2; for larger t the integral representation
    K_1(z) = (e^-z / z) Int_0^inf e^-u sqrt(u) sqrt(u + 2z) du evaluated by
    the exp-sinh rule of ``_exp_sinh``, within 3 ulp of mpmath's K_1 on
    [2, 700] (the two branches agree exactly at t = 2).  K_1(t) ~ 1/t is not
    a finite float below about 5.6e-309; such t raise ValueError.
    """
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"argument must be positive and finite, got {t}")
    if t <= 2:
        # K_1(t) > 1 / t, which overflows below 2**-1024; the series' t / 2
        # would underflow to 0 at the least subnormal.
        value = _k1_series(t) if math.isfinite(1 / t) else math.inf
        if not math.isfinite(value):
            raise ValueError(f"K_1({t}) overflows a float")
        return value
    total = _exp_sinh(lambda x: math.exp(-x) * math.sqrt(x * (x + 2 * t)))
    return math.exp(-t) / t * total


def _exp_sinh(f) -> float:
    """Int_0^inf f(x) dx by the exp-sinh rule of Takahasi and Mori (Publ.
    RIMS 9, 1974): x = exp((pi/2) sinh s), step 1/16 on s in [-4, 4], so the
    nodes run from 2.4e-19 to 4.1e18.  For both integrands here, K_1's and
    Basset's at y = 0, the end terms are below 1e-18 of the sum, which is
    taken with one rounding.
    """
    terms = []
    for k in range(-64, 65):
        s = k / 16
        x = math.exp((math.pi / 2) * math.sinh(s))
        terms.append(f(x) * x * math.cosh(s))
    return math.fsum(terms) * (math.pi / 2) / 16


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

    Integrates cos(y t) (1 + t^2)^{-3/2} over the real line with no cutoff:
    by the Ooura-Mori formula for y > 0 and by the exp-sinh rule at y = 0
    (``_half_line_integral``).  Compares with the Bessel closed form, which
    is 2 + y^2 ln(y / 2) + O(y^2) and so rounds to 2 for y <= 1e-9.
    Defined for 0 <= y <= BASSET_Y_MAX.
    """
    if not (math.isfinite(y) and y >= 0):
        raise ValueError(f"y must be finite and >= 0, got {y}")
    if y > BASSET_Y_MAX:
        raise ValueError(
            f"Basset's integral is not a finite float above 0 at y={y}, "
            f"and its check stops at y={BASSET_Y_MAX:g}"
        )
    reference = 2.0 if y <= 1e-9 else 2 * y * bessel_k1(y)
    quadrature = 2 * _half_line_integral(y)
    return quadrature, reference, abs(quadrature - reference)


def _half_line_integral(omega: float) -> float:
    """Int_0^inf cos(omega x) (1 + x^2)^{-3/2} dx = omega K_1(omega).

    For omega > 0 the Ooura-Mori formula (J. Comput. Appl. Math. 112, 1999):
    x = M phi(t) / omega with phi(t) = t / (1 - e^-u(t)),
    u(t) = 2t + alpha (1 - e^-t) + beta (e^t - 1), and M h = pi, summed at
    t = (n - 1/2) h.  As t grows, M phi(t) tends double-exponentially to the
    zeros (n - 1/2) pi of the cosine, and as t falls, phi(t) to 0.  The
    integrand varies on the unit scale while the cosine's first zero sits
    at pi / (2 omega), so h shrinks like 1 / ln(1 / omega) as omega falls.
    Nodes and weights are formed as logarithms, so nothing overflows at any
    omega that K_1 accepts, and the terms are summed with one rounding.

    At omega = 0 the exp-sinh rule of ``_exp_sinh``.
    """
    if omega == 0:
        return _exp_sinh(lambda x: (1 + x * x) ** -1.5)
    import numpy as np

    with np.errstate(under="ignore"):
        lw = math.log(omega)
        h = 0.25 / (3 + max(0.0, -lw))
        m = math.pi / h
        beta = 0.25
        alpha = beta / math.sqrt(1 + m * math.log1p(m) / (4 * math.pi))
        # Below t_lo the weights fall under e^-55 of the sum, above t_hi the
        # cosine factor under e^-45 / M.
        t_lo = math.log((55 + max(0.0, -lw)) / alpha)
        t_hi = math.log((45 + math.log(m)) / beta)
        n = np.arange(-math.ceil(t_lo / h), math.ceil(t_hi / h) + 1)
        t = (n - 0.5) * h
        u = 2 * t - alpha * np.expm1(-t) + beta * np.expm1(t)
        du = 2 + alpha * np.exp(-t) + beta * np.exp(t)
        em = np.expm1(u)
        log_phi = np.log(t / em) + u
        log_dphi = u + np.log(em - t * du) - 2 * np.log(np.abs(em))
        # cos(M phi): for t > 0, M phi = (n - 1/2) pi + M t / em exactly.
        cos = np.where(
            t < 0, np.cos(m * np.exp(log_phi)), (1 - 2 * (n % 2)) * np.sin(m * t / em)
        )
        log_x = math.log(m) - lw + log_phi
        log_f = -1.5 * np.logaddexp(0, 2 * log_x)
        terms = np.exp(math.log(math.pi) - lw + log_dphi + log_f) * cos
    return math.fsum(terms.tolist())


def log_coefficient_check(t: float = 1e-3) -> float:
    """Estimate of the t^2 ln t coefficient of t K_1(t) / (6 pi^2).

    Two-point extraction: F(t) - 4 F(t/2) isolates the log term, so the
    estimate converges to 1 / (12 pi^2) as t decreases.
    """

    def f(u: float) -> float:
        return (u * bessel_k1(u) - 1) / (6 * math.pi**2)

    return (f(t) - 4 * f(t / 2)) / (t * t * math.log(2))


LOG_COEFF_TARGET = 1 / (12 * math.pi**2)


def singular_coefficient(cfg: CurvatureConfig) -> tuple:
    """Exact contraction c_{g r} = (1/12) eps^{ab}{}_g (grad_a Ric)_{br}.

    The trace-free rational 3x3 matrix C weighting the log-singular kernel
    part, in units of pi^-2 (a factor kept out of the exact part so that it
    stays rational; ``sphere_average_check`` applies it).  The same C gives
    the principal asymmetry value (``projections.aprin_closed_form``).
    Index raising at the origin is trivial; the result is trace-free by the
    symmetry of the Ricci derivative in its last two indices.
    """

    def entry(g, r):
        a, b = (g + 1) % 3, (g + 2) % 3  # eps_{abg} = 1 = -eps_{bag}
        return (cfg.dric0[a][b][r] - cfg.dric0[b][a][r]) / 12

    return tensor(entry, 2)


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


def sphere_average_check(c: tuple, r: float = 1.0) -> float:
    """Sphere average of the singular kernel part; contract: vanishes.

    Averages pi^-2 c_{g r} y^g y^r / r^2 over the radius-r sphere, for the
    rational matrix c of ``singular_coefficient``.  Because the second
    moment is isotropic and the coefficient matrix is trace-free, the
    average is zero up to rounding for any symmetric quadrature of degree
    at least 2.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    scale = 1 / math.pi**2
    try:
        c_float = [[float(v) * scale for v in row] for row in c]
    except OverflowError:
        raise ValueError("a singular coefficient entry overflows a float") from None
    total = 0.0
    for p, w in sphere_quadrature(r):
        val = 0.0
        for g in range(3):
            for rho in range(3):
                val += c_float[g][rho] * p[g] * p[rho]
        total += w * val / (r * r)
    return total
