"""Acceptance suite: the eleven headline checks, one pass/fail line each.

Each test prints a single "criterion N: PASS/FAIL" line (visible with -s, and
in the captured output on failure) and asserts the criterion at its stated
tolerance.  Symbolic criteria are exact; numeric ones use the versioned
defaults of the command-line front end.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from curlasym.altderiv import aprin_alternative, build_hierarchy
from curlasym.berger import (
    BergerParams,
    counting_function,
    curl_spectrum,
    eta_closed_forms,
    eta_decomposition_rhs,
    eta_partial,
    weyl_check,
)
from curlasym.calculus import (
    compose,
    poisson_bracket,
    subprincipal,
)
from curlasym.configs import UNIT_CONFIG_NAMES, random_config, unit_config
from curlasym.exactpoly import (
    GR_I,
    TruncatedPoly,
    poly_add,
    poly_mul,
)
from curlasym.geometry import (
    build_metric_jet,
    curl_symbol,
    d_delta_symbols,
    transport_jet,
)
from curlasym.kernel import (
    LOG_COEFF_TARGET,
    basset_check,
    bessel_k1,
    k1_small_argument,
    log_coefficient_check,
    singular_coefficient,
    sphere_average_check,
)
from curlasym.polymat import (
    identity_mat,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_trace,
)
from curlasym.projections import (
    LABELS,
    aprin_closed_form,
    asymmetry_report,
    run_algorithm,
    subprincipal_check,
    verify_projection,
)

from conftest import anchor_values, poly_scale_x, random_jet, random_poly


def report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {text}", flush=True)
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_golden_intermediates_order_check():
    ok = True
    mj_c1 = build_metric_jet(unit_config("c1"))
    for sign, aleph in ((1, "+"), (-1, "-")):
        fam = run_algorithm(mj_c1, aleph, 2)
        step = fam.steps[1]
        i = GR_I
        s12 = Fraction(1, 12)
        want = {
            "R": [
                [-s12, i * (2 * s12 * sign), 0],
                [i * (-2 * s12 * sign), -s12, 0],
                [0, 0, 0],
            ],
            "S": [
                [-2 * s12, i * (s12 * sign), 0],
                [i * (-s12 * sign), -2 * s12, 0],
                [0, 0, 0],
            ],
            "T": [[s12 * sign, 0, 0], [0, -s12 * sign, 0], [0, 0, 0]],
            "X": [
                [Fraction(-1, 6), i * (Fraction(1, 8) * sign), 0],
                [i * (Fraction(-1, 24) * sign), Fraction(-1, 6), 0],
                [0, 0, 0],
            ],
        }
        for key, expect in want.items():
            got = anchor_values(step[key])
            for a in range(3):
                for b in range(3):
                    ok = ok and got[a][b] == expect[a][b]
    trace_diff = sum(
        (
            anchor_values(run_algorithm(mj_c1, "+", 2).steps[1]["X"])[k][k]
            - anchor_values(run_algorithm(mj_c1, "-", 2).steps[1]["X"])[k][k]
        )
        for k in range(3)
    )
    ok = ok and trace_diff.is_zero()
    report(1, ok, "c1 accuracy-2 step matrices and trace cancellation, exact")


def test_criterion_02_golden_intermediates_a_prin():
    ok = True
    for sign, aleph in ((1, "+"), (-1, "-")):
        fam = run_algorithm(build_metric_jet(unit_config("c11")), aleph, 3)
        step = fam.steps[2]
        i = GR_I
        e8, e4 = Fraction(1, 8), Fraction(1, 4)
        want = {
            "R": [[0, i * e8, 0], [i * -e8, 0, 0], [0, 0, 0]],
            "S": [[-sign * e8, 0, 0], [0, -sign * e8, 0], [0, 0, 0]],
            "T": [[0, i * (-sign * e4), 0], [i * (-sign * e4), 0, 0], [0, 0, 0]],
            "X": [[-sign * e4, 0, 0], [0, 0, 0], [0, 0, 0]],
        }
        for key, expect in want.items():
            got = anchor_values(step[key])
            for a in range(3):
                for b in range(3):
                    ok = ok and got[a][b] == expect[a][b]
        # Degree -1 and -2 polynomial matrices are pinned in the module test
        # suite; here assert their anchor content indirectly via the report.
    rep = asymmetry_report(unit_config("c11"))
    ok = ok and rep.a_prin_value == Fraction(-1, 2)
    report(2, ok, "c11 accuracy-3 step matrices exact; final trace -1/2")


def test_criterion_03_full_sweep():
    ok = True
    for name in UNIT_CONFIG_NAMES:
        cfg = unit_config(name)
        rep = asymmetry_report(cfg)
        ok = ok and rep.passed
        ok = ok and rep.a_prin_value == aprin_closed_form(cfg, (0, 0, 1))
        mj = build_metric_jet(cfg, order=3)
        for aleph in LABELS:
            fam = run_algorithm(mj, aleph, 3)
            ok = ok and verify_projection(fam)["pass"]
            ok = ok and mat_is_zero(subprincipal_check(fam))
    report(3, ok, "24-config sweep: traces, transport, subprincipal, closed form")


def test_criterion_04_cross_pipeline_oracle():
    h = build_hierarchy(unit_config("c11"))
    ok = True
    # Deepest inverse-half component at the anchor: a single entry -i/2.
    for a in range(3):
        for b in range(3):
            v = h.s_m4[a][b].constant_term()
            if (a, b) == (1, 0):
                ok = ok and v == GR_I * Fraction(-1, 2)
            else:
                ok = ok and v.is_zero()
    # Linear anchor data of the next component.
    expected_lin = {
        (0, 1): (2, Fraction(-1, 4)),
        (0, 2): (1, Fraction(-1, 4)),
        (1, 0): (2, Fraction(1, 12)),
        (1, 2): (0, Fraction(-1, 4)),
        (2, 0): (1, Fraction(1, 12)),
        (2, 1): (0, Fraction(-1, 4)),
    }
    for a in range(3):
        for b in range(3):
            p = h.s_m3[a][b].restrict((3, 4, 5))
            lin = {
                exp.index(1): c for exp, c in p.terms.items() if sum(exp) == 1
            }
            want = expected_lin.get((a, b))
            if want is None:
                ok = ok and not lin
            else:
                ok = ok and lin == {want[0]: want[1] + 0 * GR_I}
    for name in UNIT_CONFIG_NAMES[6:]:
        cfg = unit_config(name)
        alt = aprin_alternative(build_hierarchy(cfg))
        ok = ok and alt == asymmetry_report(cfg).a_prin_value
    report(4, ok, "hierarchy route matches pinned matrices and A_prin, exact")


def test_criterion_05_berger_closed_forms():
    rng = random.Random(150)
    ok = True
    for _ in range(50):
        a = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        forms = eta_closed_forms(BergerParams(a))
        ok = ok and forms["eta0"] == Fraction(2, 3) * (a**2 - 1) ** 2
        ok = ok and forms["theta0"] == Fraction(2, 3) * a**2 * (a**2 - 2)
        ok = ok and forms["eta0"] == -4 * forms["dirac_eta0"]
    ok = ok and eta_closed_forms(BergerParams(1))["eta0"] == 0
    report(5, ok, "closed-form eta identities at 50 random rational a, exact")


def test_criterion_06_berger_decomposition_identity():
    ok = True
    worst = 0.0
    for a in (Fraction(1, 2), 1, 2):
        p = BergerParams(a)
        lhs = eta_partial(curl_spectrum(p, 3000), 6.0)
        rhs = eta_decomposition_rhs(p, 6.0, 3000)
        worst = max(worst, abs(lhs - rhs))
        ok = ok and abs(lhs - rhs) <= 1e-6
    report(6, ok, f"eta decomposition at s=6, n_max=3000; worst residual {worst:.2e}")


def test_criterion_07_berger_spot_values():
    t = curl_spectrum(BergerParams(1), 110)
    agg = {}
    ok = True
    for e in t.entries:
        v = round(e.value)
        ok = ok and e.value == v
        agg[v] = agg.get(v, 0) + e.multiplicity
    for n in range(2, 51):
        ok = ok and agg[n] == n * n - 1 and agg[-n] == n * n - 1
    ok = ok and counting_function(t, 100, 1) == 328251
    report(7, ok, "round-sphere spectrum +-n with n^2-1; N+(100) = 328251")


def test_criterion_08_weyl_law():
    p = BergerParams(1)
    devs = []
    ok = True
    for lam in (50.0, 100.0, 200.0, 400.0):
        r = weyl_check(p, lam)
        ok = ok and r["deviation_plus"] <= 3 / lam
        ok = ok and r["deviation_minus"] <= 3 / lam
        devs.append(max(r["deviation_plus"], r["deviation_minus"]))
    ok = ok and devs == sorted(devs, reverse=True)
    report(8, ok, "counting ratios within 3/lambda and monotone decreasing")


def test_criterion_09_bessel_identity():
    ok = True
    for k in range(10):
        y = 0.1 * (5.0 / 0.1) ** (k / 9)
        _, _, residual = basset_check(y)
        ok = ok and residual <= 1e-8
    t = 0.01
    ok = ok and abs(bessel_k1(t) - k1_small_argument(t)) <= abs(
        t**3 * math.log(t)
    )
    est = log_coefficient_check(1e-3)
    ok = ok and abs(est - LOG_COEFF_TARGET) <= 0.01 * LOG_COEFF_TARGET
    report(9, ok, "Basset grid, small-argument envelope, log-coefficient fit")


def test_criterion_10_kernel_regularisation():
    ok = True
    for name in list(UNIT_CONFIG_NAMES) + ["flat"]:
        sc = singular_coefficient(unit_config(name))
        ok = ok and sc.trace() == 0
        ok = ok and abs(sphere_average_check(sc)) <= 1e-10
    report(10, ok, "trace-free contraction exact; sphere averages <= 1e-10")


def test_criterion_11_calculus_property_suite():
    ok = True
    # Ring laws.
    rng = random.Random(160)
    for _ in range(100):
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        c = random_poly(rng, 2)
        ok = ok and poly_mul(a, b) == poly_mul(b, a)
        ok = ok and poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        lhs = poly_mul(a, poly_add(b, c))
        ok = ok and lhs == poly_add(poly_mul(a, b), poly_mul(a, c))
    # Composition associativity.
    rng = random.Random(161)
    for _ in range(100):
        q = random_jet(rng, 2, density=0.12)
        r = random_jet(rng, 2, density=0.12)
        s = random_jet(rng, 2, density=0.12)
        ok = ok and compose(compose(q, r), s) == compose(q, compose(r, s))
    # Subprincipal-of-composition identity, two code paths.
    rng = random.Random(162)
    half_i = GR_I * Fraction(1, 2)
    for _ in range(100):
        mj = build_metric_jet(random_config(rng), order=3)
        q = random_jet(rng, 2, density=0.12)
        r = random_jet(rng, 2, density=0.12)
        lhs = subprincipal(compose(q, r), mj)
        rhs = mat_add(
            mat_add(
                mat_mul(q.principal(), subprincipal(r, mj)),
                mat_mul(subprincipal(q, mj), r.principal()),
            ),
            mat_scale(
                poisson_bracket(q.principal(), r.principal(), mj), half_i
            ),
        )
        ok = ok and mat_is_zero(mat_sub(lhs, rhs))
    # Natural-operator subprincipal vanishing.
    rng = random.Random(163)
    for _ in range(100):
        mj = build_metric_jet(random_config(rng), order=3)
        curl = curl_symbol(mj, accuracy=2)
        ok = ok and mat_is_zero(subprincipal(curl, mj))
        ok = ok and mat_is_zero(subprincipal(compose(curl, curl), mj))
        d_sym, delta_sym = d_delta_symbols(mj, accuracy=2)
        ok = ok and mat_is_zero(subprincipal(compose(d_sym, delta_sym), mj))
        ok = ok and mat_is_zero(subprincipal(compose(delta_sym, d_sym), mj))
    # Adjoint involution (metric sandwich applied twice).
    rng = random.Random(164)
    from curlasym.polymat import mat_conj, mat_transpose, mat_truncate

    for _ in range(100):
        mj = build_metric_jet(random_config(rng), order=3)
        m = random_jet(rng, 2, density=0.2).principal()

        def sandwich(mat):
            g = mat_truncate(mj.g, 2)
            g_inv = mat_truncate(mj.g_inv, 2)
            return mat_truncate(
                mat_mul(mat_mul(g, mat_transpose(mat_conj(mat))), g_inv), 2
            )

        ok = ok and mat_is_zero(mat_sub(sandwich(sandwich(m)), m))
    # Transport round-trip and tau-independence.
    rng = random.Random(165)
    for _ in range(100):
        mj = build_metric_jet(random_config(rng), order=3)
        out = transport_jet(mj, "origin_to_y")
        back = transport_jet(mj, "y_to_origin")
        ok = ok and mat_is_zero(
            mat_sub(mat_mul(out.z_vector, back.z_vector), identity_mat(3))
        )
        tau = Fraction(rng.randint(0, 2), 2)
        mid = transport_jet(mj, ("y_to_tau_y", tau))
        tail = tuple(
            tuple(poly_scale_x(p, tau) for p in row) for row in back.z_vector
        )
        ok = ok and mat_is_zero(
            mat_sub(mat_mul(mid.z_vector, tail), back.z_vector)
        )
    report(11, ok, "six exact property families, 100 seeded cases each")
