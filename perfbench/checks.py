"""Correctness gate for every operation of a benchmark run.

Each check returns a list of problems; an empty list means the operation
passed.  A check never raises and never stops the run: a failed operation
only counts toward ``fail_frac``.

Exact outputs (``asym``, ``project``) are compared byte for byte against
SHA-256 digests pinned for the default seed, and are checked for their
mathematical content on every seed.  On the pinned seed an exact output
without a digest is a failure, so a stale ``pinned.json`` cannot silently
drop the byte-for-byte check.  Numeric outputs (``berger``,
``kernel``) are checked against their stated tolerances and pass flags,
never against digests: a correctly rounded summation may move a float by
one ulp.

This module reads only the JSON text the program printed; it does not
import the program.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

#: The seed whose exact outputs pinned.json holds.
PINNED_SEED = 0
#: Operation kinds whose outputs are compared byte for byte.
EXACT = ("asym_sweep", "asym", "project")
#: Tolerance the program states for the eta decomposition identity.
ETA_TOL = 1e-6
#: Checks the default ``kernel`` run reports, in order.
KERNEL_CHECKS = (
    ["basset"] * 5
    + ["small_argument", "log_coefficient", "second_moment_diag"]
    + ["sphere_average_sweep"]
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(op: dict, rc: int, text: str, pinned: dict, seed: int) -> list:
    """Problems with one operation's exit code and printed output."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    want = pinned.get("digests", {}).get(op["key"])
    if want is not None:
        if digest(text) != want:
            problems.append("output differs from the pinned digest")
    elif op["kind"] in EXACT and seed == PINNED_SEED:
        problems.append("no pinned digest for this output of the pinned seed")
    try:
        problems += CHECKS[op["kind"]](op, json.loads(text), pinned)
    except (
        ValueError,
        KeyError,
        TypeError,
        IndexError,
        AttributeError,
        ZeroDivisionError,
    ) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


def _asym_sweep(op, out, pinned):
    problems = []
    if out["pass"] is not True:
        problems.append("sweep pass flag is false")
    names = [entry["name"] for entry in out["sweep"]]
    if names != op["names"]:
        problems.append(f"sweep covers {names}")
    for entry in out["sweep"]:
        problems += [f"{entry['name']}: {p}" for p in _asym(None, entry["report"], pinned)]
        ricci_flat = all(
            Fraction(v) == 0 for row in entry["report"]["config"]["ric"] for v in row
        )
        if ricci_flat != ("alt_a_prin" in entry):
            problems.append(f"{entry['name']}: hierarchy route missing or extra")
        elif ricci_flat and entry["alt_a_prin"] != entry["report"]["a_prin"]:
            problems.append(f"{entry['name']}: hierarchy route disagrees")
        if entry["pass"] is not True:
            problems.append(f"{entry['name']}: pass flag is false")
    return problems


def _asym(op, out, pinned):
    problems = []
    if out["pass"] is not True:
        problems.append("report pass flag is false")
    if out["a_prin"] != out["closed_form"]:
        problems.append("principal value differs from the closed form")
    if any(Fraction(z) != 0 for z in out["pt_corrections"]):
        problems.append("nonzero transport correction")
    if any(Fraction(z) != 0 for z in out["diag_traces"][:3]):
        problems.append("nonzero diagonal trace above degree -3")
    if op is not None and out["config"] != op["config"]:
        problems.append("report config differs from the input")
    return problems


def _project(op, out, pinned):
    problems = []
    if out["pass"] is not True:
        problems.append("pass flag is false")
    if out["config"] != op["config"] or out["accuracy"] != op["accuracy"]:
        problems.append("config or accuracy differs from the input")
    runs = out["runs"]
    if [r["family"]["aleph"] for r in runs] != ["+", "0", "-"]:
        problems.append("branches are not +, 0, -")
    for r in runs:
        v = r["verification"]
        if not (v["pass"] and v["idempotency_pass"] and v["commutation_pass"]):
            problems.append(f"branch {r['family']['aleph']}: verification failed")
        if len(r["family"]["steps"]) != op["accuracy"]:
            problems.append(f"branch {r['family']['aleph']}: audit trail length")
    if not _projections_sum_to_identity(runs, op["accuracy"]):
        problems.append("the three projections do not sum to the identity")
    return problems


def _projections_sum_to_identity(runs, accuracy) -> bool:
    """P+ + P0 + P- is the identity at every graded level, exactly."""
    for k in range(accuracy + 1):
        for i in range(3):
            for j in range(3):
                total = {}
                for r in runs:
                    poly = r["family"]["jet"]["components"][k][i][j]
                    for term in poly["terms"]:
                        exp = tuple(term["exp"])
                        re, im = total.get(exp, (0, 0))
                        total[exp] = (
                            re + Fraction(term["re"]),
                            im + Fraction(term["im"]),
                        )
                total = {e: z for e, z in total.items() if z != (0, 0)}
                one = {(0,) * 6: (1, 0)} if k == 0 and i == j else {}
                if total != one:
                    return False
    return True


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _berger_eta(op, out, pinned):
    problems = []
    lhs, rhs, res = out["eta_partial"], out["decomposition_rhs"], out["residual"]
    if not _finite(lhs, rhs, res):
        problems.append("non-finite eta value")
        return problems
    if out["pass"] is not True or out["tolerance"] != ETA_TOL:
        problems.append("pass flag or stated tolerance changed")
    if not res <= ETA_TOL or abs(lhs - rhs) > ETA_TOL:
        problems.append(f"eta identity residual {res} above {ETA_TOL}")
    if (Fraction(out["a"]), out["s"], out["n_max"]) != (
        Fraction(op["a"]),
        op["s"],
        op["n_max"],
    ):
        problems.append("parameters differ from the input")
    ref = pinned.get("eta", {}).get(op["key"])
    if ref is None:
        problems.append("no pinned eta partial sum for these parameters")
    elif not abs(lhs - ref) <= ETA_TOL:
        problems.append(f"eta partial sum {lhs} is not within {ETA_TOL} of {ref}")
    a = Fraction(op["a"])
    closed = {
        "eta0": Fraction(2, 3) * (a**2 - 1) ** 2,
        "theta0": Fraction(2, 3) * a**2 * (a**2 - 2),
        "dirac_eta0": -Fraction(1, 6) * (a**2 - 1) ** 2,
    }
    if {k: Fraction(v) for k, v in out["closed_forms"].items()} != closed:
        problems.append("closed forms differ")
    return problems


def _berger_weyl(op, out, pinned):
    problems = []
    margin = 3.0 / op["lambda"]
    dev_p, dev_m = out["deviation_plus"], out["deviation_minus"]
    if not _finite(dev_p, dev_m, out["margin"]):
        return ["non-finite Weyl deviation"]
    if out["pass"] is not True or out["margin"] != margin:
        problems.append("pass flag or stated margin changed")
    if not (dev_p <= margin and dev_m <= margin):
        problems.append(f"Weyl deviations {dev_p}, {dev_m} above {margin}")
    if not (out["n_plus"] > 0 and out["n_minus"] > 0):
        problems.append("empty eigenvalue count")
    return problems


def _kernel(op, out, pinned):
    problems = []
    if out["pass"] is not True:
        problems.append("pass flag is false")
    names = [c["name"] for c in out["checks"]]
    if names != KERNEL_CHECKS:
        problems.append(f"checks reported: {names}")
    for c in out["checks"]:
        if not _finite(c["residual"], c["tolerance"]):
            problems.append(f"{c['name']}: non-finite residual")
        elif not (c["pass"] is True and c["residual"] <= c["tolerance"]):
            problems.append(f"{c['name']}: residual {c['residual']} above {c['tolerance']}")
    return problems


CHECKS = {
    "asym_sweep": _asym_sweep,
    "asym": _asym,
    "project": _project,
    "berger_eta": _berger_eta,
    "berger_weyl": _berger_weyl,
    "kernel": _kernel,
}
