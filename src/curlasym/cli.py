"""Command-line front end for all verification suites.

Each command returns its report: a JSON-ready dict whose top-level
``"pass"`` is the verdict, or the CSV pieces of ``berger spectrum``.
``entry`` alone writes it, and the exit code is the printed ``pass`` flag:
0 all assertions pass (and always for the CSV), 1 a mathematical
verification failed, 2 usage or IO error, reported as one line on standard
error.  Reports are deterministic byte-for-byte for identical arguments:
the symbolic pipelines are exact, and the Berger spectra are summed chunk by
chunk, each chunk split by error-free extraction into a few levels with
exact float sums, into one integer accumulator that is rounded once, so
every floating-point sum is correctly rounded and does not depend on
summation order or on the chunk size, which bounds the memory (the eta
identity's rounding bound, a float sum of chunk sums, may differ in its last
bits).  The spectrum CSV is written one chunk at a time, and the ~1 MB JSON
of ``project`` in pieces of 4096 encoder chunks.  Only the parser outlives a
call: ``build_parser`` runs once per process.  A call reuses its own buffers
(a Berger sum's one scratch array) and leaves nothing behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import islice
from typing import Iterable, Iterator

from .altderiv import aprin_alternative, build_hierarchy
from .berger import (
    BergerParams,
    curl_spectrum,
    eta_closed_forms,
    eta_identity,
    weyl_check,
)
from .configs import UNIT_CONFIG_NAMES, CurvatureConfig, unit_config
from .exactpoly import parse_rational
from .geometry import build_metric_jet
from .kernel import (
    LOG_COEFF_TARGET,
    basset_check,
    bessel_k1,
    k1_small_argument,
    log_coefficient_check,
    second_moment,
    singular_coefficient,
    sphere_average_check,
)
from .projections import (
    LABELS,
    asymmetry_report,
    run_algorithm,
    verify_projection,
)

#: Versioned numeric tolerance defaults referenced by the acceptance checks.
DEFAULTS = {
    "eta_identity_tol": 1e-6,
    "basset_tol": 1e-8,
    "log_coeff_rel_tol": 1e-2,
    "sphere_average_tol": 1e-10,
    "second_moment_rel_tol": 1e-10,
    "weyl_margin": 3.0,
}


def _load_config(name: str) -> CurvatureConfig:
    if name == "flat" or name in UNIT_CONFIG_NAMES:
        return unit_config(name)
    try:
        with open(name, "r", encoding="utf-8") as fh:
            return CurvatureConfig.loads(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load config {name!r}: {exc}") from None


def _emit(pieces: Iterable[str], output: str | None) -> None:
    """Write a report's pieces to the file named output, or to stdout if
    output is None."""
    try:
        if output is not None:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            print(flush=True)
    except OSError as exc:  # BrokenPipeError too, when stdout's reader quits
        if output is None:
            # Python flushes stdout again at exit; let that flush go nowhere.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = "standard output" if output is None else repr(output)
        raise ValueError(f"cannot write {target}: {exc}") from None


def _json_pieces(payload: object) -> Iterator[str]:
    """The indent-2 JSON text of payload, joined 4096 encoder chunks at a
    time, so the encoder's many small chunks are never all held at once."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while piece := "".join(islice(chunks, 4096)):
        yield piece


def cmd_project(args: argparse.Namespace) -> dict:
    alephs = args.aleph.split(",")
    for i, aleph in enumerate(alephs):
        if aleph not in LABELS:
            raise ValueError(f"unknown branch label {aleph!r}")
        if aleph in alephs[:i]:
            raise ValueError(f"branch label {aleph!r} given twice")
    cfg = _load_config(args.config)
    mj = build_metric_jet(cfg)
    runs = []
    for aleph in alephs:
        fam = run_algorithm(mj, aleph, args.accuracy)
        report = verify_projection(fam)
        runs.append({"family": fam.to_dict(), "verification": report})
    return {
        "config": cfg.to_dict(),
        "accuracy": args.accuracy,
        "runs": runs,
        "pass": all(run["verification"]["pass"] for run in runs),
    }


def cmd_asym(args: argparse.Namespace) -> dict:
    if not args.sweep:
        name = "flat" if args.config is None else args.config
        return asymmetry_report(_load_config(name)).to_dict()
    results = []
    for name in UNIT_CONFIG_NAMES:
        cfg = unit_config(name)
        rep = asymmetry_report(cfg)
        entry = {"name": name, "report": rep.to_dict()}
        ok = rep.passed
        if cfg.ricci_flat:
            alt = aprin_alternative(build_hierarchy(rep.mj))
            entry["alt_a_prin"] = str(alt)
            ok = ok and alt == rep.a_prin_value
        entry["pass"] = ok
        results.append(entry)
    return {"sweep": results, "pass": all(entry["pass"] for entry in results)}


def _parse_a(text: str):
    try:
        return parse_rational(text)
    except ZeroDivisionError:
        raise ValueError(f"parameter a {text!r} divides by zero") from None
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"parameter a {text!r} is not a number") from None


def cmd_berger_spectrum(args: argparse.Namespace) -> Iterator[str]:
    return curl_spectrum(BergerParams(_parse_a(args.a)), args.nmax).csv_chunks()


def cmd_berger_eta(args: argparse.Namespace) -> dict:
    p = BergerParams(_parse_a(args.a))
    tol = DEFAULTS["eta_identity_tol"]
    lhs, rhs, rounding = eta_identity(p, args.s, args.nmax)
    if rounding > tol:
        raise ValueError(
            f"float rounding in the eta identity at a={p.a}, s={args.s} may "
            f"reach {rounding:.3g}, above its tolerance {tol:g}"
        )
    residual = abs(lhs - rhs)
    payload = {
        "a": str(p.a),
        "s": args.s,
        "n_max": args.nmax,
        "eta_partial": lhs,
        "decomposition_rhs": rhs,
        "residual": residual,
        "tolerance": tol,
        "pass": residual <= tol,
    }
    try:
        closed = eta_closed_forms(p)
        payload["closed_forms"] = {k: str(v) for k, v in closed.items()}
    except TypeError:
        pass
    return payload


def cmd_berger_weyl(args: argparse.Namespace) -> dict:
    result = weyl_check(BergerParams(_parse_a(args.a)), args.lam)
    margin = DEFAULTS["weyl_margin"] / args.lam
    result["margin"] = margin
    result["pass"] = (
        result["deviation_plus"] <= margin and result["deviation_minus"] <= margin
    )
    return result


def cmd_kernel(args: argparse.Namespace) -> dict:
    if args.config is not None and not args.sphere:
        raise ValueError("argument --config: only allowed with argument --sphere")
    checks = []

    def record(name, inputs, value, reference, tolerance):
        residual = abs(value - reference)
        checks.append(
            {
                "name": name,
                "inputs": inputs,
                "value": value,
                "reference": reference,
                "residual": residual,
                "tolerance": tolerance,
                "pass": residual <= tolerance,
            }
        )

    if args.y is not None:
        q, ref, _ = basset_check(args.y)
        record("basset", {"y": args.y}, q, ref, DEFAULTS["basset_tol"])
    elif args.sphere:
        name = "flat" if args.config is None else args.config
        avg = sphere_average_check(singular_coefficient(_load_config(name)))
        record(
            "sphere_average",
            {"config": name},
            avg,
            0.0,
            DEFAULTS["sphere_average_tol"],
        )
    else:
        for y in (0.1, 0.5, 1.0, 2.0, 5.0):
            q, ref, _ = basset_check(y)
            record("basset", {"y": y}, q, ref, DEFAULTS["basset_tol"])
        t = 0.01
        record(
            "small_argument",
            {"t": t},
            bessel_k1(t),
            k1_small_argument(t),
            abs(t**3 * math.log(t)),
        )
        est = log_coefficient_check(1e-3)
        record(
            "log_coefficient",
            {"t": 1e-3},
            est,
            LOG_COEFF_TARGET,
            DEFAULTS["log_coeff_rel_tol"] * LOG_COEFF_TARGET,
        )
        sm = second_moment(1.0)
        target = 4 * math.pi / 3
        record(
            "second_moment_diag",
            {"r": 1.0},
            max(sm[i][i] for i in range(3)),
            target,
            DEFAULTS["second_moment_rel_tol"] * target,
        )
        worst = 0.0
        for name in UNIT_CONFIG_NAMES:
            c = singular_coefficient(unit_config(name))
            if sum(c[i][i] for i in range(3)) != 0:
                record("trace_free", {"config": name}, 1.0, 0.0, 0.0)
            worst = max(worst, abs(sphere_average_check(c)))
        record(
            "sphere_average_sweep",
            {"configs": len(UNIT_CONFIG_NAMES)},
            worst,
            0.0,
            DEFAULTS["sphere_average_tol"],
        )
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, as the subcommands do."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curlasym",
        description="Verification suites for the curl spectral asymmetry pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_proj = sub.add_parser("project", help="run the projection construction")
    p_proj.add_argument("--config", default="flat")
    p_proj.add_argument("--accuracy", type=int, choices=(1, 2, 3), default=3)
    p_proj.add_argument("--aleph", default="+,0,-")
    p_proj.add_argument("--output")
    p_proj.set_defaults(func=cmd_project)

    p_asym = sub.add_parser("asym", help="asymmetry operator report")
    source = p_asym.add_mutually_exclusive_group()
    source.add_argument("--config", help="config name or JSON file (default: flat)")
    source.add_argument("--sweep", action="store_true")
    p_asym.add_argument("--output")
    p_asym.set_defaults(func=cmd_asym)

    p_berger = sub.add_parser("berger", help="Berger-sphere spectral numerics")
    bsub = p_berger.add_subparsers(dest="berger_cmd", required=True)
    b_spec = bsub.add_parser("spectrum")
    b_spec.add_argument("--a", default="1")
    b_spec.add_argument("--nmax", type=int, default=50)
    b_spec.add_argument("--output")
    b_spec.set_defaults(func=cmd_berger_spectrum)
    b_eta = bsub.add_parser("eta")
    b_eta.add_argument("--a", default="2")
    b_eta.add_argument("--s", type=float, default=6.0)
    b_eta.add_argument("--nmax", type=int, default=3000)
    b_eta.add_argument("--output")
    b_eta.set_defaults(func=cmd_berger_eta)
    b_weyl = bsub.add_parser("weyl")
    b_weyl.add_argument("--a", default="1")
    b_weyl.add_argument("--lambda", dest="lam", type=float, default=200.0)
    b_weyl.add_argument("--output")
    b_weyl.set_defaults(func=cmd_berger_weyl)

    p_kernel = sub.add_parser("kernel", help="Bessel-kernel numeric checks")
    check = p_kernel.add_mutually_exclusive_group()
    check.add_argument("--y", type=float)
    check.add_argument("--sphere", action="store_true")
    p_kernel.add_argument("--config", help="with --sphere (default: flat)")
    p_kernel.add_argument("--output")
    p_kernel.set_defaults(func=cmd_kernel)

    return parser


def entry(argv=None) -> int:
    """Run one command and write its report.  A usage error that argparse
    finds exits with code 2 from parse_args, before any work."""
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        if not isinstance(report, dict):
            _emit(report, args.output)
            return 0
        _emit(_json_pieces(report), args.output)
        return 0 if report["pass"] else 1
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
