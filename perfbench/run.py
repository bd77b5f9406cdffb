"""curlasym benchmark: drive the CLI on a seeded workload and report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload asym_sweep --seed 0 --seconds 30 --trace 0

Each run starts fresh processes: a few that only import ``curlasym.cli``
(set-up samples) and one worker (``worker.py``) that imports it, runs the
workload's operations through ``curlasym.cli.entry`` one after another, and
checks every output.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; times are in reference
seconds, scaled by the machine-speed probe of speed.py.  With ``--trace 1``
the worker also runs a traced pass and the object holds the per-layer
metrics.  The lines before it record the environment (``env``), the
unscaled times with the scale of each sample (``raw``, untraced runs only)
and a readable summary including ``fail_frac``.  See DESIGN.md for the choice
of workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("asym_sweep", "project_random", "berger_eta")
#: Fresh processes timed for set-up besides the worker; the median is reported.
SETUP_PROBES = 4
#: Every run must end within this many seconds.
RUN_TIMEOUT_S = 170.0


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return done.stdout.strip() or None


def environment(args: argparse.Namespace) -> dict:
    """Facts recorded with every result.

    gmpy2 matters because ``exactpoly.rat`` switches to ``mpq`` when it is
    importable: numbers from such a machine measure a different program.
    """
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "curlasym").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def _spawn(argv: list, deadline: float) -> tuple:
    """Run the worker with argv; return (start time, its JSON result)."""
    started = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker exceeded the run's time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return started, json.loads(lines[-1])


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs each workload on small inputs, for the benchmark's tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "curlasym" / "cli.py").is_file():
        print(f"no curlasym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args)
    if env["gmpy2"]:
        print(
            "warning: gmpy2 is importable, so the exact stack runs on mpq; "
            "these numbers measure a different program",
            file=sys.stderr,
        )

    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                started, probe = _spawn(["setup"], deadline)
                setups.append((probe["imported_at"] - started, probe["setup_scale"]))
        started, result = _spawn(
            [
                args.workload,
                str(args.seed),
                str(args.seconds),
                str(args.trace),
                args.size,
                str(workdir),
            ],
            deadline,
        )
        setups.append((result["imported_at"] - started, result["setup_scale"]))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    env["inputs"] = result["inputs"]
    print("env " + json.dumps(env))
    if args.trace:
        metrics = result["layers"]
    else:
        passes = result["passes"]

        def seconds(values):
            return {"value": statistics.median(values), "unit": "s"}

        metrics = {
            "setup_s": seconds(t * f for t, f in setups),
            "wall_s": seconds(p["wall_s"] * p["scale"] for p in passes),
            "cpu_s": seconds(p["cpu_s"] * p["scale"] for p in passes),
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        # The program's own seconds, unscaled, with the scale of each sample.
        raw = {
            "setup_s": statistics.median(t for t, _ in setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_samples": [{"s": t, "scale": f} for t, f in setups],
            "passes": passes,
        }
        print("raw " + json.dumps(raw))
    summary = {name: f"{m['value']:.6g} {m['unit']}" for name, m in metrics.items()}
    summary["fail_frac"] = f"{failed / attempted:.6g} ({failed}/{attempted})"
    print("summary " + json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
