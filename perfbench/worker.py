"""One benchmark run, in a fresh process that drives the CLI in-process.

``run.py`` starts this script once per run.  It imports ``curlasym.cli``
first, so that the parent can time set-up up to that point, then builds the
workload's inputs from the seed, calls ``curlasym.cli.entry(argv)`` for each
operation (a closed loop: one client, one call at a time), and prints one
JSON object with the raw timings, the speed-probe scale of each timed
interval (see speed.py), peak memory and check results.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SIZE WORKDIR
       python3 perfbench/worker.py setup   (import only, for a set-up sample)
"""

import sys
import time

STARTED = time.perf_counter()

from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
if __name__ == "__main__":
    PROBE.start()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import curlasym.cli as cli  # noqa: E402  (set-up ends here)

IMPORTED_AT = time.monotonic()
IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

from curlasym.configs import UNIT_CONFIG_NAMES, random_config, unit_config  # noqa: E402

from checks import check  # noqa: E402
from tracing import SpanRecorder  # noqa: E402

#: Parameters of each workload at the measured ("full") and test ("tiny")
#: sizes.  The Berger truncation is 2000 rather than the 3000 of the
#: acceptance suite so that every run of the benchmark fits its time budget;
#: the spectra are still O(n_max^2) tables (2 M entries, ~0.6 GB).
SIZES = {
    "full": {"configs": 4, "accuracy": 3, "n_max": 2000, "lambda": 400.0},
    "tiny": {"configs": 2, "accuracy": 1, "n_max": 200, "lambda": 20.0},
}
BERGER_A = ("1/2", "1", "2")
ETA_S = 6.0


def _config_key(path: Path) -> str:
    return "cfg:" + hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def build_ops(workload: str, seed: int, size: str, workdir: Path) -> list:
    """The operations of one pass; inputs depend only on the seed and size."""
    rng = random.Random(seed)
    p = SIZES[size]
    if workload == "asym_sweep":
        # The sweep's inputs are the 24 fixed unit configurations, so the
        # seed does not change them.  The tiny size runs two of them.
        if size == "full":
            return [
                {
                    "kind": "asym_sweep",
                    "argv": ["asym", "--sweep"],
                    "names": list(UNIT_CONFIG_NAMES),
                }
            ]
        return [
            {
                "kind": "asym",
                "argv": ["asym", "--config", name],
                "config": unit_config(name).to_dict(),
            }
            for name in ("c1", "c7")
        ]
    if workload == "project_random":
        ops = []
        for i in range(p["configs"]):
            cfg = random_config(rng).to_dict()
            path = workdir / f"config{i}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            acc = str(p["accuracy"])
            ops.append(
                {
                    "kind": "project",
                    "argv": ["project", "--config", str(path), "--accuracy", acc],
                    "config": cfg,
                    "accuracy": p["accuracy"],
                }
            )
            ops.append(
                {"kind": "asym", "argv": ["asym", "--config", str(path)], "config": cfg}
            )
        return ops
    if workload == "berger_eta":
        return berger_ops(rng.choice(BERGER_A), size)
    raise ValueError(f"unknown workload {workload!r}")


def berger_ops(a: str, size: str) -> list:
    p = SIZES[size]
    n_max, lam = str(p["n_max"]), str(p["lambda"])
    return [
        {
            "kind": "berger_eta",
            "argv": ["berger", "eta", "--a", a, "--s", str(ETA_S), "--nmax", n_max],
            "a": a,
            "s": ETA_S,
            "n_max": p["n_max"],
        },
        {
            "kind": "berger_weyl",
            "argv": ["berger", "weyl", "--a", "1", "--lambda", lam],
            "lambda": p["lambda"],
        },
        {"kind": "kernel", "argv": ["kernel"]},
    ]


def op_key(op: dict) -> str:
    """The operation's argv, with config paths replaced by content hashes."""
    argv = list(op["argv"])
    if "--config" in argv:
        i = argv.index("--config") + 1
        if argv[i].endswith(".json"):
            argv[i] = _config_key(Path(argv[i]))
    return " ".join(argv)


def run_op(op: dict):
    """Call the CLI once; return (exit code, printed text, wall s, cpu s)."""
    buf = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.entry(op["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raising operation is a failed operation
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue(), time.perf_counter() - t0, time.process_time() - c0


def run_pass(ops: list) -> dict:
    """Run every operation once; times are raw, ``scale`` converts them."""
    begin = time.perf_counter()
    outcomes = [run_op(op) for op in ops]
    return {
        "wall_s": sum(o[2] for o in outcomes),
        "cpu_s": sum(o[3] for o in outcomes),
        "scale": PROBE.scale(begin, time.perf_counter()),
        "outcomes": [(op, o[0], o[1]) for op, o in zip(ops, outcomes)],
    }


def ref_wall(p: dict) -> float:
    return p["wall_s"] * p["scale"]


def main(argv: list) -> None:
    setup_scale = PROBE.scale(STARTED, IMPORTED)
    if argv == ["setup"]:
        PROBE.stop()
        result = {"imported_at": IMPORTED_AT, "setup_scale": setup_scale}
        sys.stdout.write(json.dumps(result) + "\n")
        return
    workload, seed, seconds, trace, size, workdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    ops = build_ops(workload, seed, size, Path(workdir))
    for op in ops:
        op["key"] = op_key(op)

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(ops))
        median = statistics.median(p["wall_s"] for p in passes)
        if trace or time.perf_counter() - begin + median > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if trace:
        # Plain, traced, plain: the overhead compares the traced pass with
        # the mean of the plain passes on either side, which cancels a
        # steady drift in machine speed.
        recorder = SpanRecorder()
        recorder.install()
        try:
            traced = run_pass(ops)
        finally:
            recorder.uninstall()
        passes += [traced, run_pass(ops)]
        plain = (ref_wall(passes[0]) + ref_wall(passes[2])) / 2
        layers = recorder.layer_metrics(
            output_bytes=sum(len(text.encode()) for _, _, text in traced["outcomes"]),
            overhead_frac=ref_wall(traced) / plain - 1,
        )
        timed = [passes[0], passes[2]]
    else:
        timed = passes

    PROBE.stop()
    problems = []
    attempted = failed = 0
    for p in passes:
        for op, rc, text in p["outcomes"]:
            attempted += 1
            found = check(op, rc, text, pinned, seed)
            if found:
                failed += 1
                problems.append(f"{op['key']}: " + "; ".join(found))
    result = {
        "imported_at": IMPORTED_AT,
        "setup_scale": setup_scale,
        "passes": [
            {k: p[k] for k in ("wall_s", "cpu_s", "scale")} for p in timed
        ],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "layers": layers,
        "inputs": [op["key"] for op in ops],
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
