"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import contextlib
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "bits", "bytes")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@functools.lru_cache(maxsize=None)
def run_json(workload: str, trace: int, repeat: int = 0) -> tuple:
    """(summary line, final JSON) of one tiny run; repeat makes a fresh run."""
    done = _run("--workload", workload, "--seed", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[-2], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    summary, result = run_json(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert summary.startswith("summary ") and '"fail_frac": "0 (0/' in summary


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = run_json(workload, 1)[1]["metrics"]
    second = run_json(workload, 1, repeat=1)[1]["metrics"]
    counts = {k for k, m in first.items() if m["unit"] in EXACT_UNITS}
    assert {k for k in counts if k.endswith((".calls", ".entries", ".terms_out"))}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_traced_run_sees_the_workload_layers():
    sweep = run_json("asym_sweep", 1)[1]["metrics"]
    berger = run_json("berger_eta", 1)[1]["metrics"]
    assert sweep["calculus.compose.calls"]["value"] > 0
    assert sweep["berger.curl_spectrum.entries"]["value"] == 0
    assert berger["berger.curl_spectrum.entries"]["value"] > 0
    assert berger["exactpoly.poly_mul.calls"]["value"] == 0


@contextlib.contextmanager
def benchmark_copy(with_sources: bool):
    """A scratch directory with BENCHMARK.json and a copy of perfbench/.

    With sources, ``src`` links to the repository's, so the copy is a
    checkout whose pinned.json a test may change.
    """
    copy = ROOT / ".perfbench_work" / f"copy-{os.getpid()}"
    copy.mkdir(parents=True, exist_ok=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        if with_sources:
            (copy / "src").symlink_to(ROOT / "src", target_is_directory=True)
        yield copy
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def run_with_pinned(change) -> tuple:
    """(final JSON, stderr) of a tiny asym_sweep run on a changed pinned.json."""
    with benchmark_copy(with_sources=True) as copy:
        path = copy / "perfbench" / "pinned.json"
        pinned = json.loads(path.read_text(encoding="utf-8"))
        change(pinned["digests"])
        path.write_text(json.dumps(pinned), encoding="utf-8")
        done = _run("--workload", "asym_sweep", "--seed", "0", "--trace", "0", cwd=copy)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def _assert_c1_failed_in_every_pass(result):
    # The tiny sweep runs c1 and c7 in every pass; only c1 fails.
    assert result["correct"] is False
    assert result["failed"] >= 1 and 2 * result["failed"] == result["attempted"]


def test_tampered_digest_counts_as_a_failure():
    result, stderr = run_with_pinned(lambda d: d.update({"asym --config c1": "0" * 64}))
    _assert_c1_failed_in_every_pass(result)
    assert "differs from the pinned digest" in stderr


def test_missing_digest_on_the_pinned_seed_counts_as_a_failure():
    result, stderr = run_with_pinned(lambda d: d.pop("asym --config c1"))
    _assert_c1_failed_in_every_pass(result)
    assert "no pinned digest" in stderr


def test_fails_without_a_result_outside_a_checkout():
    with benchmark_copy(with_sources=False) as bare:
        done = _run("--workload", "asym_sweep", cwd=bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
