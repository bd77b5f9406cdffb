"""Command-line interface: exit codes, report contents, determinism."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from curlasym import berger, cli
from curlasym.cli import entry


def run(args, output=None):
    argv = list(args)
    if output is not None:
        argv += ["--output", str(output)]
    return entry(argv)


class TestProject:
    def test_flat_passes(self, tmp_path):
        out = tmp_path / "flat.json"
        assert run(["project", "--config", "flat", "--accuracy", "2"], out) == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert len(payload["runs"]) == 3

    def test_c11_audit_contains_final_step(self, tmp_path):
        out = tmp_path / "c11.json"
        code = run(
            ["project", "--config", "c11", "--accuracy", "3", "--aleph", "+"],
            out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        steps = payload["runs"][0]["family"]["steps"]
        assert len(steps) == 3
        x3 = steps[2]["X"]
        # Principal value -1/4 in the top-left entry, zero elsewhere on the
        # diagonal, at the anchor.
        assert x3[0][0]["terms"][0]["re"] == "-1/4"
        assert x3[1][1]["terms"] == []

    def test_bad_accuracy_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "curlasym.cli", "project", "--accuracy", "7"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_bad_branch_label(self, tmp_path):
        assert run(["project", "--aleph", "q"], tmp_path / "x.json") == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["project", "--config", "nope.json"], tmp_path / "x.json") == 2


class TestAsym:
    def test_c11(self, tmp_path):
        out = tmp_path / "a.json"
        assert run(["asym", "--config", "c11"], out) == 0
        data = json.loads(out.read_text())
        assert data["a_prin"] == "-1/2"
        assert data["pass"] is True

    def test_flat(self, tmp_path):
        out = tmp_path / "a.json"
        assert run(["asym", "--config", "flat"], out) == 0
        assert json.loads(out.read_text())["a_prin"] == "0"

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["asym", "--sweep"], out) == 0
        data = json.loads(out.read_text())
        assert data["pass"] is True
        assert len(data["sweep"]) == 24
        by_name = {e["name"]: e for e in data["sweep"]}
        assert by_name["c11"]["report"]["a_prin"] == "-1/2"
        assert by_name["c11"]["alt_a_prin"] == "-1/2"

    def test_config_file_roundtrip(self, tmp_path):
        from curlasym.configs import unit_config

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(unit_config("c11").dumps())
        out = tmp_path / "a.json"
        assert run(["asym", "--config", str(cfg_path)], out) == 0
        assert json.loads(out.read_text())["a_prin"] == "-1/2"


class TestBerger:
    def test_spectrum_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["berger", "spectrum", "--a", "1", "--nmax", "5"], out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "series,n,l,value,multiplicity"
        assert len(lines) > 5

    def test_eta_identity(self, tmp_path):
        out = tmp_path / "eta.json"
        code = run(
            ["berger", "eta", "--a", "2", "--s", "6", "--nmax", "600"], out
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["pass"] is True
        assert data["residual"] <= 1e-6
        assert data["closed_forms"]["eta0"] == "6"

    def test_weyl(self, tmp_path):
        out = tmp_path / "weyl.json"
        assert run(["berger", "weyl", "--a", "1", "--lambda", "100"], out) == 0
        data = json.loads(out.read_text())
        assert data["pass"] is True

    def test_bad_parameter(self):
        assert run(["berger", "eta", "--a", "-1", "--nmax", "100"]) == 2

    @pytest.mark.parametrize("command", ["spectrum", "eta"])
    def test_nmax_above_cap_is_usage_error(self, capsys, monkeypatch, command):
        def no_block(*_args):
            raise AssertionError("a spectrum block was built")

        monkeypatch.setattr(berger, "_curl_block", no_block)
        monkeypatch.setattr(berger, "_laplacian_block", no_block)
        assert run(["berger", command, "--nmax", str(berger.MAX_NMAX + 1)]) == 2
        err = capsys.readouterr().err
        assert "n_max" in err
        assert len(err.strip().splitlines()) == 1

    def test_spectrum_csv_golden(self, tmp_path):
        out = tmp_path / "spec.csv"
        args = ["berger", "spectrum", "--a", "3/2", "--nmax", "40"]
        assert run(args, out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e59fdbc04e962f3bee0b0e2572ab5e2f7573abf05e4cf411c4576fd203211ebb"
        )

    @pytest.mark.parametrize(
        "args, word",
        [
            (["weyl", "--lambda", "0"], "lambda"),
            (["weyl", "--lambda", "-5"], "lambda"),
            (["weyl", "--lambda", "nan"], "lambda"),
            (["eta", "--s", "nan", "--nmax", "10"], "s must be finite"),
            (["eta", "--s", "inf", "--nmax", "10"], "s must be finite"),
            (["eta", "--a", "1/0", "--nmax", "10"], "parameter a"),
            (["eta", "--a", "nan", "--nmax", "10"], "parameter a"),
            (["eta", "--a", "inf", "--nmax", "10"], "parameter a"),
            (["eta", "--a", "1e200", "--nmax", "10"], "parameter a"),
            (["eta", "--a", "1e-200", "--nmax", "10"], "parameter a"),
            (["weyl", "--lambda", "1e-300"], "lambda"),
        ],
    )
    def test_invalid_input_is_usage_error(self, capsys, args, word):
        assert run(["berger", *args]) == 2
        err = capsys.readouterr().err
        assert word in err
        assert len(err.strip().splitlines()) == 1


class TestConfigFile:
    ZERO3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

    def write(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"ric": 5, "dric": 5}',
            '[1, 2]',
            '{"ric": ["100", "010", "001"], "dric": 0}',
            '{"ric": [[null, 0, 0], [0, 0, 0], [0, 0, 0]], "dric": 0}',
        ],
    )
    def test_bad_shape_or_type_is_usage_error(self, capsys, tmp_path, text):
        assert run(["asym", "--config", self.write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "cannot load config" in err
        assert len(err.strip().splitlines()) == 1

    def test_decimals_are_read_exactly(self, tmp_path):
        dric = json.dumps([self.ZERO3] * 3)
        text = '{"ric": [[0.1, 0, 0], [0, 0, 0], [0, 0, 0]], "dric": ' + dric + "}"
        out = tmp_path / "p.json"
        args = ["project", "--config", self.write(tmp_path, text), "--aleph", "+"]
        assert run([*args, "--accuracy", "1"], out) == 0
        assert json.loads(out.read_text())["config"]["ric"][0][0] == "1/10"


class TestKernel:
    @pytest.mark.parametrize("y", ["nan", "inf"])
    def test_non_finite_y_is_usage_error(self, capsys, y):
        assert run(["kernel", "--y", y]) == 2
        err = capsys.readouterr().err
        assert "y must be finite" in err
        assert len(err.strip().splitlines()) == 1

    def test_default_suite(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kernel"], out) == 0
        data = json.loads(out.read_text())
        assert data["pass"] is True
        assert any(c["name"] == "log_coefficient" for c in data["checks"])

    def test_single_basset(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kernel", "--y", "1.0"], out) == 0
        data = json.loads(out.read_text())
        assert len(data["checks"]) == 1
        assert data["checks"][0]["residual"] <= 1e-8

    def test_sphere_average(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kernel", "--config", "c11", "--sphere"], out) == 0
        assert json.loads(out.read_text())["pass"] is True


class TestUsageErrorBeforeWork:
    """Options that cannot go together are refused before any computation."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("work started before the usage check")

        for name in ("asymmetry_report", "run_algorithm", "basset_check"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["asym", "--sweep", "--config", "c1"], "--config"),
            (["kernel", "--y", "1", "--sphere", "--config", "c11"], "--y"),
            (["kernel", "--config", "c11"], "--sphere"),
            (["project", "--aleph", "+,x"], "'x'"),
        ],
    )
    def test_rejected(self, capsys, argv, word):
        try:
            code = entry(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert word in err
        assert len(err.strip().splitlines()) == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["asym", "--config", "c11"],
            ["project", "--config", "c1", "--accuracy", "2"],
            ["berger", "eta", "--a", "2", "--s", "6", "--nmax", "400"],
            ["kernel", "--y", "0.5"],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(args, out1) == 0
        assert run(args, out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
