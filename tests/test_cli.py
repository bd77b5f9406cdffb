"""Command-line interface: exit codes, report contents, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from curlasym import berger, cli
from curlasym.cli import entry
from curlasym.configs import UNIT_CONFIG_NAMES, unit_config


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

    def test_c11_report_bytes_pinned(self, tmp_path, capsys):
        """The report, to a file and to standard output, is the pinned text of
        json.dumps(payload, indent=2)."""
        argv = ["project", "--config", "c11", "--accuracy", "3"]
        out = tmp_path / "c11.json"
        assert run(argv, out) == 0
        text = out.read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c1ab9276717088a4bec2b5f0537e4ce377d2456706d1a6a96711e7eb6dc64f7b"
        )
        assert text == json.dumps(json.loads(text), indent=2)
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out == text + "\n"

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

    #: SHA-256 of the printed sweep, as the benchmark pins it.
    SWEEP_SHA256 = "7699dec2282873d56b1c28abc05ca19159cc95d9a7a1aa5926d034ffe28ea895"

    def test_sweep(self, capsys):
        assert run(["asym", "--sweep"]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == self.SWEEP_SHA256
        data = json.loads(text)
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

    def test_basset_at_y_1000(self, tmp_path):
        """Basset's integral runs to infinity: truncated at t = 2.5e4 it
        would miss by 3e-8 here, above the 1e-8 tolerance."""
        out = tmp_path / "k.json"
        assert run(["kernel", "--y", "1000"], out) == 0
        (check,) = json.loads(out.read_text())["checks"]
        assert check["residual"] <= 1e-12

    #: Exit code of ``kernel --y`` across its domain [0, 1e72] and past it.
    Y_CODES = {
        "0": 0, "5e-324": 0, "1e-320": 0, "1e-300": 0, "1e-6": 0, "0.1": 0,
        "30": 0, "100": 0, "700": 0, "746": 0, "1000": 0, "1e5": 0, "1e20": 0,
        "1e60": 0, "1e74": 2, "1e300": 2,
    }

    @pytest.mark.parametrize("y, code", Y_CODES.items())
    def test_exit_code_across_y(self, capsys, tmp_path, y, code):
        assert run(["kernel", "--y", y], tmp_path / "k.json") == code
        if code == 2:
            err = capsys.readouterr().err
            assert "not a finite float" in err
            assert len(err.strip().splitlines()) == 1

    #: The stated tolerance of each default check, as float.hex: 1e-8,
    #: |t^3 ln t| at t = 0.01, 1e-2 / (12 pi^2), 1e-10 * 4 pi / 3 and 1e-10.
    TOLERANCES = {
        "basset": "0x1.5798ee2308c3ap-27",
        "small_argument": "0x1.350c38ab65ff0p-18",
        "log_coefficient": "0x1.6224a912ebe67p-14",
        "second_moment_diag": "0x1.cc8ff6689d97cp-32",
        "sphere_average_sweep": "0x1.b7cdfd9d7bdbbp-34",
    }

    def test_default_tolerances_are_pinned(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kernel"], out) == 0
        checks = json.loads(out.read_text())["checks"]
        stated = [(c["name"], c["tolerance"]) for c in checks]
        names = ["basset"] * 5 + list(self.TOLERANCES)[1:]
        assert stated == [(n, float.fromhex(self.TOLERANCES[n])) for n in names]

    @staticmethod
    def patches(name, value):
        """cli functions replaced so that check ``name`` reports ``value``,
        with the reference of ``REFERENCES``."""
        diag = [[value, 0.0, 0.0], [0.0, value, 0.0], [0.0, 0.0, value]]
        return {
            "basset": {"basset_check": lambda y: (value, 0.0, None)},
            "small_argument": {
                "bessel_k1": lambda t: value,
                "k1_small_argument": lambda t: 0.0,
            },
            "log_coefficient": {"log_coefficient_check": lambda t: value},
            "second_moment_diag": {"second_moment": lambda r: diag},
            "sphere_average_sweep": {"sphere_average_check": lambda c: value},
        }[name]

    REFERENCES = {
        "basset": 0.0,
        "small_argument": 0.0,
        "log_coefficient": cli.LOG_COEFF_TARGET,
        "second_moment_diag": 4 * math.pi / 3,
        "sphere_average_sweep": 0.0,
    }

    @pytest.mark.parametrize("name", TOLERANCES)
    def test_residual_just_above_tolerance_fails(self, monkeypatch, tmp_path, name):
        """At its tolerance a check passes; one float further it fails, and
        the run exits 1 with every other check passing."""
        reference = self.REFERENCES[name]
        tol = float.fromhex(self.TOLERANCES[name])
        above = reference + tol
        while abs(above - reference) > tol:
            above = math.nextafter(above, -math.inf)
        while abs(above - reference) <= tol:
            above = math.nextafter(above, math.inf)
        at = math.nextafter(above, -math.inf)
        for value, code in ((at, 0), (above, 1)):
            with monkeypatch.context() as m:
                for attr, fake in self.patches(name, value).items():
                    m.setattr(cli, attr, fake)
                out = tmp_path / "k.json"
                assert run(["kernel"], out) == code
            checks = json.loads(out.read_text())["checks"]
            assert {c["name"] for c in checks if not c["pass"]} == (
                set() if code == 0 else {name}
            )


class TestVerdicts:
    """Each verdict that cli.py forms is seen to fail: one sub-check is made
    to fail through a patched name in the cli namespace, and the run exits 1
    with top-level "pass": false and that check alone failing."""

    @staticmethod
    def report(argv, capsys, code=1):
        capsys.readouterr()
        assert entry(argv) == code
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is (code == 0)
        return data

    @staticmethod
    def failing(data):
        return [c["name"] for c in data["checks"] if not c["pass"]]

    def test_sweep_fails_when_the_two_pipelines_disagree(self, monkeypatch, capsys):
        c11, true = unit_config("c11"), cli.aprin_alternative

        def off_on_c11(h):
            return true(h) + Fraction(1, 7) if h.mj.config == c11 else true(h)

        monkeypatch.setattr(cli, "aprin_alternative", off_on_c11)
        sweep = self.report(["asym", "--sweep"], capsys)["sweep"]
        assert [e["name"] for e in sweep if not e["pass"]] == ["c11"]
        assert all(e["report"]["pass"] for e in sweep)

    def test_project_fails_when_one_branch_fails(self, monkeypatch, capsys):
        true = cli.verify_projection

        def fail_plus(fam):
            report = true(fam)
            return {**report, "pass": False} if fam.aleph == "+" else report

        monkeypatch.setattr(cli, "verify_projection", fail_plus)
        data = self.report(["project", "--config", "c11", "--accuracy", "1"], capsys)
        assert [r["verification"]["pass"] for r in data["runs"]] == [False, True, True]

    @pytest.mark.parametrize("plus, minus", [(0.0, 1.0), (1.0, 0.0)])
    def test_weyl_fails_on_either_deviation(self, monkeypatch, capsys, plus, minus):
        monkeypatch.setattr(
            cli,
            "weyl_check",
            lambda p, lam: {"deviation_plus": plus, "deviation_minus": minus},
        )
        data = self.report(["berger", "weyl", "--lambda", "20"], capsys)
        assert min(plus, minus) <= data["margin"] < max(plus, minus)

    def test_eta_residual_at_tolerance_passes_and_above_fails(
        self, monkeypatch, capsys
    ):
        tol = cli.DEFAULTS["eta_identity_tol"]
        argv = ["berger", "eta", "--nmax", "60"]
        for lhs, code in ((tol, 0), (math.nextafter(tol, math.inf), 1)):
            monkeypatch.setattr(cli, "eta_identity", lambda p, s, n: (lhs, 0.0, 0.0))
            assert self.report(argv, capsys, code)["residual"] == lhs

    def test_negative_sphere_average_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "sphere_average_check", lambda c: -1.0)
        data = self.report(["kernel"], capsys)
        assert self.failing(data) == ["sphere_average_sweep"]

    def test_largest_diagonal_second_moment_is_checked(self, monkeypatch, capsys):
        t = 4 * math.pi / 3
        diag = [[t, 0.0, 0.0], [0.0, t, 0.0], [0.0, 0.0, t + 1]]
        monkeypatch.setattr(cli, "second_moment", lambda r: diag)
        data = self.report(["kernel"], capsys)
        assert self.failing(data) == ["second_moment_diag"]

    def test_trace_not_free_fails(self, monkeypatch, capsys):
        one = [[Fraction(1), 0, 0], [0, 0, 0], [0, 0, 0]]
        monkeypatch.setattr(cli, "singular_coefficient", lambda cfg: one)
        monkeypatch.setattr(cli, "sphere_average_check", lambda c: 0.0)
        data = self.report(["kernel"], capsys)
        assert self.failing(data) == ["trace_free"] * len(UNIT_CONFIG_NAMES)


@pytest.mark.parametrize(
    "argv",
    [
        ["asym", "--config", "c1"],
        ["kernel", "--y", "1"],
        ["berger", "spectrum", "--nmax", "5"],
    ],
)
def test_unwritable_output_is_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "report"
    assert run(argv, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {str(out)!r}: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["asym", "--config", ""],
        ["kernel", "--sphere", "--config", ""],
        ["project", "--config", ""],
    ],
)
def test_empty_config_is_usage_error(capsys, argv):
    """An empty --config names no file; it is not a missing --config."""
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot load config '': ")
    assert len(err.strip().splitlines()) == 1


def test_one_parser_serves_every_call(tmp_path, capsys):
    """build_parser runs once per process.  After a usage error and a call
    with --output, a report prints the bytes a fresh process prints."""
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        entry(["kernel", "--y", "1", "--sphere"])
    assert exc.value.code == 2
    out = tmp_path / "eta.json"
    assert run(["berger", "eta", "--nmax", "60"], out) == 1  # too few terms for 1e-6
    capsys.readouterr()
    printed = []
    for argv in (["berger", "eta", "--nmax", "60"], ["kernel"]):
        code = entry(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "curlasym.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert code == fresh.returncode
        printed.append(capsys.readouterr().out)
        assert printed[-1] == fresh.stdout
    assert printed[0] == out.read_text() + "\n"


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


def test_exact_commands_start_without_numpy():
    code = (
        "import contextlib, io, sys\n"
        "import curlasym.cli as cli\n"
        "assert 'curlasym.berger' in sys.modules\n"
        "assert 'curlasym.kernel' in sys.modules\n"
        "loaded = {'numpy', 'scipy'} & set(sys.modules)\n"
        "assert not loaded, f'import curlasym.cli loaded {loaded}'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.entry(['asym', '--config', 'c1']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("kernel", {"configs", "exactpoly", "polymat", "kernel"}),
        ("configs", {"configs", "exactpoly"}),
    ],
)
def test_layer_imports(module, allowed):
    """The curvature input lives in configs, which needs only exactpoly, so
    the kernel checks start without the exact construction (calculus,
    geometry, projections, altderiv)."""
    code = (
        "import sys\n"
        f"import curlasym.{module}\n"
        "print(' '.join(sorted(m.split('.')[1] for m in sys.modules\n"
        "                      if m.startswith('curlasym.'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert loaded <= allowed, f"import curlasym.{module} loaded {loaded - allowed}"


def test_kernel_runs_without_scipy():
    """scipy is test-only: the default kernel checks pass with it blocked."""
    code = (
        "import contextlib, io, sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "from curlasym.cli import entry\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert entry(['kernel']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
