"""Extreme CLI inputs: every one maps to exit 0, 1 or 2, never a traceback.

Inputs that used to hang run in a subprocess with a timeout, so a hang fails
the test instead of stalling the suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curlasym import cli
from curlasym.cli import entry
from curlasym.exactpoly import parse_rational


def run_cli(args, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "curlasym.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def assert_one_line_usage_error(code, err, word):
    assert code == 2
    assert word in err
    assert len(err.strip().splitlines()) == 1


class TestNoHang:
    @pytest.mark.parametrize(
        "args, word",
        # Explicit ids keep the names these cases had while the list also
        # held the two tiny y now in test_tiny_y_answers_in_time.
        [
            # Above kernel.BASSET_Y_MAX = 1e72 Basset's check is refused.
            pytest.param(
                ["kernel", "--y", "1e300"],
                "not a finite float",
                id="args2-not a finite float",
            ),
            # weyl sizes its spectrum as n_max ~ a * lambda, at O(n_max^2) work.
            pytest.param(
                ["berger", "weyl", "--a", "1e6", "--lambda", "1"],
                "n_max",
                id="args3-n_max",
            ),
        ],
    )
    def test_usage_error_in_time(self, args, word):
        proc = run_cli(args)
        assert_one_line_usage_error(proc.returncode, proc.stderr, word)

    @pytest.mark.parametrize("y", ["1e-320", "5e-309"])
    def test_tiny_y_answers_in_time(self, y):
        """Inside Basset's domain: the reference is 2 there, and K_1's series,
        whose stopping test once hung where both its sides underflow to 0,
        is not called."""
        proc = run_cli(["kernel", "--y", y])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True

    def test_bessel_k1_finite_or_value_error(self):
        code = (
            "import math\n"
            "from curlasym.kernel import bessel_k1\n"
            "for t in (1e-305, 1e-306, 6e-309):\n"
            "    assert math.isfinite(bessel_k1(t)), t\n"
            "for t in (5e-309, 1e-320, 5e-324, math.inf, math.nan):\n"
            "    try:\n"
            "        bessel_k1(t)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise AssertionError(t)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr


class TestBergerOverflow:
    @pytest.mark.parametrize(
        "args",
        [
            ["--a", "1e150", "--nmax", "50"],
            ["--a", "1e-150", "--nmax", "50"],
            ["--s", "1e308", "--nmax", "50"],
        ],
    )
    def test_overflow_is_usage_error(self, capsys, args):
        code = entry(["berger", "eta", *args])
        err = capsys.readouterr().err
        assert_one_line_usage_error(code, err, "not a finite float")


@pytest.mark.parametrize("command", ["spectrum", "eta", "weyl"])
@pytest.mark.parametrize("text", ["abc", "1/x", ""])
def test_non_numeric_a_names_the_parameter(capsys, command, text):
    # float() raised "could not convert string to float: 'abc'", which named
    # neither the option nor the value.
    code = entry(["berger", command, f"--a={text}"])
    err = capsys.readouterr().err
    assert_one_line_usage_error(code, err, f"parameter a {text!r} is not a number")


class TestBoundedExponent:
    BIG = "1e10000000"  # Fraction would build a 10**7-digit integer

    def peak_of(self, fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def config_file(self, tmp_path, entry_text):
        zero = [[0, 0, 0]] * 3
        text = json.dumps({"ric": zero, "dric": [zero] * 3})
        text = text.replace("0", entry_text, 1)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        return str(path)

    def test_parser(self):
        assert parse_rational("1.5e3") == 1500
        assert parse_rational("-2/4") == parse_rational("-0.5")
        assert parse_rational("1e4300") == 10**4300
        for text in (self.BIG, "1e-4301", "2.5E+99999"):
            with pytest.raises(ValueError, match="exponent"):
                parse_rational(text)

    @pytest.mark.parametrize(
        "make_args",
        [
            lambda self, tmp: ["berger", "eta", "--a", self.BIG, "--nmax", "10"],
            lambda self, tmp: ["asym", "--config", self.config_file(tmp, self.BIG)],
            lambda self, tmp: [
                "asym", "--config", self.config_file(tmp, f'"{self.BIG}"')
            ],
        ],
        ids=["berger-a", "config-number", "config-string"],
    )
    def test_usage_error_in_bounded_memory(self, capsys, tmp_path, make_args):
        args = make_args(self, tmp_path)
        code, peak = self.peak_of(lambda: entry(args))
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert peak < 1_000_000


@pytest.mark.parametrize(
    "command", [["asym"], ["project"], ["kernel", "--sphere"]], ids=" ".join
)
def test_deeply_nested_config_is_usage_error(capsys, tmp_path, command):
    # json.loads raised RecursionError, which escaped as a traceback.
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    code = entry([*command, "--config", str(path)])
    assert_one_line_usage_error(code, capsys.readouterr().err, "nests too deeply")


class TestUnusableConfigNumber:
    """Config entries that parse exactly but that a command cannot use."""

    ZERO = [[0, 0, 0]] * 3

    def config_file(self, tmp_path, ric, dric0, literal):
        """A config file with each "X" entry of ric and dric0 written as literal."""
        text = json.dumps({"ric": ric, "dric": [dric0, self.ZERO, self.ZERO]})
        path = tmp_path / "cfg.json"
        path.write_text(text.replace('"X"', literal))
        return str(path)

    @pytest.mark.parametrize("big", ["1e400", '"1e400"'], ids=["number", "string"])
    def test_kernel_coefficient_overflow(self, capsys, tmp_path, big):
        # c[2][0] = dric[0][1][0] / 12 is above the float range.
        dric0 = [[0, "X", 0], ["X", 0, 0], [0, 0, 0]]
        path = self.config_file(tmp_path, self.ZERO, dric0, big)
        code = entry(["kernel", "--sphere", "--config", path])
        assert_one_line_usage_error(code, capsys.readouterr().err, "overflows")

    @pytest.mark.parametrize(
        "command", [["asym"], ["project"], ["kernel", "--sphere"]], ids=" ".join
    )
    def test_zero_denominator(self, capsys, tmp_path, command):
        ric = [["X", 0, 0], [0, 0, 0], [0, 0, 0]]
        path = self.config_file(tmp_path, ric, self.ZERO, '"1/0"')
        code = entry([*command, "--config", path])
        err = capsys.readouterr().err
        assert_one_line_usage_error(code, err, "entry '1/0' divides by zero")


@pytest.mark.parametrize("aleph", ["+,+", "0,-,0", "+,0,-,-"])
def test_duplicate_branch_label_is_usage_error(capsys, monkeypatch, aleph):
    # "+,+" built, verified and printed the "+" family twice and exited 0.
    def refuse(*_args):
        raise AssertionError("work started before the label check")

    for name in ("build_metric_jet", "run_algorithm"):
        monkeypatch.setattr(cli, name, refuse)
    code = entry(["project", "--config", "c11", "--aleph", aleph])
    assert_one_line_usage_error(code, capsys.readouterr().err, "given twice")


EXTREME = ["0", "-1", "1e-320", "5e-324", "1e-150", "1e150", "1e300", "1e308",
           "nan", "inf", "-inf", "1e10000000", "1/0", "3/2"]


def numbers(lo, hi):
    return st.one_of(
        st.sampled_from(EXTREME), st.floats(lo, hi, allow_nan=False).map(repr)
    )


# Option values go in "--opt=value" form, so that argparse does not read a
# value such as "-inf" as an option.
COMMANDS = st.one_of(
    st.builds(
        lambda cfg, acc, aleph: ["project", f"--config={cfg}", f"--accuracy={acc}",
                                 f"--aleph={aleph}"],
        st.sampled_from(["flat", "c3", "c11", "nope.json"]),
        st.sampled_from(["1", "2", "3"]),
        st.sampled_from(["+", "0", "-", "+,-", "q"]),
    ),
    st.builds(
        lambda cfg: ["asym", f"--config={cfg}"],
        st.sampled_from(["flat", "c7", "c14", "nope.json"]),
    ),
    st.builds(
        lambda a, n: ["berger", "spectrum", f"--a={a}", f"--nmax={n}"],
        numbers(0.1, 10), st.integers(0, 50),
    ),
    st.builds(
        lambda a, s, n: ["berger", "eta", f"--a={a}", f"--s={s}", f"--nmax={n}"],
        numbers(0.1, 10), numbers(-10, 50), st.integers(0, 50),
    ),
    st.builds(
        lambda a, lam: ["berger", "weyl", f"--a={a}", f"--lambda={lam}"],
        numbers(0.1, 10), numbers(-50, 50),
    ),
    st.builds(lambda y: ["kernel", f"--y={y}"], numbers(0, 100)),
    st.just(["kernel", "--sphere", "--config=c9"]),
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=COMMANDS)
def test_fuzz_exit_codes(capsys, tmp_path, argv):
    try:
        code = entry([*argv, f"--output={tmp_path / 'out'}"])
    except SystemExit as exc:  # argparse rejects a value of the wrong type
        code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


class TestEtaRounding:
    @pytest.mark.parametrize("s", ["300", "40"])
    def test_cancelling_identity_is_usage_error(self, capsys, s):
        # At a = 2 both sides sum terms up to 4 a^s zeta(s - 1) that cancel to
        # about 2: float rounding (1e75 at s = 300, 2e-3 at s = 40) is far
        # above the 1e-6 tolerance, so no residual can check the identity.
        code = entry(["berger", "eta", "--s", s, "--nmax", "50"])
        err = capsys.readouterr().err
        assert_one_line_usage_error(code, err, "rounding")

    def test_resolvable_s_is_still_checked(self, capsys):
        assert entry(["berger", "eta", "--s", "20", "--nmax", "50"]) == 0


def test_closed_stdout_is_exit_2_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "curlasym.cli", "berger", "spectrum", "--nmax", "400"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.read(10) == "series,n,l"
    proc.stdout.close()  # the reader quits, as `| head -c 10` does
    _, err = proc.communicate(timeout=60)
    assert_one_line_usage_error(proc.returncode, err, "standard output")
