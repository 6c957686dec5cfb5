import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcor_rt

from conftest import ANSATZ_1P, ANSATZ_2P, BELL, decode_real_array


# the source tree of the imported package, so the CLI subprocess runs the
# same code as the tests whether or not some qcor_rt is installed
SRC_DIR = str(Path(qcor_rt.__file__).resolve().parents[1])


def run_cli(*argv, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qcor_rt.cli", *argv],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture
def ansatz_file(tmp_path):
    path = tmp_path / "ansatz.qk"
    path.write_text(ANSATZ_1P)
    return str(path)


@pytest.fixture
def entangler_file(tmp_path):
    path = tmp_path / "entangler.qk"
    path.write_text(ANSATZ_2P)
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qk"
    path.write_text(BELL)
    return str(path)


class TestVqe:
    def test_single_term_exact(self, ansatz_file):
        proc = run_cli("vqe", "--kernel", ansatz_file,
                       "--observable", "X0 X1", "--exact")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["metadata"]["opt-value"] - (-1.0)) < 1e-4
        assert "opt-value" in proc.stderr

    def test_two_term_exact(self, entangler_file):
        proc = run_cli("vqe", "--kernel", entangler_file,
                       "--observable", "X0 X1 + Z0 Z1", "--exact",
                       "--initial-point", "0.5", "0.5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["metadata"]["opt-value"] - (-2.0)) < 1e-3

    def test_missing_kernel_file(self, tmp_path):
        missing = str(tmp_path / "nope.qk")
        proc = run_cli("vqe", "--kernel", missing, "--observable", "X0 X1")
        assert proc.returncode == 2
        assert missing in proc.stderr

    def test_output_file(self, ansatz_file, tmp_path):
        out = tmp_path / "result.json"
        proc = run_cli("vqe", "--kernel", ansatz_file, "--observable", "X0 X1",
                       "--exact", "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert "opt-value" in json.loads(out.read_text())["metadata"]


class TestExactDistributionJson:
    """Exact grandchildren publish `distribution` as base64 of little-endian
    float64, and seeded exact output stays byte-reproducible."""

    @staticmethod
    def _check_distributions(payload):
        grandchildren = [g for c in payload["children"] for g in c["children"]]
        assert grandchildren
        for g in grandchildren:
            md = g["metadata"]
            assert isinstance(md["distribution"], str)
            vec = decode_real_array(md["distribution"])
            k = len(qcor_rt.parse_pauli(md["term"]).terms[0].string.qubits)
            assert vec.shape == (2**k,)
            assert abs(vec.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("extra", [
        ("vqe", "--observable", "X0 X1 + Z0 Z1 + 0.5 Y1", "--exact",
         "--initial-point", "0.5", "0.5", "--opt-maxeval", "40"),
        ("evaluate", "--observable", "X0 X1 + Z0 Z1 + 0.5 Y1 + Z1", "--params", "0.3", "0.2",
         "--exact", "--noise-p10", "0.1", "--mitigate"),
    ], ids=["vqe", "evaluate-mitigated"])
    def test_seeded_output_is_byte_identical_and_decodes(self, entangler_file, extra):
        argv = (extra[0], "--kernel", entangler_file, *extra[1:], "--seed", "4")
        a, b = run_cli(*argv), run_cli(*argv)
        assert a.returncode == b.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        self._check_distributions(json.loads(a.stdout))


class TestEvaluate:
    def test_zero_params(self, ansatz_file):
        proc = run_cli("evaluate", "--kernel", ansatz_file,
                       "--observable", "X0 X1", "--params", "0.0", "--exact")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["metadata"]["value"] == pytest.approx(0.0, abs=1e-12)

    def test_sweep_record_count(self, ansatz_file):
        proc = run_cli("evaluate", "--kernel", ansatz_file,
                       "--observable", "X0 X1",
                       "--sweep=-3.14:3.14:64", "--exact")
        assert proc.returncode == 0
        records = json.loads(proc.stdout)
        assert len(records) == 64
        assert records[0]["params"] == [-3.14]
        assert min(r["value"] for r in records) < -0.99

    def test_arity_mismatch(self, ansatz_file):
        proc = run_cli("evaluate", "--kernel", ansatz_file,
                       "--observable", "X0 X1", "--params", "0.1", "0.2")
        assert proc.returncode == 2

    def test_mitigated_noisy_value(self, ansatz_file):
        proc = run_cli("evaluate", "--kernel", ansatz_file,
                       "--observable", "Z0 Z1", "--params", "0.0",
                       "--exact", "--noise-p10", "0.1", "--mitigate")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        child = payload["children"][0]["metadata"]
        assert child["mitigated-value"] == pytest.approx(-1.0, abs=1e-10)
        assert abs(child["raw-value"] - (-1.0)) > 0.05
        assert "readout-calibration" in payload["metadata"]

    def test_kernel_wider_than_simulator_is_usage_error(self, tmp_path):
        path = tmp_path / "wide.qk"
        path.write_text("kernel wide() qubits 30 { H q29; }")
        proc = run_cli("evaluate", "--kernel", str(path), "--observable", "Z29",
                       "--exact", "--noise-p10", "0.1", "--mitigate")
        assert proc.returncode == 2
        assert "capped at 24 qubits" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


class TestTransform:
    def test_number_operator(self):
        proc = run_cli("transform", "0^ 0")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "(0.5,0) I + (-0.5,0) Z0"

    def test_number_number_interaction(self):
        proc = run_cli("transform", "0^ 1^ 1 0")
        assert proc.returncode == 0
        assert proc.stdout.strip() == (
            "(0.25,0) I + (-0.25,0) Z0 + (0.25,0) Z0 Z1 + (-0.25,0) Z1")

    def test_empty_string(self):
        proc = run_cli("transform", "")
        assert proc.returncode == 2


class TestSimulate:
    def test_bell_outcomes(self, bell_file):
        proc = run_cli("simulate", "--kernel", bell_file,
                       "--shots", "2000", "--seed", "5")
        assert proc.returncode == 0
        counts = json.loads(proc.stdout)["counts"]
        assert set(counts) == {"00", "11"}
        assert sum(counts.values()) == 2000

    def test_bind_required(self, tmp_path):
        path = tmp_path / "p.qk"
        path.write_text("kernel p(t) qubits 1 { Ry(t) q0; Measure q0; }")
        proc = run_cli("simulate", "--kernel", str(path))
        assert proc.returncode == 2
        proc = run_cli("simulate", "--kernel", str(path), "--bind", "3.14159")
        assert proc.returncode == 0

    def test_unmeasured_kernel(self, tmp_path):
        path = tmp_path / "u.qk"
        path.write_text("kernel u() qubits 1 { X q0; }")
        proc = run_cli("simulate", "--kernel", str(path))
        assert proc.returncode == 2

    def test_seed_makes_output_byte_identical(self, bell_file):
        a = run_cli("simulate", "--kernel", bell_file, "--seed", "42",
                    "--noise-p01", "0.02")
        b = run_cli("simulate", "--kernel", bell_file, "--seed", "42",
                    "--noise-p01", "0.02")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_env_seed_fallback(self, bell_file, monkeypatch):
        import os
        env = dict(os.environ, QCOR_RT_SEED="42")
        with_env = run_cli("simulate", "--kernel", bell_file, env=env)
        with_flag = run_cli("simulate", "--kernel", bell_file, "--seed", "42")
        assert with_env.stdout == with_flag.stdout


class TestUsage:
    def test_no_command(self):
        assert run_cli().returncode == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2

    def test_invalid_noise_probability(self, bell_file):
        proc = run_cli("simulate", "--kernel", bell_file, "--noise-p01", "1.5")
        assert proc.returncode == 2


class TestSweepIndependence:
    def test_repeated_point_gets_independent_draws(self, ansatz_file):
        proc = run_cli("evaluate", "--kernel", ansatz_file, "--observable", "X0 X1",
                       "--sweep=1:1:3", "--shots", "200", "--seed", "0")
        assert proc.returncode == 0
        values = [r["value"] for r in json.loads(proc.stdout)]
        assert len(set(values)) > 1

    def test_seeded_sweep_is_byte_reproducible(self, ansatz_file):
        argv = ("evaluate", "--kernel", ansatz_file, "--observable", "X0 X1",
                "--sweep=0:1:3", "--shots", "200", "--seed", "9",
                "--noise-p10", "0.1", "--mitigate")
        a, b = run_cli(*argv), run_cli(*argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_mitigated_sweep_calibrates_once(self, ansatz_file, monkeypatch, capsys):
        from qcor_rt import cli, mitigation
        calls = []

        def counting(num_qubits, config, _real=mitigation.calibrate):
            calls.append(config.seed)
            return _real(num_qubits, config)

        monkeypatch.setattr(cli, "calibrate", counting)
        monkeypatch.setattr(mitigation, "calibrate", counting)
        code = cli.main(["evaluate", "--kernel", ansatz_file, "--observable", "Z0 Z1",
                         "--sweep=0:1:4", "--shots", "200", "--noise-p10", "0.1",
                         "--mitigate"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)) == 4
        assert calls == [0]


class TestUsageErrorsExitTwo:
    """Invalid inputs are rejected before any task runs: exit 2, one
    `error:` line and no traceback."""

    def _check(self, proc):
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", [("vqe",), ("evaluate", "--params", "0.2")])
    def test_failing_self_calibration(self, ansatz_file, monkeypatch, capsys, command):
        """The objective calibrates at construction, so a failed calibration
        is an input error, raised before any task starts."""
        from qcor_rt import cli, mitigation

        def failing(num_qubits, config):
            raise qcor_rt.ValidationError("calibration estimate is singular")

        def no_task(spec):
            raise AssertionError("a task started")

        monkeypatch.setattr(mitigation, "calibrate", failing)
        monkeypatch.setattr(cli, "task_initiate", no_task)
        code = cli.main([*command, "--kernel", ansatz_file, "--observable", "Z0 Z1",
                         "--shots", "200", "--noise-p10", "0.1", "--mitigate"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: calibration estimate is singular" in err
        assert "Traceback" not in err

    def test_negative_seed(self, bell_file):
        self._check(run_cli("simulate", "--kernel", bell_file, "--seed", "-1"))

    def test_negative_seed_evaluate(self, ansatz_file):
        self._check(run_cli("evaluate", "--kernel", ansatz_file, "--observable", "Z0",
                            "--params", "0.1", "--seed", "-1"))

    def test_negative_env_seed(self, bell_file):
        import os
        env = dict(os.environ, QCOR_RT_SEED="-5")
        self._check(run_cli("simulate", "--kernel", bell_file, env=env))

    def test_overflowing_shots(self, bell_file):
        self._check(run_cli("simulate", "--kernel", bell_file,
                            "--shots", str(10**19)))

    def test_nan_params(self, ansatz_file):
        self._check(run_cli("evaluate", "--kernel", ansatz_file, "--observable", "Z0",
                            "--params", "nan"))

    def test_too_few_calibration_shots(self, ansatz_file):
        self._check(run_cli("evaluate", "--kernel", ansatz_file, "--observable", "Z0",
                            "--params", "0.1", "--mitigate", "--shots", "50"))

    def test_too_few_calibration_shots_sweep(self, ansatz_file):
        self._check(run_cli("evaluate", "--kernel", ansatz_file, "--observable", "Z0",
                            "--sweep=0:1:2", "--mitigate", "--shots", "50"))

    def test_measured_kernel(self, bell_file):
        self._check(run_cli("evaluate", "--kernel", bell_file, "--observable", "Z0",
                            "--exact"))

    def test_kernel_narrower_than_observable(self, ansatz_file):
        self._check(run_cli("evaluate", "--kernel", ansatz_file, "--observable", "Z3",
                            "--exact", "--params", "0.1"))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_initial_point(self, ansatz_file, bad):
        self._check(run_cli("vqe", "--kernel", ansatz_file, "--observable", "Z0",
                            "--initial-point", bad))

    def test_kernel_integer_beyond_int_digit_limit(self, tmp_path):
        path = tmp_path / "huge.qk"
        path.write_text("kernel k() qubits " + "1" * 5000 + " { X q0; Measure q0; }")
        self._check(run_cli("simulate", "--kernel", str(path)))

    def test_singular_exact_mitigation(self, ansatz_file):
        self._check(run_cli("evaluate", "--kernel", ansatz_file, "--observable", "Z0",
                            "--exact", "--noise-p01", "0.5", "--noise-p10", "0.5",
                            "--mitigate", "--params", "0.1"))
