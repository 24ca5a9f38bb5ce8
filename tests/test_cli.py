import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from waveparticle import cli, io
from waveparticle.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, **payload):
    path = tmp_path / name
    path.write_text(io.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def balanced_state(tmp_path):
    s = 1 / np.sqrt(2)
    return write_state(tmp_path, "p.json", dims=[2],
                       amplitudes=[[s, 0.0], [0.0, s]])


@pytest.fixture
def mixed_state(tmp_path):
    return write_state(tmp_path, "mixed.json", dims=[2],
                       matrix=[[[0.5, 0.0], [0.0, 0.0]],
                               [[0.0, 0.0], [0.5, 0.0]]])


class TestMeasures:
    def test_balanced_state(self, capsys, balanced_state):
        code, out, _ = run_cli(capsys, "measures", balanced_state)
        assert code == 0
        payload = json.loads(out)
        assert payload["wavelike"] == pytest.approx(np.log(2), abs=1e-12)
        assert payload["particlelike"] == pytest.approx(0.0, abs=1e-12)
        assert payload["complementarity_residual"] < 1e-12
        assert payload["q"] == 1.0

    def test_maximally_mixed(self, capsys, mixed_state):
        code, out, _ = run_cli(capsys, "measures", mixed_state)
        assert code == 0
        payload = json.loads(out)
        assert payload["wavelike"] == 0.0
        assert payload["particlelike"] == pytest.approx(np.log(2), abs=1e-12)

    def test_q2(self, capsys, mixed_state):
        code, out, _ = run_cli(capsys, "measures", mixed_state, "--q", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["entropy"] == pytest.approx(0.5, abs=1e-12)
        assert payload["particlelike"] == pytest.approx(0.5, abs=1e-12)

    def test_two_qubit_extras(self, capsys, tmp_path):
        s = 1 / np.sqrt(2)
        bell = write_state(tmp_path, "bell.json", dims=[2, 2],
                           amplitudes=[[s, 0.0], [0.0, 0.0], [0.0, 0.0], [s, 0.0]])
        code, out, _ = run_cli(capsys, "measures", bell)
        payload = json.loads(out)
        assert code == 0
        assert payload["chsh_max"] == pytest.approx(2 * np.sqrt(2), abs=1e-10)
        assert payload["nonlocality"] == pytest.approx(1.0, abs=1e-10)
        assert payload["concurrence"] == pytest.approx(1.0, abs=1e-10)

    def test_dim4_without_split_has_no_extras(self, capsys, tmp_path):
        s = 0.5
        flat = write_state(tmp_path, "flat.json", dims=[4],
                           amplitudes=[[s, 0.0]] * 4)
        code, out, _ = run_cli(capsys, "measures", flat)
        payload = json.loads(out)
        assert code == 0
        assert "chsh_max" not in payload

    def test_custom_basis(self, capsys, tmp_path):
        state = write_state(tmp_path, "zero.json", dims=[2],
                            amplitudes=[[1.0, 0.0], [0.0, 0.0]])
        s = 1 / np.sqrt(2)
        basis = tmp_path / "xbasis.json"
        basis.write_text(json.dumps({
            "dim": 2,
            "basis": [[[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]],
        }), encoding="utf-8")
        code, out, _ = run_cli(capsys, "measures", state, "--basis", str(basis))
        payload = json.loads(out)
        assert code == 0
        assert payload["wavelike"] == pytest.approx(np.log(2), abs=1e-12)

    def test_basis_dimension_mismatch(self, capsys, balanced_state, tmp_path):
        basis = tmp_path / "b3.json"
        basis.write_text('{"dim": 3}', encoding="utf-8")
        code, _, err = run_cli(capsys, "measures", balanced_state,
                               "--basis", str(basis))
        assert code == 2
        assert "dimension" in err

    def test_malformed_file_names_field(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2], "amplitudes": [[0.9, 0.0], [0.0, 0.0]]}',
                       encoding="utf-8")
        code, _, err = run_cli(capsys, "measures", str(bad))
        assert code == 2
        assert "amplitudes" in err

    def test_non_finite_matrix_entry_rejected(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"dims": [2], "matrix": [[[NaN, 0.0], [0.0, 0.0]],'
                       ' [[0.0, 0.0], [0.5, 0.0]]]}', encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "measures", str(bad))
        assert (code, out) == (2, "")
        assert "non-finite" in err

    def test_non_finite_order_rejected(self, capsys, balanced_state):
        code, out, err = run_cli(capsys, "measures", balanced_state, "--q", "inf")
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "measures", "/no/such/file.json")
        assert code == 2
        assert err.startswith("error:")

    def test_byte_deterministic(self, capsys, balanced_state):
        _, first, _ = run_cli(capsys, "measures", balanced_state)
        _, second, _ = run_cli(capsys, "measures", balanced_state)
        assert first == second


class TestExperiment:
    def test_dce_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "dce",
                               "--bs2-alpha", "0.7853981634", "--phi", "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["scalars"]["particlelike_q2"] == pytest.approx(0.375, abs=1e-8)
        assert payload["scalars"]["entanglement_linear"] == pytest.approx(0.25, abs=1e-8)

    def test_wave_detector_rounded_example_amplitudes(self, capsys):
        # 8-digit 1/sqrt(2) inputs are renormalized, not rejected
        code, out, _ = run_cli(capsys, "experiment", "wave-detector", "--x", "1",
                               "--amp-alpha-re", "0.70710678",
                               "--amp-beta-re", "0.70710678")
        payload = json.loads(out)
        assert code == 0
        assert payload["scalars"]["nonlocality_click_0"] == pytest.approx(1.0, abs=1e-12)
        assert payload["scalars"]["concurrence_click_0"] == pytest.approx(1.0, abs=1e-12)

    def test_wildly_unnormalized_amplitudes_rejected(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "wave-detector",
                               "--amp-alpha-re", "0.9", "--amp-beta-re", "0.9")
        assert code == 2
        assert "normalized" in err

    @pytest.mark.parametrize("argv", [
        ("mzi", "--phi", "nan"),
        ("dce", "--bs2-alpha", "0.5", "--phi", "inf"),
        ("wave-detector", "--amp-alpha-re", "nan"),
    ], ids=["mzi-nan-phi", "dce-inf-phi", "wave-detector-nan-amplitude"])
    def test_non_finite_flags_rejected(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "experiment", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_morphing_orthogonal_informers(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "morphing", "--eta", "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["scalars"]["wavelike_q2"] == 0.0

    def test_morphing_requires_eta(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "morphing")
        assert code == 2
        assert "--eta" in err

    @pytest.mark.parametrize("name,flag", [("dce", "--bs2-alpha"), ("morphing", "--eta")])
    def test_required_flag_checked_before_amplitudes(self, capsys, name, flag):
        # the amplitudes are not normalized, yet the missing flag is reported
        code, _, err = run_cli(capsys, "experiment", name,
                               "--amp-alpha-re", "0.9", "--amp-beta-re", "0.9")
        assert code == 2
        assert err == f"error: {flag} is required for {name}\n"

    def test_measurement_model_perspectives(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "measurement-model",
                               "--amp-alpha-re", "0.6", "--amp-beta-re", "0.8")
        bob = json.loads(out)
        assert code == 0
        assert "p_outcome" not in bob["scalars"]
        code, out, _ = run_cli(capsys, "experiment", "measurement-model",
                               "--amp-alpha-re", "0.6", "--amp-beta-re", "0.8",
                               "--click", "1")
        alice = json.loads(out)
        assert code == 0
        assert alice["scalars"]["p_outcome"] == pytest.approx(0.64, abs=1e-12)

    def test_impossible_click(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "measurement-model",
                               "--amp-alpha-re", "1", "--amp-beta-re", "0",
                               "--click", "1")
        assert code == 2
        assert "probability" in err

    def test_mzi_absent_splitter(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "mzi", "--phi", "1.0",
                               "--bs2", "absent")
        payload = json.loads(out)
        assert code == 0
        assert payload["scalars"]["p_detector_0"] == pytest.approx(0.5, abs=1e-12)

    def test_q_flag_adds_scalars(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "morphing", "--eta", "0.5",
                               "--q", "1.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["scalars"]["q"] == 1.5
        assert "wavelike_q" in payload["scalars"]

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["experiment", "teleporter"])
        assert err.value.code == 2


class TestSweep:
    def test_dce_alpha_sweep_matches_closed_form(self, capsys, tmp_path):
        out_path = tmp_path / "dce.csv"
        code, out, _ = run_cli(capsys, "sweep", "dce", "--param", "bs2-alpha",
                               "--start", "0", "--stop", str(np.pi / 2),
                               "--steps", "50", "--phi", "0", "--out", str(out_path))
        assert code == 0
        assert "50 rows" in out
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        for row in rows:
            alpha = float(row["bs2-alpha"])
            expected = 0.5 * (1 - np.cos(alpha) ** 4)
            assert float(row["particlelike_q2"]) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("q", [None, "1.5"])
    @pytest.mark.parametrize("param,stop,fixed", [
        ("phi", 2 * np.pi, ("--bs2-alpha", "0.9")),
        ("bs2-alpha", np.pi / 2, ("--phi", "2.2")),
    ])
    def test_dce_grid_sweep_matches_closed_forms(self, capsys, tmp_path, param, stop, fixed, q):
        out_path = tmp_path / "dce.csv"
        argv = ["sweep", "dce", "--param", param, "--start", "0", "--stop", repr(stop),
                "--steps", "41", *fixed, "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv, *(["--q", q] if q else []))
        assert (code, out) == (0, f"wrote 41 rows to {out_path}\n"), err
        text = out_path.read_text(encoding="utf-8")
        assert "-0.0000000000000000e+00" not in text
        rows = list(csv.DictReader(text.splitlines()))
        assert len(rows) == 41
        for row in rows:
            alpha = float(row.get("bs2-alpha", 0.9))
            phi = float(row.get("phi", 2.2))
            linear = 0.25 * np.sin(2 * alpha) ** 2 * np.cos(phi) ** 2
            top = (1 + np.sqrt(1 - 2 * linear)) / 2
            expected = {
                "p_detector_0": np.cos(alpha) ** 2 / 2 + np.sin(alpha) ** 2 * np.sin(phi / 2) ** 2,
                "particlelike_q2": 0.5 * (1 - np.cos(alpha) ** 4) * np.cos(phi) ** 2,
                "entanglement_linear": linear,
                "entanglement_entropy": -sum(p * np.log(p) for p in (top, 1 - top) if p > 0),
            }
            for key, value in expected.items():
                assert float(row[key]) == pytest.approx(value, abs=1e-12), key
            pairs = [("p_detector_0", "p_detector_1", 1.0),
                     ("wavelike_q1", "particlelike_q1", np.log(2)),
                     ("wavelike_q2", "particlelike_q2", 0.5)]
            if q:
                assert float(row["q"]) == 1.5
                pairs.append(("wavelike_q", "particlelike_q", (1 - 2 ** -0.5) / 0.5))
            for left, right, total in pairs:
                assert float(row[left]) + float(row[right]) == pytest.approx(total, abs=1e-12)

    def test_dce_grid_names_first_bad_alpha_and_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "dce", "--param", "bs2-alpha",
                                 "--start", "0", "--stop", "2", "--steps", "5",
                                 "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == "error: bs2_alpha = 2.0 outside [0, pi/2]\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--start", "--stop"])
    def test_non_finite_bounds_rejected(self, capsys, tmp_path, flag, value):
        bounds = {"--start": "0", "--stop": "1", flag: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "mzi", "--param", "phi",
                                     *(part for pair in bounds.items() for part in pair),
                                     "--steps", "3", "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be finite, got {float(value)!r}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_mzi_phi_sweep_detector_column(self, capsys, tmp_path):
        out_path = tmp_path / "mzi.csv"
        code, _, _ = run_cli(capsys, "sweep", "mzi", "--param", "phi",
                             "--start", "0", "--stop", str(2 * np.pi),
                             "--steps", "25", "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as fh:
            for row in csv.DictReader(fh):
                phi = float(row["phi"])
                assert float(row["p_detector_0"]) == pytest.approx(
                    np.sin(phi / 2) ** 2, abs=1e-10)

    def test_rows_ascending_and_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "sweep", "morphing", "--param", "eta",
                                 "--start", "0", "--stop", "1", "--steps", "11",
                                 "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        with open(a, newline="") as fh:
            values = [float(r["eta"]) for r in csv.DictReader(fh)]
        assert values == sorted(values)

    def test_single_step_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "mzi", "--param", "phi",
                               "--start", "0", "--stop", "1", "--steps", "1",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "steps" in err

    def test_reversed_range_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "mzi", "--param", "phi",
                               "--start", "2", "--stop", "1", "--steps", "5",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "start" in err

    def test_unsweepable_parameter(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "mzi", "--param", "x",
                               "--start", "0", "--stop", "1", "--steps", "5",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "cannot sweep" in err

    @pytest.mark.parametrize("name,param", [
        (name, param) for name, scenario in cli.SCENARIOS.items()
        for param in scenario.sweepable])
    def test_every_sweepable_parameter_sweeps(self, capsys, tmp_path, name, param):
        code, out, err = run_cli(capsys, "sweep", name, "--param", param,
                                 "--start", "0", "--stop", "1", "--steps", "2",
                                 "--bs2-alpha", "0.5", "--eta", "0.5",
                                 "--out", str(tmp_path / "x.csv"))
        assert code == 0, err
        assert "2 rows" in out

    def test_measurement_model_sweeps_nothing(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "measurement-model", "--param", "x",
                               "--start", "0", "--stop", "1", "--steps", "2",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "options: none" in err

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "mzi", "--param", "phi",
                               "--start", "0", "--stop", "1", "--steps", "3",
                               "--out", "/no/such/dir/out.csv")
        assert code == 2
        assert err.startswith("error:")


class TestVerify:
    def test_full_run_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["failures"] == 0
        assert len(payload["checks"]) == 14
        names = [c["name"] for c in payload["checks"]]
        assert names == sorted(names)

    def test_failure_exits_one(self, capsys, monkeypatch):
        fake = [CheckResult("00_probe", False, 1.0, 1e-10, "synthetic")]
        monkeypatch.setattr(cli, "run_checks", lambda: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL 00_probe" in out
        assert "0/1 checks passed" in out

    def test_text_mode_line_format(self, capsys, monkeypatch):
        fake = [CheckResult("00_probe", True, 1e-16, 1e-12, "synthetic")]
        monkeypatch.setattr(cli, "run_checks", lambda: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.splitlines()[0].startswith("PASS 00_probe residual=")


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "waveparticle", "experiment", "morphing",
         "--eta", "0.3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["experiment"] == "morphing"


def test_console_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for command in ("measures", "experiment", "sweep", "verify"):
        assert command in out
