import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from waveparticle import cli, io, measures
from waveparticle.channels import ReferenceObservable
from waveparticle.nonlocality import chsh_nl, concurrence
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

    @pytest.mark.parametrize("kind,dim", [("amplitudes", 4), ("matrix", 4), ("matrix", 128)])
    def test_state_solved_once_per_measures_call(self, capsys, tmp_path, monkeypatch,
                                                 kind, dim):
        # an amplitude file: the shared spectrum only; a matrix file: its
        # repair, whose spectrum the split (and at d = 4 CHSH and concurrence) reuse
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if kind == "amplitudes":
            payload = {"amplitudes": io.encode_vector(g[0] / np.linalg.norm(g[0]))}
        else:
            rho = g @ g.conj().T
            payload = {"matrix": io.encode_matrix(rho / np.trace(rho).real)}
        dims = [2] * int(np.log2(dim))
        path = write_state(tmp_path, "state.json", dims=dims, **payload)
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def counted(m, *args, solver=solver, name=name, **kwargs):
                if np.shape(m)[-2:] == (dim, dim):
                    calls.append(name)
                return solver(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        code, out, _ = run_cli(capsys, "measures", path)
        assert code == 0 and ("concurrence" in json.loads(out)) == (dim == 4)
        assert calls == ["eigh"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("q", [None, "2", "0.5"])
    def test_two_qubit_output_matches_public_measures(self, capsys, tmp_path, seed, q):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        path = write_state(tmp_path, "mixed22.json", dims=[2, 2],
                           matrix=io.encode_matrix(rho / np.trace(rho).real))
        code, out, _ = run_cli(capsys, "measures", path, *(() if q is None else ("--q", q)))
        assert code == 0
        payload = json.loads(out)
        density = io.load_state(path).density
        order = 1.0 if q is None else float(q)
        split = measures.duality(density, ReferenceObservable.computational(4), order)
        chsh_max, violation = chsh_nl(density)
        expected = {**split, "chsh_max": chsh_max, "nonlocality": violation,
                    "concurrence": concurrence(density)}
        for key, value in expected.items():
            assert abs(payload[key] - value) <= 1e-14, key

    @pytest.mark.parametrize("defect,message", [
        ("non-Hermitian", "density matrix is not Hermitian: max |M - M^H| = 1.000e-03 "
                          "exceeds 1.0e-09"),
        ("trace", "state is not a density matrix: eigenvalues sum to 1.0100000000000002, "
                  "smallest 1.010e-01 (tolerance 1.0e-09)"),
        ("negative", "state is not a density matrix: eigenvalues sum to 0.9999999999999999, "
                     "smallest -1.000e-06 (tolerance 1.0e-09)"),
        # the same two defects with the spectrum written on the diagonal
        ("trace-diagonal", "state is not a density matrix: eigenvalues sum to 1.01, "
                           "smallest 1.100e-01 (tolerance 1.0e-09)"),
        ("negative-diagonal", "state is not a density matrix: eigenvalues sum to "
                              "0.9999999999999999, smallest -1.000e-06 (tolerance 1.0e-09)"),
    ])
    def test_defective_two_qubit_matrix_rejected(self, capsys, tmp_path, defect, message):
        u, _ = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))
        lam = {"negative": [-1e-6, 0.2, 0.3, 0.5 + 1e-6]}.get(defect, [0.1, 0.2, 0.3, 0.4])
        m = (u * lam) @ u.T.astype(complex)
        if defect == "non-Hermitian":
            m[0, 1] += 1e-3
        elif defect == "trace":
            m *= 1.01
        elif defect == "trace-diagonal":
            m = np.diag([0.4, 0.3, 0.2, 0.11]).astype(complex)
        elif defect == "negative-diagonal":
            m = np.diag([-1e-6, 1.000001, 0.0, 0.0]).astype(complex)
        path = write_state(tmp_path, "bad22.json", dims=[2, 2], matrix=io.encode_matrix(m))
        code, out, err = run_cli(capsys, "measures", path)
        assert (code, out) == (2, "")
        assert err == f"error: field 'matrix': {message}\n"

    def test_two_qubit_matrix_negative_within_tolerance_repaired(self, capsys, tmp_path):
        # eigenvalues -5e-10 and 1 + 5e-10: the accepted side of the -1e-9 bound
        m = np.diag([-5e-10, 1.0 + 5e-10, 0.0, 0.0]).astype(complex)
        path = write_state(tmp_path, "repaired22.json", dims=[2, 2], matrix=io.encode_matrix(m))
        code, out, err = run_cli(capsys, "measures", path)
        assert (code, err) == (0, "")
        assert json.loads(out)["entropy"] == 0.0

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

    def test_huge_basis_dimension_rejected_before_allocating(self, capsys, balanced_state,
                                                              tmp_path):
        basis = tmp_path / "huge.json"
        basis.write_text('{"dim": 1%s}' % ("0" * 400), encoding="utf-8")
        code, out, err = run_cli(capsys, "measures", balanced_state, "--basis", str(basis))
        assert (code, out) == (2, "")
        assert err == (f"error: field 'dim': basis dimension 1{'0' * 400}"
                       " does not match state dimension 2\n")

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

    @pytest.mark.parametrize("text,basis,message", [
        ('{"dims": [2], "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [0, 0]]]}', None,
         "field 'matrix': entry [0, 0] has modulus above 2; no entry of a state exceeds 1"),
        ('{"dims": [2], "matrix": [[[0.5, 0], [-1e308, 0]], [[1e308, 0], [0.5, 0]]]}', None,
         "field 'matrix': entry [0, 1] has modulus above 2; no entry of a state exceeds 1"),
        ('{"dims": [2], "amplitudes": [[-1e308, 0], [0, 0]]}', None,
         "field 'amplitudes': entry [0] has modulus above 2; no entry of a state exceeds 1"),
        # null and true decode to numbers in one array conversion; the type check names them
        ('{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[null, 0], [0, 0]]]}', None,
         "field 'matrix': expected a [re, im] pair, got [None, 0]"),
        ('{"dims": [2], "amplitudes": [[1, 0], [0, 0]]}',
         '{"dim": 2, "basis": [[[true, 0], [0, 0]], [[0, 0], [1, 0]]]}',
         "field 'basis': expected a [re, im] pair, got [True, 0]"),
    ], ids=["diagonal-1e308", "off-diagonal-1e308", "amplitude-minus-1e308",
            "null-pair", "true-pair-in-basis"])
    def test_malformed_entry_rejected_without_warnings(self, capsys, tmp_path, text, basis,
                                                       message):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        argv = ["measures", str(bad)]
        if basis is not None:
            (tmp_path / "basis.json").write_text(basis, encoding="utf-8")
            argv += ["--basis", str(tmp_path / "basis.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_order_above_the_bound_rejected(self, capsys, balanced_state):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "measures", balanced_state, "--q", "1e308")
        assert (code, out) == (2, "")
        assert err == ("error: entropy order must be positive and finite, at most 1e+15,"
                       " got 1e+308\n")

    def test_dims_overflowing_int64_rejected(self, capsys, tmp_path):
        bad = write_state(tmp_path, "wrap.json", dims=[3, 6148914691236517206],
                          amplitudes=[[1.0, 0.0], [0.0, 0.0]])
        code, out, err = run_cli(capsys, "measures", bad)
        assert (code, out) == (2, "")
        assert "field 'dims'" in err

    def test_oversized_integer_rejected(self, capsys, tmp_path):
        bad = tmp_path / "big.json"
        bad.write_text('{"dims": [2], "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 400))
        code, out, err = run_cli(capsys, "measures", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: field 'amplitudes': number too large for a float\n"

    def test_integer_beyond_the_digit_limit_rejected(self, capsys, tmp_path):
        bad = tmp_path / "huge.json"
        bad.write_text('{"dims": [2], "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 5000))
        code, out, err = run_cli(capsys, "measures", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: field 'json': {bad}: integer literal has too many digits\n"

    @pytest.mark.parametrize("depth", [995, 1500])
    def test_deeply_nested_state_rejected(self, capsys, tmp_path, depth):
        bad = tmp_path / "deep.json"
        bad.write_text('{"dims": [2], "matrix": %s%s}' % ("[" * depth, "]" * depth))
        code, out, err = run_cli(capsys, "measures", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: field 'json': {bad}: arrays or objects nested too deeply\n"

    @pytest.mark.parametrize("entry,echo", [
        ("[" * 900 + "0" + "]" * 900, "[" * 77 + "..."),
        ("[%s]" % ", ".join(["0.5"] * 500), "[" + "0.5, " * 15 + "0..."),
    ], ids=["900-deep", "500-numbers"])
    def test_long_malformed_entry_echoed_in_one_short_line(self, capsys, tmp_path, entry,
                                                           echo):
        bad = tmp_path / "long.json"
        bad.write_text('{"dims": [2], "amplitudes": [%s, [0, 0]]}' % entry)
        code, out, err = run_cli(capsys, "measures", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: field 'amplitudes': expected a [re, im] pair, got {echo}\n"

    def test_deeply_nested_basis_rejected(self, capsys, tmp_path, balanced_state):
        bad = tmp_path / "deep_basis.json"
        bad.write_text('{"dim": 2, "basis": %s%s}' % ("[" * 1500, "]" * 1500))
        code, out, err = run_cli(capsys, "measures", balanced_state, "--basis", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: field 'json': {bad}: arrays or objects nested too deeply\n"

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

    def test_huge_amplitude_flag_rejected_without_overflow(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "experiment", "wave-detector",
                                     "--amp-alpha-re", "1e200")
        assert (code, out) == (2, "")
        assert err == "error: amplitudes are not normalized: |a|^2+|b|^2 = inf\n"

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

    @pytest.mark.parametrize("argv,message", [
        (("--click", "5"), "outcome index 5 out of range for dimension 2"),
        (("--click", "-1"), "outcome index -1 out of range for dimension 2"),
    ], ids=["above", "negative"])
    def test_click_out_of_range_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "experiment", "measurement-model", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    def test_order_above_the_bound_rejected_and_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "dce.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "dce", "--param", "phi", "--start", "0",
                                     "--stop", "1", "--steps", "3", "--bs2-alpha", "0.6",
                                     "--q", "1e308", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == ("error: entropy order must be positive and finite, at most 1e+15,"
                       " got 1e+308\n")
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

    @pytest.mark.parametrize("name,param", [("mzi", "phi"), ("wave-detector", "x")])
    def test_overflowing_span_rejected(self, capsys, tmp_path, name, param):
        # each bound is finite, their difference is not: linspace would warn and
        # then name a NaN grid point the user never gave
        out_path = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", name, "--param", param,
                                     "--start=-1e308", "--stop", "1e308", "--steps", "3",
                                     "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == "error: --stop - --start must be finite, got inf\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("start,stop,steps", [
        (-1.7976931348623157e308, 0.0, 4), (0.0, 1.7976931348623157e308, 4),
        (-1e308, 7e307, 3)])
    def test_span_near_the_largest_double_sweeps(self, capsys, tmp_path, start, stop, steps):
        # (steps - 1) * step may round past the largest double; that point is stop
        out_path = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "sweep", "mzi", "--param", "phi",
                                   f"--start={start!r}", f"--stop={stop!r}",
                                   "--steps", str(steps), "--out", str(out_path))
        assert (code, err) == (0, "")
        with out_path.open(newline="") as fh:
            phis = [float(row["phi"]) for row in csv.DictReader(fh)]
        with np.errstate(over="ignore"):
            assert phis == np.linspace(start, stop, steps).tolist()
        assert phis[-1] == stop

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

    def test_missing_directory_names_the_out_path(self, capsys, tmp_path):
        # the temporary file next to it, with the process id, stays unnamed
        out = str(tmp_path / "no" / "x.csv")
        code, _, err = run_cli(capsys, "sweep", "wave-detector", "--param", "x",
                               "--start", "0", "--stop", "1", "--steps", "3", "--out", out)
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"
        assert ".tmp" not in err and str(os.getpid()) not in err


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


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "3"],
    ["measures", "{state}", "--json"],
    ["experiment", "mzi", "--json"],
    ["sweep", "mzi", "--param", "phi", "--start", "0", "--stop", "1", "--steps", "2",
     "--out", "{out}", "--json"],
], ids=["verify --q", "measures --json", "experiment --json", "sweep --json"])
def test_flag_a_command_does_not_read_is_rejected(capsys, balanced_state, tmp_path, argv):
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as err:
        cli.main([arg.format(state=balanced_state, out=out) for arg in argv])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "waveparticle", "experiment", "morphing",
         "--eta", "0.3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["experiment"] == "morphing"


def test_orjson_imported_only_to_read_a_file(balanced_state):
    # its import costs milliseconds, which a command reading no file never pays
    code = "\n".join([
        "import contextlib, io, sys, waveparticle.cli",
        "def run(*argv):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert waveparticle.cli.main(list(argv)) == 0",
        "run('experiment', 'mzi')",
        "assert 'orjson' not in sys.modules, 'experiment imported orjson'",
        "run('measures', sys.argv[1])",
        "assert 'orjson' in sys.modules, 'measures read the file without orjson'",
    ])
    subprocess.run([sys.executable, "-c", code, balanced_state], check=True)


def test_console_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for command in ("measures", "experiment", "sweep", "verify"):
        assert command in out
