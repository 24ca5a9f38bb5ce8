import json

import numpy as np
import pytest

from waveparticle import io
from waveparticle.experiments import MziConfig, mzi_run
from waveparticle.states import basis_state, projector

RNG = np.random.default_rng(505)


class TestFormatting:
    def test_format_float_17_digits(self):
        assert io.format_float(0.5) == "5.0000000000000000e-01"
        assert io.format_float(1.0) == "1.0000000000000000e+00"
        assert io.format_float(-2.870978885078724e-21) == "-2.8709788850787239e-21"

    def test_format_float_roundtrips(self):
        for x in (np.pi, 1 / 3, 1e-300, 123456.789):
            assert float(io.format_float(x)) == x

    def test_dumps_is_valid_json(self):
        payload = {"a": 1, "b": [0.5, "text", True, None], "c": {"d": 2.0}}
        parsed = json.loads(io.dumps(payload))
        assert parsed["a"] == 1
        assert parsed["b"] == [0.5, "text", True, None]

    def test_dumps_deterministic(self):
        payload = {"x": [1.0, {"y": np.float64(0.25)}]}
        assert io.dumps(payload) == io.dumps(payload)

    def test_dumps_preserves_key_order(self):
        text = io.dumps({"zebra": 1, "ant": 2})
        assert text.index("zebra") < text.index("ant")

    def test_dumps_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            io.dumps({"bad": {1, 2}})


class TestMatrixCodec:
    def test_roundtrip(self):
        m = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        decoded = io.decode_matrix(io.encode_matrix(m), "matrix")
        np.testing.assert_allclose(decoded, m, atol=0)

    def test_vector_roundtrip(self):
        v = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        np.testing.assert_allclose(io.decode_vector(io.encode_vector(v), "amplitudes"),
                                   v, atol=0)

    def test_bad_pair_names_field(self):
        with pytest.raises(io.StateFormatError) as err:
            io.decode_vector([[1.0, 0.0], [1.0]], "amplitudes")
        assert err.value.field == "amplitudes"

    def test_non_square_matrix(self):
        with pytest.raises(io.StateFormatError, match="square"):
            io.decode_matrix([[[1.0, 0.0], [0.0, 0.0]]] * 3, "matrix")


class TestStateFiles:
    def test_pure_state_roundtrip(self, tmp_path):
        path = tmp_path / "state.json"
        psi = np.array([0.6, 0.8j], dtype=complex)
        io.save_state(str(path), (2,), amplitudes=psi)
        loaded = io.load_state(str(path))
        assert loaded.dims == (2,)
        np.testing.assert_allclose(loaded.amplitudes, psi, atol=0)
        np.testing.assert_allclose(loaded.density, projector(psi), atol=1e-15)

    def test_density_roundtrip(self, tmp_path):
        path = tmp_path / "state.json"
        rho = np.eye(4, dtype=complex) / 4
        io.save_state(str(path), (2, 2), matrix=rho)
        loaded = io.load_state(str(path))
        assert loaded.dims == (2, 2)
        assert loaded.amplitudes is None
        np.testing.assert_allclose(loaded.density, rho, atol=1e-12)

    def test_malformed_json(self):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state("{not json", "test")
        assert err.value.field == "json"

    def test_missing_payload(self):
        with pytest.raises(io.StateFormatError, match="matrix or amplitudes"):
            io.parse_state('{"dims": [2]}')

    def test_both_payloads_rejected(self):
        text = ('{"dims": [2], "amplitudes": [[1.0, 0.0], [0.0, 0.0]],'
                ' "matrix": [[[1.0, 0.0], [0.0, 0.0]],'
                ' [[0.0, 0.0], [0.0, 0.0]]]}')
        with pytest.raises(io.StateFormatError, match="not both"):
            io.parse_state(text)

    def test_dims_mismatch(self):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state('{"dims": [3], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}')
        assert err.value.field == "dims"

    def test_dims_must_be_positive_integers(self):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state('{"dims": [2.0], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}')
        assert err.value.field == "dims"

    @pytest.mark.parametrize("text, field", [
        ('{"dims": [2], "amplitudes": [[true, 0], [0, 0]]}', "amplitudes"),
        ('{"dims": [true, 2], "amplitudes": [[1, 0], [0, 0]]}', "dims"),
        ('{"dims": [2], "amplitudes": [[NaN, 0], [0, 0]]}', "amplitudes"),
        ('{"dims": [2], "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}', "matrix"),
        ('{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[Infinity, 0], [0, 0]]]}', "matrix"),
    ], ids=["bool-number", "bool-dim", "nan-amplitude", "nan-matrix", "inf-matrix"])
    def test_mistyped_or_non_finite_numbers(self, text, field):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state(text)
        assert err.value.field == field

    def test_unnormalized_amplitudes(self):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state('{"dims": [2], "amplitudes": [[0.9, 0.0], [0.0, 0.0]]}')
        assert err.value.field == "amplitudes"

    def test_invalid_density(self):
        bad = ('{"dims": [2], "matrix": [[[0.9, 0.0], [0.0, 0.0]],'
               ' [[0.0, 0.0], [0.9, 0.0]]]}')
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state(bad)
        assert err.value.field == "matrix"


class TestObservableFiles:
    def test_computational_default(self):
        obs = io.parse_observable('{"dim": 3}')
        np.testing.assert_array_equal(obs.columns, np.eye(3))

    def test_explicit_basis(self):
        s = 1 / np.sqrt(2)
        text = json.dumps({
            "dim": 2,
            "basis": [[[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]],
        })
        obs = io.parse_observable(text)
        np.testing.assert_allclose(obs.vector(0), [s, s], atol=1e-12)

    def test_wrong_vector_count(self):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_observable('{"dim": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]]]}')
        assert err.value.field == "basis"

    def test_non_orthonormal_basis(self):
        text = json.dumps({
            "dim": 2,
            "basis": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        })
        with pytest.raises(io.StateFormatError, match="orthonormal"):
            io.parse_observable(text)

    def test_bad_dim(self):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_observable('{"dim": 0}')
        assert err.value.field == "dim"

    def test_boolean_dim(self):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_observable('{"dim": true}')
        assert err.value.field == "dim"

    def test_non_finite_basis(self):
        text = '{"dim": 2, "basis": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}'
        with pytest.raises(io.StateFormatError, match="orthonormal") as err:
            io.parse_observable(text)
        assert err.value.field == "basis"

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text('{"dim": 2}', encoding="utf-8")
        assert io.load_observable(str(path)).dim == 2


class TestReportPayload:
    def test_structure(self):
        report = mzi_run(MziConfig(phi=0.25))
        payload = io.report_payload(report)
        assert payload["experiment"] == "mzi"
        assert "p_detector_0" in payload["scalars"]
        assert payload["states"]["mid"]["dims"] == [2]
        # serializes cleanly
        parsed = json.loads(io.dumps(payload))
        assert parsed["experiment"] == "mzi"

    def test_scalars_are_plain_floats(self):
        payload = io.report_payload(mzi_run(MziConfig(phi=0.25)))
        assert all(type(v) is float for v in payload["scalars"].values())


class TestCsv:
    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        io.write_csv(str(path), ["a", "b"], [["1", "2"], ["3", "4"]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == b"a,b\n1,2\n3,4\n"
