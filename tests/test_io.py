import contextlib
import gc
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import orjson
import pytest
import test_boundary_fuzz as fuzz
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle import io
from waveparticle.experiments import mzi_run
from waveparticle.states import projector

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


# Every JSON number a file may hold: floats with NaN and the infinities, which
# the decoder passes on and the state checks reject, -0.0, and integers above
# 2**53 and beyond int64 that still fit a float.
NUMBERS = st.one_of(
    st.floats(),
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(2 ** 53, 2 ** 1000).flatmap(lambda n: st.sampled_from([n, -n])),
    st.sampled_from([-0.0, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1]),
)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)


def entry_formula(parsed):
    """The per-entry decoding: complex(re, im) of each [re, im] pair."""
    if isinstance(parsed[0][0], list):
        return np.array([[complex(*pair) for pair in row] for row in parsed])
    return np.array([complex(*pair) for pair in parsed])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16).flatmap(lambda d: st.one_of(
    st.lists(PAIRS, min_size=d, max_size=d),
    st.lists(st.lists(PAIRS, min_size=d, max_size=d), min_size=d, max_size=d))))
def test_decoding_keeps_the_bits_of_complex(value):
    parsed = json.loads(json.dumps(value))   # NaN and Infinity literals included
    expected = entry_formula(parsed)
    decode = io.decode_matrix if expected.ndim == 2 else io.decode_vector
    decoded = decode(parsed, "field")
    assert decoded.dtype == complex and decoded.shape == expected.shape
    assert decoded.tobytes() == expected.tobytes()


def vector_with(bad):
    return "[[1, 0], %s]" % bad


def matrix_with(bad):
    return "[[[1, 0], [0, 0]], [%s, [1, 0]]]" % bad


def parse_file(field, value):
    if field == "basis":
        return io.parse_observable('{"dim": 2, "basis": %s}' % value)
    return io.parse_state('{"dims": [2], "%s": %s}' % (field, value))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["amplitudes", "matrix", "basis"])
def test_non_finite_literals_rejected_downstream(field, literal):
    bad = "[%s, 0]" % literal
    with pytest.raises(io.StateFormatError) as err:
        parse_file(field, vector_with(bad) if field == "amplitudes" else matrix_with(bad))
    assert err.value.field == field


BAD_ENTRIES = {
    "true": ("[true, 0]", "expected a [re, im] pair, got [True, 0]"),
    "null": ("[null, 0]", "expected a [re, im] pair, got [None, 0]"),
    "string": ('["0.5", 0]', "expected a [re, im] pair, got ['0.5', 0]"),
    "short-pair": ("[1]", "expected a [re, im] pair, got [1]"),
    "long-pair": ("[1, 0, 0]", "expected a [re, im] pair, got [1, 0, 0]"),
    "nested-pair": ("[[1, 0], 0]", "expected a [re, im] pair, got [[1, 0], 0]"),
    "bare-number": ("0.5", "expected a [re, im] pair, got 0.5"),
    "oversized-integer": ("[1%s, 0]" % ("0" * 400), "number too large for a float"),
}
# malformed rows, with the message each field gives
BAD_ROWS = {
    "ragged-row": ("[[[1, 0], [0, 0]], [[1, 0]]]", {
        "matrix": "matrix is not square (2 rows)",
        "basis": "basis vector length does not match dim"}),
    "empty-row": ("[[[1, 0], [0, 0]], []]", {
        "matrix": "expected a nonempty array of [re, im] pairs",
        "basis": "expected a nonempty array of [re, im] pairs"}),
    "non-square": ("[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]", {
        "matrix": "matrix is not square (2 rows)",
        "basis": "basis vector length does not match dim"}),
}
REJECTIONS = [
    *[(field, name, (vector_with if field == "amplitudes" else matrix_with)(bad), message)
      for name, (bad, message) in BAD_ENTRIES.items()
      for field in ("amplitudes", "matrix", "basis")],
    *[(field, name, rows, messages[field])
      for name, (rows, messages) in BAD_ROWS.items() for field in ("matrix", "basis")],
    ("amplitudes", "empty", "[]", "expected a nonempty array of [re, im] pairs"),
]


@pytest.mark.parametrize("field,value,message",
                         [(field, value, message) for field, _, value, message in REJECTIONS],
                         ids=[f"{field}-{name}" for field, name, _, _ in REJECTIONS])
def test_rejection_message_is_pinned(field, value, message):
    with pytest.raises(io.StateFormatError) as err:
        parse_file(field, value)
    assert str(err.value) == f"field {field!r}: {message}"


LONG_ENTRIES = {
    # about 1800 and 2500 characters of repr, echoed whole before the cap; json
    # reads 980 levels at the command line, a little fewer under pytest
    "900-deep": ("[" * 900 + "0" + "]" * 900, "[" * 77 + "..."),
    "500-numbers": ("[%s]" % ", ".join(["0.5"] * 500), "[" + "0.5, " * 15 + "0..."),
}


@pytest.mark.parametrize("name", sorted(LONG_ENTRIES))
@pytest.mark.parametrize("parser", ["orjson", "json"])
def test_long_malformed_entry_echoed_in_80_characters(parser, name):
    entry, echo = LONG_ENTRIES[name]
    text = '{"dims": [2], "amplitudes": [%s, [0, 0]]}' % entry
    # parse_state hands a text this deep to json alone, but orjson reads it
    payload = orjson.loads(text) if parser == "orjson" else json.loads(text)
    with pytest.raises(io.StateFormatError) as err:
        io._state(payload)
    assert len(echo) == 80
    assert str(err.value) == f"field 'amplitudes': expected a [re, im] pair, got {echo}"
    assert outcome(io.parse_state, text) == outcome(json_state, text)


@pytest.mark.parametrize("entry", [
    [0.5] * 13 + [0.12345678901],
    ["%076d" % 0],
    [10 ** 77],
    [[[[0.5] * 3] * 2] * 2, 0.25],
], ids=["numbers", "string", "integer", "nested"])
def test_entry_of_80_characters_echoed_whole(entry):
    assert len(repr(entry)) == 80
    with pytest.raises(io.StateFormatError) as err:
        io.decode_vector([entry, [0, 0]], "amplitudes")
    assert str(err.value).endswith(f"got {entry!r}")


class TestStateFiles:
    def test_pure_state_roundtrip(self, tmp_path):
        path = tmp_path / "state.json"
        psi = np.array([0.6, 0.8j], dtype=complex)
        text = io.dumps({"dims": [2], "amplitudes": io.encode_vector(psi)})
        path.write_text(text, encoding="utf-8")
        loaded = io.load_state(str(path))
        assert loaded.dims == (2,)
        np.testing.assert_allclose(loaded.amplitudes, psi, atol=0)
        np.testing.assert_allclose(loaded.density, projector(psi), atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 9, 128])
    def test_amplitude_density_is_the_outer_product_bit_for_bit(self, tmp_path, dim):
        # measures outputs of an amplitude file depend on these bits
        psi = RNG.standard_normal(dim) + 1j * RNG.standard_normal(dim)
        psi = psi / np.linalg.norm(psi)
        path = tmp_path / "state.json"
        text = io.dumps({"dims": [dim], "amplitudes": io.encode_vector(psi)})
        path.write_text(text, encoding="utf-8")
        loaded = io.load_state(str(path))
        assert loaded.density.tobytes() == np.outer(loaded.amplitudes,
                                                    loaded.amplitudes.conj()).tobytes()

    def test_density_roundtrip(self, tmp_path):
        path = tmp_path / "state.json"
        rho = np.eye(4, dtype=complex) / 4
        text = io.dumps({"dims": [2, 2], "matrix": io.encode_matrix(rho)})
        path.write_text(text, encoding="utf-8")
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

    def test_dims_product_does_not_wrap(self):
        # 3 * 6148914691236517206 = 2**64 + 2, which int64 arithmetic wraps to 2
        with pytest.raises(io.StateFormatError, match="product 18446744073709551618") as err:
            io.parse_state('{"dims": [3, 6148914691236517206],'
                           ' "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}')
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
        ('{"dims": [2], "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 400), "amplitudes"),
        ('{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 1%s]]]}' % ("0" * 400),
         "matrix"),
    ], ids=["bool-number", "bool-dim", "nan-amplitude", "nan-matrix", "inf-matrix",
            "oversized-amplitude", "oversized-matrix"])
    def test_mistyped_or_non_finite_numbers(self, text, field):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state(text)
        assert err.value.field == field

    def test_integer_beyond_the_digit_limit(self):
        text = '{"dims": [2], "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 5000)
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state(text, "big.json")
        assert str(err.value) == "field 'json': big.json: integer literal has too many digits"

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
        np.testing.assert_allclose(obs.columns[:, 0], [s, s], atol=1e-12)

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

    def test_oversized_integer(self):
        text = '{"dim": 2, "basis": [[[1%s, 0], [0, 0]], [[0, 0], [1, 0]]]}' % ("0" * 400)
        with pytest.raises(io.StateFormatError, match="too large") as err:
            io.parse_observable(text)
        assert err.value.field == "basis"

    def test_integer_beyond_the_digit_limit(self):
        text = '{"dim": 2, "basis": [[[1%s, 0], [0, 0]], [[0, 0], [1, 0]]]}' % ("0" * 5000)
        with pytest.raises(io.StateFormatError) as err:
            io.parse_observable(text, "big.json")
        assert str(err.value) == "field 'json': big.json: integer literal has too many digits"

    @pytest.mark.parametrize("text", [
        '{"dim": 3}',
        '{"dim": 3, "basis": "not checked"}',
        # would not fit in memory: only the comparison may run
        '{"dim": 1%s}' % ("0" * 400),
    ], ids=["computational", "explicit", "huge"])
    def test_dim_checked_against_the_state_first(self, text):
        with pytest.raises(io.StateFormatError) as err:
            io.parse_observable(text, state_dim=2)
        dim = json.loads(text)["dim"]
        assert str(err.value) == (
            f"field 'dim': basis dimension {dim} does not match state dimension 2")

    def test_matching_dim_is_accepted(self):
        assert io.parse_observable('{"dim": 2}', state_dim=2).dim == 2

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


def outcome(parse, text):
    """What parse makes of text: the result's bytes, or the error's type,
    field and message."""
    try:
        result = parse(text)
    except Exception as exc:
        return type(exc), getattr(exc, "field", None), str(exc)
    if isinstance(result, io.LoadedState):
        amps = result.amplitudes
        return result.dims, result.density.tobytes(), amps if amps is None else amps.tobytes()
    return result.dim, result.columns.tobytes(), result._computational


# json, the reference grammar, followed by the decoder parse_state or
# parse_observable runs on the payload
def json_state(text):
    return io._state(io._parse_json(text, "state"))


def json_basis(text):
    return io._observable(io._parse_json(text, "basis"), None)


def json_unused():
    """Fail any call of _parse_json: the file must be read by orjson alone."""
    return mock.patch.object(io, "_parse_json", side_effect=AssertionError("json read it"))


LITERALS = {"repr": repr, "%.17e": "%.17e".__mod__, "%.25e": "%.25e".__mod__}


def file_text(kind, values, literal) -> str:
    """A state (kind amplitudes or matrix) or basis file of complex values,
    each part written by literal, or as a JSON integer when it is an int."""
    def number(x):
        return str(x) if isinstance(x, int) else literal(x)

    def pairs(row):
        return "[%s]" % ", ".join("[%s, %s]" % (number(re), number(im)) for re, im in row)

    if kind == "amplitudes":
        body = pairs(values)
    else:
        body = "[%s]" % ", ".join(map(pairs, values))
    head = '"dims": [%d]' % len(values) if kind != "basis" else '"dim": %d' % len(values)
    return '{%s, "%s": %s}' % (head, kind, body)


def valid_values(kind, dim, seed, integers):
    """Random valid values of a file of this kind as (re, im) parts: a unit
    vector, a density matrix or a unitary's columns; with integers, a basis
    state, its projector or a permutation, written as integers."""
    rng = np.random.default_rng(seed)
    if integers:
        perm = rng.permutation(dim)
        if kind == "matrix":
            return [[(int(j == k == perm[0]), 0) for j in range(dim)] for k in range(dim)]
        vectors = [[(int(j == perm[k]), 0) for j in range(dim)] for k in range(dim)]
        return vectors if kind == "basis" else vectors[0]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "amplitudes":
        values = g[0] / np.linalg.norm(g[0])
    elif kind == "matrix":
        values = g @ g.conj().T
        values = values / np.trace(values).real
    else:
        values = np.linalg.qr(g)[0].T
    return np.stack([values.real, values.imag], axis=-1).tolist()


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["amplitudes", "matrix", "basis"]), dim=st.integers(1, 16),
       seed=st.integers(0, 2 ** 32 - 1), integers=st.booleans(),
       literal=st.sampled_from(sorted(LITERALS)))
def test_valid_files_read_by_orjson_have_json_bits(kind, dim, seed, integers, literal):
    text = file_text(kind, valid_values(kind, dim, seed, integers), LITERALS[literal])
    parse, reference = ((io.parse_observable, json_basis) if kind == "basis"
                        else (io.parse_state, json_state))
    with json_unused():
        read = outcome(parse, text)
    assert read == outcome(reference, text)
    assert isinstance(read[1], bytes)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), basis=st.booleans())
def test_mutated_files_give_json_result_or_error(data, basis):
    valid = fuzz.VALID_BASES[data.draw(st.sampled_from(sorted(fuzz.VALID_BASES)))] \
        if basis else data.draw(st.sampled_from(fuzz.VALID_STATES))
    text = data.draw(fuzz.mutated(valid) | fuzz.JSON_VALUES.map(json.dumps))
    parse, reference = ((io.parse_observable, json_basis) if basis
                        else (io.parse_state, json_state))
    assert outcome(parse, text) == outcome(reference, text)


# decimal texts where rounding is delicate: halfway points, the subnormal
# range and its lower edge, and the largest finite double
EDGE_LITERALS = [
    "1.00000000000000011102230246251565404236316680908203125",
    "1.0000000000000001110223024625156540423631668090820312",
    "1.0000000000000001110223024625156540423631668090820313",
    "9007199254740993.0", "0.1", "2.2250738585072011e-308", "2.2250738585072014e-308",
    "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1e-400", "1.7976931348623157e308", "1.7976931348623158e308",
]


def assert_same_floats(literals):
    text = "[%s]" % ", ".join(literals)
    assert (np.array(orjson.loads(text), dtype=float).tobytes()
            == np.array(json.loads(text), dtype=float).tobytes())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.sampled_from(sorted(LITERALS)))
def test_orjson_reads_float_literals_as_json_does(values, literal):
    assert_same_floats(map(LITERALS[literal], values))


def test_orjson_reads_edge_literals_as_json_does():
    assert_same_floats(EDGE_LITERALS)


class TestTwoParsers:
    STATE = '{"dims": [2], "amplitudes": [[0.6, 0], [0, 0.8]]%s}'

    @pytest.mark.parametrize("unused", ["NaN", "-Infinity", "1e400", '"\\ud800"'])
    def test_value_orjson_refuses_in_an_unused_field(self, unused):
        text = self.STATE % (', "note": %s' % unused)
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)
        read = outcome(io.parse_state, text)
        assert read == outcome(json_state, text)
        assert read == outcome(io.parse_state, self.STATE % "")

    def test_integer_beyond_64_bits_keeps_json_message(self):
        # orjson reads it as a float, which the dims check refuses; json's
        # integer reaches the product check
        text = '{"dims": [18446744073709551617], "amplitudes": [[0.6, 0], [0, 0.8]]}'
        assert isinstance(orjson.loads(text)["dims"][0], float)
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state(text)
        assert str(err.value) == ("field 'dims': product 18446744073709551617 "
                                  "does not match dimension 2")

    def test_dimension_128_files_have_json_bits(self):
        rng = np.random.default_rng(128)
        g = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        rho = g @ g.conj().T
        state = io.dumps({"dims": [2] * 7, "matrix": io.encode_matrix(rho / np.trace(rho))})
        basis = io.dumps({"dim": 128, "basis": io.encode_matrix(np.linalg.qr(g)[0].T)})
        with json_unused():
            read_state, read_basis = (outcome(io.parse_state, state),
                                      outcome(io.parse_observable, basis))
        assert read_state == outcome(json_state, state)
        assert read_basis == outcome(json_basis, basis)
        assert isinstance(read_state[1], bytes) and isinstance(read_basis[1], bytes)

    @pytest.mark.parametrize("depth", [1000, 1100, 100000])
    def test_deep_unused_field_refused_by_json_alone(self, monkeypatch, depth):
        # orjson 3.8.3 reads 1000 and 1100 levels and overflows the C stack on
        # 100000; json refuses all three, and no text this deep reaches orjson
        monkeypatch.setattr(orjson, "loads", mock.Mock(side_effect=AssertionError))
        text = self.STATE % (', "note": %s%s' % ("[" * depth, "]" * depth))
        with pytest.raises(io.StateFormatError) as err:
            io.parse_state(text, "deep.json")
        assert str(err.value) == "field 'json': deep.json: arrays or objects nested too deeply"

    @pytest.mark.parametrize("text,shallow", [
        ("[" * 64 + "]" * 64, True),
        ("[" * 65 + "]" * 65, False),
        ('{"a": [%s]}' % ", ".join(["[[]]"] * 100), True),
        # brackets in strings do not count, either way
        ('["%s"]' % ("[" * 100), True),
        ('["%s", %s%s]' % ("]" * 100, "[" * 64, "]" * 64), False),
        # escapes and unpaired quotes leave the strings unknown
        ('{"a\\"b": 1}', False),
        ('{"a": 1, "b}', False),
    ], ids=["64", "65", "wide", "open-in-string", "close-in-string", "escape", "odd-quote"])
    def test_depth_guard(self, text, shallow):
        assert io._shallow(text) is shallow


def read_as_text(parse, path, *args):
    """parse of the file read in text mode, the reference for load_*."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read(), path, *args)


FILE_BODIES = {
    "state": '"dims": [2], "amplitudes": [[0.6, 0], [0, 0.8]]',
    "basis": '"dim": 2, "basis": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]',
}
# each file, with %s for the body; the errors name a line, a column and a
# character position, which count the line breaks as text mode reads them
RAW_FILES = {
    "crlf": b"{\r\n  %s\r\n}\r\n",
    "crlf-error": b"{\r\n  %s,\r\n}\r\n",
    "lone-cr": b"{\r  %s\r}\r",
    "lone-cr-error": b"{\r\r  %s,\r}",
    "bom": b"\xef\xbb\xbf{%s}",
    "invalid-utf8": b'{%s, "note": "\xff"}',
    "non-ascii": '{"\u00e9t\u00e9": "\u00fc", %s, "k\\u00e9y": "\\u00fc\\n"}'.encode(),
    "non-ascii-error": '{"\u00e9t\u00e9": "\u00fc", %s,}'.encode(),
    "escape": b'{"a\\"b": "\\ud800", %s}',
    "empty": b"",
    # json.loads would take bytes with a NUL among the first four for UTF-16
    "nul": b"\0{%s}",
    "nul-inside": b'{%s, "\0": 1}',
}


class TestReadingFiles:
    @pytest.mark.parametrize("kind", sorted(FILE_BODIES))
    @pytest.mark.parametrize("name", sorted(RAW_FILES))
    def test_load_reads_the_file_as_text_mode_does(self, tmp_path, kind, name):
        raw = RAW_FILES[name]
        path = tmp_path / "file.json"
        path.write_bytes(raw % FILE_BODIES[kind].encode() if b"%s" in raw else raw)
        path = str(path)
        load, parse = ((io.load_observable, io.parse_observable) if kind == "basis"
                       else (io.load_state, io.parse_state))
        read = outcome(lambda _: load(path), None)
        assert read == outcome(lambda _: read_as_text(parse, path), None)
        accepted = name in ("crlf", "lone-cr", "non-ascii", "escape")
        assert isinstance(read[1], bytes) is accepted, read

    def test_basis_dimension_passed_on(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_bytes(b"{\r\n%s}" % FILE_BODIES["basis"].encode())
        for state_dim in (2, 3):
            assert (outcome(lambda _: io.load_observable(str(path), state_dim), None)
                    == outcome(lambda _: read_as_text(io.parse_observable, str(path),
                                                      state_dim), None))

    @pytest.mark.parametrize("base", ["float", "integer"])
    @pytest.mark.parametrize("pair", ["[true, 0.5]", "[0.5, false]", "[1, true]",
                                      "[0, false]"])
    def test_boolean_in_a_matrix_keeps_json_field_and_message(self, base, pair):
        value = 0.25 if base == "float" else 0
        rows = [["[%s, 0]" % (value if j == k else 0) for j in range(4)] for k in range(4)]
        if base == "integer":
            rows[3][3] = "[1, 0]"
        rows[1][2] = pair
        text = '{"dims": [4], "matrix": [%s]}' % ", ".join(
            "[%s]" % ", ".join(row) for row in rows)
        message = "field 'matrix': expected a [re, im] pair, got %s" % (
            pair.replace("true", "True").replace("false", "False"))
        for payload in (orjson.loads(text), json.loads(text)):
            with pytest.raises(io.StateFormatError) as err:
                io._state(payload)
            assert str(err.value) == message
        assert outcome(io.parse_state, text) == (io.StateFormatError, "matrix", message)

    def test_identity_basis_of_dimension_128_has_json_bits(self):
        text = io.dumps({"dim": 128, "basis": [[[int(j == k), 0] for j in range(128)]
                                               for k in range(128)]})
        with json_unused():
            read = outcome(io.parse_observable, text)
        assert read == outcome(json_basis, text)
        assert read[1] == np.eye(128, dtype=complex).tobytes()

    @pytest.mark.parametrize("value", [
        [[2 ** 63, 0], [1, 0.5]],
        [[2 ** 64 - 1, -1], [2 ** 63 + 1, 2 ** 53 + 1]],
        [[-2 ** 63, 2 ** 63 - 1], [2 ** 53 + 1, 3]],
        [[2 ** 64 - 1, 2 ** 63], [2 ** 64 - 2, 2 ** 63 + 1025]],
        [[1, 2], [3, 0.1]],
        [[2 ** 64 + 1, 0.5], [0, 1]],
    ], ids=["uint64-int", "uint64-int64", "int64-edges", "uint64-only", "mixed",
            "beyond-64-bits"])
    def test_integers_and_floats_keep_json_bits(self, value):
        text = json.dumps(value)
        expected = entry_formula(json.loads(text))
        for payload in (orjson.loads(text), json.loads(text)):
            assert io.decode_vector(payload, "amplitudes").tobytes() == expected.tobytes()
            rows = [payload, payload[::-1]]
            assert (io.decode_matrix(rows, "matrix").tobytes()
                    == entry_formula(json.loads(json.dumps(rows))).tobytes())


class TestCollectorPause:
    STATE = '{"dims": [2], "amplitudes": [[0.6, 0], [0, 0.8]]}'

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("text", [
        STATE,
        '{"dims": [3], "amplitudes": [[0.6, 0], [0, 0.8]]}',
        '{"dims": [2], "amplitudes": [[NaN, 0], [0, 0.8]]}',
        "{",
    ], ids=["accepted", "refused", "refused-by-orjson", "malformed"])
    def test_caller_setting_restored(self, collecting, text):
        with contextlib.suppress(io.StateFormatError):
            io.parse_state(text)
        assert gc.isenabled() is collecting

    def test_caller_setting_restored_when_the_decoder_raises(self, collecting, monkeypatch):
        monkeypatch.setattr(io, "_state", mock.Mock(side_effect=RuntimeError("decoder")))
        with pytest.raises(RuntimeError, match="decoder"):
            io.parse_state(self.STATE)
        assert gc.isenabled() is collecting

    def test_paused_while_orjson_payload_is_decoded(self, collecting, monkeypatch):
        seen = []
        decode = io._state

        def recording(payload):
            seen.append(gc.isenabled())
            return decode(payload)

        monkeypatch.setattr(io, "_state", recording)
        io.parse_state(self.STATE)
        # NaN: orjson refuses the text, and json's payload is decoded unpaused
        io.parse_state(self.STATE[:-1] + ', "note": NaN}')
        assert seen == [False, collecting]


class TestReportPayload:
    def test_structure(self):
        report = mzi_run(0.25)
        payload = io.report_payload(report)
        assert payload["experiment"] == "mzi"
        assert "p_detector_0" in payload["scalars"]
        assert payload["states"]["mid"]["dims"] == [2]
        # serializes cleanly
        parsed = json.loads(io.dumps(payload))
        assert parsed["experiment"] == "mzi"

    def test_scalars_are_plain_floats(self):
        payload = io.report_payload(mzi_run(0.25))
        assert all(type(v) is float for v in payload["scalars"].values())


class TestCsv:
    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        io.write_csv(str(path), ["a", "b"], [np.array([[1.0, 2.0], [3.0, -0.5]])])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == (b"a,b\n1.0000000000000000e+00,2.0000000000000000e+00\n"
                       b"3.0000000000000000e+00,-5.0000000000000000e-01\n")

    def test_rows_may_be_a_generator(self, tmp_path):
        path = tmp_path / "out.csv"
        io.write_csv(str(path), ["a"], (np.full((i, 1), i) for i in range(3)))
        assert path.read_bytes() == (b"a\n1.0000000000000000e+00\n"
                                     b"2.0000000000000000e+00\n2.0000000000000000e+00\n")
        assert list(tmp_path.iterdir()) == [path]

    def test_failing_rows_leave_existing_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")

        def tables():
            yield np.ones((2, 1))
            raise ValueError("bad table")

        with pytest.raises(ValueError, match="bad table"):
            io.write_csv(str(path), ["a"], tables())
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            io.write_csv(str(tmp_path / "no" / "out.csv"), ["a"], [np.ones((1, 1))])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_tables_read_as_format_float_per_value(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e308]
        columns = int(rng.integers(1, 15))
        tables = []
        for rows in rng.integers(0, 300, size=3):   # runs of 128 rows are written at once
            # any bit pattern is a double, so every exponent and sign shows up
            bits = rng.integers(0, 2 ** 64, size=(rows, columns), dtype=np.uint64)
            table = bits.view(float)
            mask = rng.random(table.shape) < 0.2
            table[mask] = rng.choice(special, size=np.count_nonzero(mask))
            tables.append(table)
        path = tmp_path / "out.csv"
        header = [f"c{j}" for j in range(columns)]
        io.write_csv(str(path), header, tables)
        expected = [",".join(header)] + [",".join(io.format_float(v) for v in row)
                                         for table in tables for row in table]
        assert path.read_text(encoding="utf-8").split("\n") == [*expected, ""]

    @staticmethod
    def assert_reads_as_format_float(tmp_path, table):
        path = tmp_path / "out.csv"
        header = [f"c{j}" for j in range(table.shape[1])]
        io.write_csv(str(path), header, [table])
        expected = [",".join(header)] + [",".join(io.format_float(v) for v in row)
                                         for row in table]
        assert path.read_text(encoding="utf-8").split("\n") == [*expected, ""]

    def test_log_uniform_doubles_over_every_decimal_exponent(self, tmp_path):
        # exponents -8 to 18: the exact kernel covers (1e-6, 1e17), the rest fall back
        rng = np.random.default_rng(21)
        signs = rng.choice([-1.0, 1.0], size=(5000, 8))
        self.assert_reads_as_format_float(tmp_path, signs * 10.0 ** rng.uniform(-8, 18, (5000, 8)))

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        # next to a power of ten the first guess of the decimal exponent can be one off;
        # the double just below each power also shows that the kernel's 17 digits
        # never round up to the next power, which it does not handle
        powers = np.array([float(f"1e{j}") for j in range(-8, 19)])
        table = np.column_stack([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
        self.assert_reads_as_format_float(tmp_path, np.concatenate([table, -table]))

    @pytest.mark.parametrize("power", [-305, -243, -176, -79, -14, 98, 129, 153, 220])
    def test_digits_carrying_into_the_next_power_of_ten(self, tmp_path, power):
        value = float(f"1e{power}")
        # the double lies below 10**power, yet its 17 digits round up to it
        assert Fraction(value) < Fraction(10) ** power
        assert io.format_float(value) == "1.0000000000000000e%+03d" % power
        self.assert_reads_as_format_float(tmp_path, np.array([[value, -value]]))

    def test_zeros_non_finite_and_subnormal_values(self, tmp_path):
        table = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf],
                          [5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                           -1.7976931348623157e308]])
        self.assert_reads_as_format_float(tmp_path, table)

    def test_integer_table_is_written_as_its_floats(self, tmp_path):
        table = np.array([[0, 1, -7, 2 ** 53 + 1], [10 ** 17, -(2 ** 63), 2 ** 63 - 1, 12345]])
        self.assert_reads_as_format_float(tmp_path, table)

    def test_empty_table_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "out.csv"
        io.write_csv(str(path), ["a", "b"], [np.empty((0, 2))])
        assert path.read_bytes() == b"a,b\n"

    def test_rows_across_runs_of_128(self, tmp_path):
        rng = np.random.default_rng(22)
        table = rng.standard_normal((300, 5)) * 10.0 ** rng.integers(-9, 20, (300, 5))
        self.assert_reads_as_format_float(tmp_path, table)

    def test_complex_table_refused_and_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(TypeError):
            io.write_csv(str(path), ["a", "b"],
                         [np.ones((2, 2)), np.array([[1.0, 0.5 + 1e-9j]])])
        assert list(tmp_path.iterdir()) == []
