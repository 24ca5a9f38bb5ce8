"""JSON/CSV serialization with deterministic formatting.

Complex entries are stored as [re, im] pairs and matrices as row-major
arrays of rows. Floats are always rendered with 17 significant digits in
scientific notation, by the one template FLOAT_FORMAT, so identical inputs
give byte-identical output. A CSV file is written one float table at a time,
each table formatted by a single row template.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from typing import NamedTuple

import numpy as np

from .channels import ReferenceObservable
from .experiments import ExperimentReport
from .states import projector, validate_density, validate_pure


class StateFormatError(ValueError):
    """Malformed state, basis, or report file; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field {field!r}: {message}")


# 17 significant digits: enough to round-trip every double
FLOAT_FORMAT = "%.16e"


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _dump(value, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _dump(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _dump(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "]")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Deterministic JSON: insertion-order keys, fixed float format."""
    out: list = []
    _dump(value, 0, out)
    out.append("\n")
    return "".join(out)


def encode_vector(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def encode_matrix(m: np.ndarray) -> list:
    return [encode_vector(row) for row in np.asarray(m, dtype=complex)]


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _decode_pair(entry, field: str) -> complex:
    # bool is an int subclass, but JSON true/false are not numbers
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not (isinstance(entry[0], (int, float)) and isinstance(entry[1], (int, float)))
            or isinstance(entry[0], bool) or isinstance(entry[1], bool)):
        raise StateFormatError(field, f"expected a [re, im] pair, got {entry!r}")
    try:
        return complex(entry[0], entry[1])
    except OverflowError:   # an integer literal beyond the float range
        raise StateFormatError(field, "number too large for a float") from None


def _decode_array(value: list, depth: int) -> np.ndarray | None:
    """n [re, im] pairs (depth 1) or n rows of n pairs (depth 2) as one complex
    array with the bits of complex(re, im) per pair; None for anything else,
    which the entry by entry decoding then names. Every number must be a JSON
    int or float: np.array would also take true, null and "0.5" as numbers."""
    n, pairs = len(value), value
    try:
        if depth == 2:
            if set(map(len, value)) != {n}:
                return None
            pairs = list(itertools.chain.from_iterable(value))
        if set(map(len, pairs)) != {2}:
            return None
    except TypeError:   # a number where a row or a pair belongs
        return None
    numbers = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        return np.array(numbers, dtype=float).view(complex).reshape((n,) * depth)
    except OverflowError:   # an integer literal beyond the float range
        return None


def decode_vector(entries, field: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise StateFormatError(field, "expected a nonempty array of [re, im] pairs")
    decoded = _decode_array(entries, 1)
    if decoded is None:
        decoded = np.array([_decode_pair(e, field) for e in entries], dtype=complex)
    return decoded


def _decode_square(rows: list, field: str, not_square: str) -> np.ndarray:
    decoded = _decode_array(rows, 2)
    if decoded is None:
        vectors = [decode_vector(row, field) for row in rows]
        if any(v.size != len(rows) for v in vectors):
            raise StateFormatError(field, not_square)
        decoded = np.array(vectors)
    return decoded


def decode_matrix(rows, field: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise StateFormatError(field, "expected a nonempty array of rows")
    return _decode_square(rows, field, f"matrix is not square ({len(rows)} rows)")


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError("json", f"{source}: {exc}") from None
    except ValueError:   # int() refuses a literal beyond sys.get_int_max_str_digits()
        raise StateFormatError("json", f"{source}: integer literal has too many digits") from None
    except RecursionError:
        raise StateFormatError("json", f"{source}: arrays or objects nested too deeply") from None


def _read_dims(payload, total: int) -> tuple[int, ...]:
    dims = payload.get("dims")
    if (not isinstance(dims, list) or not dims
            or not all(_is_positive_int(d) for d in dims)):
        raise StateFormatError("dims", "expected an array of positive integers")
    product = math.prod(dims)
    if product != total:
        raise StateFormatError("dims", f"product {product} does not match dimension {total}")
    return tuple(dims)


class LoadedState(NamedTuple):
    dims: tuple[int, ...]
    density: np.ndarray
    amplitudes: np.ndarray | None


def parse_state(text: str, source: str = "state") -> LoadedState:
    payload = _parse_json(text, source)
    if not isinstance(payload, dict):
        raise StateFormatError("json", f"{source}: top level must be an object")
    if "matrix" in payload and "amplitudes" in payload:
        raise StateFormatError("matrix", "give either matrix or amplitudes, not both")
    if "amplitudes" in payload:
        amps = decode_vector(payload["amplitudes"], "amplitudes")
        dims = _read_dims(payload, amps.size)
        try:
            amps = validate_pure(amps)
        except ValueError as exc:
            raise StateFormatError("amplitudes", str(exc)) from None
        return LoadedState(dims, projector(amps), amps)
    if "matrix" in payload:
        m = decode_matrix(payload["matrix"], "matrix")
        dims = _read_dims(payload, m.shape[0])
        try:
            rho = validate_density(m)
        except ValueError as exc:
            raise StateFormatError("matrix", str(exc)) from None
        return LoadedState(dims, rho, None)
    raise StateFormatError("matrix", "missing matrix or amplitudes")


def load_state(path: str) -> LoadedState:
    with open(path, encoding="utf-8") as fh:
        return parse_state(fh.read(), path)


def state_payload(dims, matrix: np.ndarray | None = None,
                  amplitudes: np.ndarray | None = None) -> dict:
    payload: dict = {"dims": [int(d) for d in dims]}
    if amplitudes is not None:
        payload["amplitudes"] = encode_vector(amplitudes)
    elif matrix is not None:
        payload["matrix"] = encode_matrix(matrix)
    else:
        raise ValueError("need matrix or amplitudes")
    return payload


def save_state(path: str, dims, matrix: np.ndarray | None = None,
               amplitudes: np.ndarray | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(state_payload(dims, matrix, amplitudes)))


def parse_observable(text: str, source: str = "basis",
                     state_dim: int | None = None) -> ReferenceObservable:
    """The reference observable of a basis file; a state_dim given must equal
    the file's dim, which is checked before anything of that size is built."""
    payload = _parse_json(text, source)
    if not isinstance(payload, dict):
        raise StateFormatError("json", f"{source}: top level must be an object")
    dim = payload.get("dim")
    if not _is_positive_int(dim):
        raise StateFormatError("dim", "expected a positive integer")
    if state_dim is not None and dim != state_dim:
        raise StateFormatError(
            "dim", f"basis dimension {dim} does not match state dimension {state_dim}")
    if "basis" not in payload:
        return ReferenceObservable.computational(dim)
    rows = payload["basis"]
    if not isinstance(rows, list) or len(rows) != dim:
        raise StateFormatError("basis", f"expected {dim} basis vectors")
    vectors = _decode_square(rows, "basis", "basis vector length does not match dim")
    try:
        return ReferenceObservable(vectors.T)
    except ValueError as exc:
        raise StateFormatError("basis", str(exc)) from None


def load_observable(path: str, state_dim: int | None = None) -> ReferenceObservable:
    with open(path, encoding="utf-8") as fh:
        return parse_observable(fh.read(), path, state_dim)


def report_payload(report: ExperimentReport) -> dict:
    return {
        "experiment": report.name,
        "scalars": {key: float(val) for key, val in report.scalars.items()},
        "states": {
            name: {"dims": [int(d) for d in state.dims],
                   "matrix": encode_matrix(state.matrix)}
            for name, state in report.states.items()
        },
    }


# Rows formatted per write. A whole 1024-row sweep block at once would hold
# about 0.7 MB of Python floats and text, more than the peak of writing row by row.
_CSV_ROWS_PER_WRITE = 128


def write_csv(path: str, header: list[str], tables) -> None:
    """Write a CSV file from a header and an iterable of float tables.

    Each table is a 2-d real array (rows x columns) with one column per
    header field. A table is formatted with one row template, FLOAT_FORMAT
    per field, and written in runs of up to 128 rows; its fields read as
    format_float would write them. No header field or formatted float holds
    a comma, a quote or a line break, so nothing is quoted. A complex table
    is refused with TypeError, as format_float refuses a complex number.

    The tables go to a temporary file next to path, which replaces path only
    once every table is written. If writing or producing a table fails, the
    temporary file is removed, and path is neither created nor changed.
    """
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for table in tables:
                if np.iscomplexobj(table):
                    raise TypeError("CSV tables must be real, got a complex table")
                row = ",".join([FLOAT_FORMAT] * table.shape[1]) + "\n"
                for start in range(0, len(table), _CSV_ROWS_PER_WRITE):
                    chunk = table[start:start + _CSV_ROWS_PER_WRITE].tolist()
                    fh.write("".join([row % tuple(values) for values in chunk]))
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise
