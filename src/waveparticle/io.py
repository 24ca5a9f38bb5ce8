"""JSON/CSV serialization with deterministic formatting.

Complex entries are stored as [re, im] pairs and matrices as row-major
arrays of rows. Floats are always rendered with 17 significant digits in
scientific notation so identical inputs give byte-identical output.
"""

from __future__ import annotations

import csv
import json
from typing import NamedTuple

import numpy as np

from .channels import ReferenceObservable
from .experiments import ExperimentReport
from .states import validate_density, validate_pure


class StateFormatError(ValueError):
    """Malformed state, basis, or report file; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field {field!r}: {message}")


def format_float(x: float) -> str:
    return f"{float(x):.16e}"


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
    return complex(entry[0], entry[1])


def decode_vector(entries, field: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise StateFormatError(field, "expected a nonempty array of [re, im] pairs")
    return np.array([_decode_pair(e, field) for e in entries], dtype=complex)


def decode_matrix(rows, field: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise StateFormatError(field, "expected a nonempty array of rows")
    decoded = [decode_vector(row, field) for row in rows]
    dim = len(decoded)
    if any(row.size != dim for row in decoded):
        raise StateFormatError(field, f"matrix is not square ({dim} rows)")
    return np.array(decoded, dtype=complex)


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError("json", f"{source}: {exc}") from None


def _read_dims(payload, total: int) -> tuple[int, ...]:
    dims = payload.get("dims")
    if (not isinstance(dims, list) or not dims
            or not all(_is_positive_int(d) for d in dims)):
        raise StateFormatError("dims", "expected an array of positive integers")
    product = int(np.prod(dims))
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
        rho = np.outer(amps, amps.conj())
        return LoadedState(dims, rho, amps)
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


def parse_observable(text: str, source: str = "basis") -> ReferenceObservable:
    payload = _parse_json(text, source)
    if not isinstance(payload, dict):
        raise StateFormatError("json", f"{source}: top level must be an object")
    dim = payload.get("dim")
    if not _is_positive_int(dim):
        raise StateFormatError("dim", "expected a positive integer")
    if "basis" not in payload:
        return ReferenceObservable.computational(dim)
    rows = payload["basis"]
    if not isinstance(rows, list) or len(rows) != dim:
        raise StateFormatError("basis", f"expected {dim} basis vectors")
    vectors = [decode_vector(row, "basis") for row in rows]
    if any(v.size != dim for v in vectors):
        raise StateFormatError("basis", "basis vector length does not match dim")
    try:
        return ReferenceObservable.from_states(vectors)
    except ValueError as exc:
        raise StateFormatError("basis", str(exc)) from None


def load_observable(path: str) -> ReferenceObservable:
    with open(path, encoding="utf-8") as fh:
        return parse_observable(fh.read(), path)


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


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
