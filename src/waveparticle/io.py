"""JSON/CSV serialization with deterministic formatting.

Complex entries are stored as [re, im] pairs and matrices as row-major
arrays of rows. Floats are always rendered with 17 significant digits in
scientific notation, as the one template FLOAT_FORMAT writes them, so
identical inputs give byte-identical output. A CSV file is written one float
table at a time, each formatted by a vectorized kernel that gives
FLOAT_FORMAT's exact bytes and hands the values outside its range (tiny,
huge, subnormal or not finite) to FLOAT_FORMAT itself.

State and basis files are parsed by orjson, with the cyclic collector
paused, and again by the standard json module whenever orjson refuses the
text or its payload fails the decoders; a text nested more than 64 levels
deep is read by json alone. json's grammar and messages remain the
reference: an accepted file decodes to json's bits, and a refused one gets
json's field and message. A matrix file's state keeps the spectrum its
repair solved, so measures solves it once.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import os
import reprlib
from typing import NamedTuple

import numpy as np

from .channels import ReferenceObservable
from .experiments import ExperimentReport
from .states import _repaired, projector, validate_pure


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


# A malformed entry is echoed in at most _ECHO_CHARS characters, ending in
# "..." when cut. reprlib goes no deeper or further into it than those can
# show, so an entry nested hundreds of levels deep costs no deep recursion.
_ECHO_CHARS = 80
_ECHO = reprlib.Repr()
_ECHO.maxlevel = _ECHO.maxlist = _ECHO.maxdict = _ECHO.maxstring = _ECHO.maxlong = \
    _ECHO.maxother = _ECHO_CHARS


def _echo(entry) -> str:
    text = _ECHO.repr(entry)
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS - 3] + "..."


def _decode_pair(entry, field: str) -> complex:
    # bool is an int subclass, but JSON true/false are not numbers
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not (isinstance(entry[0], (int, float)) and isinstance(entry[1], (int, float)))
            or isinstance(entry[0], bool) or isinstance(entry[1], bool)):
        raise StateFormatError(field, f"expected a [re, im] pair, got {_echo(entry)}")
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


def _parse_json(text: str, source: str) -> dict:
    """The JSON object of a state or basis file; any other top level is refused."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError("json", f"{source}: {exc}") from None
    except ValueError:   # int() refuses a literal beyond sys.get_int_max_str_digits()
        raise StateFormatError("json", f"{source}: integer literal has too many digits") from None
    except RecursionError:
        raise StateFormatError("json", f"{source}: arrays or objects nested too deeply") from None
    if not isinstance(payload, dict):
        raise StateFormatError("json", f"{source}: top level must be an object")
    return payload


# orjson builds its Python objects recursively, and a text nested tens of
# thousands of levels deep overflows the C stack: with an 8 MB stack, orjson
# 3.8.3 segfaults on 60000 nested objects. A state or basis file nests 4 deep.
_ORJSON_MAX_DEPTH = 64
# every byte but the brackets, the quote and the backslash
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"\\')))
_DEPTH_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")


def _shallow(text: str) -> bool:
    """Whether the arrays and objects of a JSON text nest at most
    _ORJSON_MAX_DEPTH deep, counting the brackets outside its strings. A
    backslash or an unpaired quote leaves the strings unknown, and gives False."""
    marks = text.encode("utf-8", "surrogatepass").translate(None, _NOT_STRUCTURE)
    if b"\\" in marks or marks.count(b'"') % 2:
        return False
    steps = b"".join(marks.split(b'"')[::2]).translate(_DEPTH_STEPS)
    return bool(np.frombuffer(steps, np.int8).cumsum().max(initial=0) <= _ORJSON_MAX_DEPTH)


def _decoded(text: str, source: str, decode):
    """decode(payload) of a file's JSON object, with json's result or error.

    orjson's payload of a shallow text is kept when it is an object that
    decode accepts; otherwise json reads the text and decode runs on that.
    Where the two parsers differ, orjson refuses the text (NaN, Infinity,
    numbers beyond the float range, lone surrogates) or reads an integer
    beyond 64 bits as a float, which decode refuses: dims and dim must be
    integers, and no entry of a state or basis is that large.

    The cyclic collector is paused while orjson's payload lives: a d = 128
    file is some 16000 small lists, enough allocations to set off full
    collections that find no cycle. The payload is dropped before the
    caller's setting is restored, so the allocation count falls back first.
    """
    if _shallow(text):
        import orjson   # deferred: it imports datetime, uuid and zoneinfo
        collecting = gc.isenabled()
        gc.disable()
        try:
            try:
                payload = orjson.loads(text)
            except orjson.JSONDecodeError:
                payload = None
            if isinstance(payload, dict):
                try:
                    return decode(payload)
                except StateFormatError:
                    pass
        finally:
            payload = None
            if collecting:
                gc.enable()
    return decode(_parse_json(text, source))


def _read_dims(payload, total: int) -> tuple[int, ...]:
    dims = payload.get("dims")
    if (not isinstance(dims, list) or not dims
            or not all(_is_positive_int(d) for d in dims)):
        raise StateFormatError("dims", "expected an array of positive integers")
    product = math.prod(dims)
    if product != total:
        raise StateFormatError("dims", f"product {product} does not match dimension {total}")
    return tuple(dims)


def _check_modulus(values: np.ndarray, field: str) -> None:
    """Refuse a finite entry of modulus above 2 before any arithmetic on it.

    No entry of a density matrix or of a unit vector exceeds 1 in modulus,
    and a huge one would overflow in the checks that follow. NaN and inf are
    left to those checks, which name them.
    """
    with np.errstate(over="ignore"):   # the modulus of huge parts is inf
        big = np.isfinite(values) & (np.abs(values) > 2.0)
    if big.any():
        raise StateFormatError(field, f"entry {np.argwhere(big)[0].tolist()} has modulus "
                                      "above 2; no entry of a state exceeds 1")


class LoadedState(NamedTuple):
    dims: tuple[int, ...]
    density: np.ndarray
    # a matrix file's repair: the ascending spectrum of density and eigh's
    # eigenvectors it was rebuilt from; None for an amplitude file
    spectrum: tuple[np.ndarray, np.ndarray] | None


def _state(payload: dict) -> LoadedState:
    if "matrix" in payload and "amplitudes" in payload:
        raise StateFormatError("matrix", "give either matrix or amplitudes, not both")
    if "amplitudes" in payload:
        amps = decode_vector(payload["amplitudes"], "amplitudes")
        dims = _read_dims(payload, amps.size)
        _check_modulus(amps, "amplitudes")
        try:
            amps = validate_pure(amps)
        except ValueError as exc:
            raise StateFormatError("amplitudes", str(exc)) from None
        return LoadedState(dims, projector(amps), None)
    if "matrix" in payload:
        m = decode_matrix(payload["matrix"], "matrix")
        dims = _read_dims(payload, m.shape[0])
        _check_modulus(m, "matrix")
        try:
            rho, lam, v = _repaired(m)
        except ValueError as exc:
            raise StateFormatError("matrix", str(exc)) from None
        return LoadedState(dims, rho, (lam, v))
    raise StateFormatError("matrix", "missing matrix or amplitudes")


def parse_state(text: str, source: str = "state") -> LoadedState:
    return _decoded(text, source, _state)


def _read(path: str) -> str:
    """A state or basis file's text; one that is not UTF-8 is malformed JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise StateFormatError("json", f"{path}: {exc}") from None


def load_state(path: str) -> LoadedState:
    return parse_state(_read(path), path)


def _observable(payload: dict, state_dim: int | None) -> ReferenceObservable:
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


def parse_observable(text: str, source: str = "basis",
                     state_dim: int | None = None) -> ReferenceObservable:
    """The reference observable of a basis file; a state_dim given must equal
    the file's dim, which is checked before anything of that size is built."""
    return _decoded(text, source, lambda payload: _observable(payload, state_dim))


def load_observable(path: str, state_dim: int | None = None) -> ReferenceObservable:
    return parse_observable(_read(path), path, state_dim)


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


# Rows formatted per write. The formatting kernel holds about 190 bytes of
# arrays per value, so a whole 1024-row block of 14 columns would take 2.7 MB.
_CSV_ROWS_PER_WRITE = 128

# The kernel below writes FLOAT_FORMAT's exact bytes for finite |x| in
# (1e-6, 1e17) and for +-0. With k = floor(log10|x|) and p = 16 - k in
# [0, 22], 10**p is an exact double (5**22 < 2**53), so Dekker's two-product
# of |x| and 10**p, built from halves of at most 26 significant bits, gives
# |x| * 10**p = hi + lo exactly in binary64. That product lies in
# [1e16, 1e17), so hi >= 2**53 is an even integer, and hi + rint(lo) rounds
# half to even exactly as '%' rounds the 17th digit. Any other value is
# formatted by FLOAT_FORMAT itself.
_POW10 = np.array([10 ** p for p in range(23)], dtype=float)
# the widest field, -1.7976931348623157e+308, and its separator; the NULs
# padding a field are stripped from the text
_CELL = 25


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split v = high + low, each of at most 26 significant bits."""
    t = v * 134217729.0   # 2**27 + 1
    high = t - (t - v)
    return high, v - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)
# the 4-byte text "0000" ... "9999" of each group of four digits, as one uint32
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()
# "e-06" ... "e+16", indexed by the decimal exponent plus 6
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-6, 17)),
                           dtype=np.uint8).reshape(-1, 4)


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**p as hi + lo, exactly: Dekker's two-product."""
    hi = a * _POW10[p]
    a_high, a_low = _split(a)
    c_high, c_low = _POW10_HIGH[p], _POW10_LOW[p]
    return hi, ((a_high * c_high - hi) + a_high * c_low + a_low * c_high) + a_low * c_low


def _format_rows(table: np.ndarray) -> bytes:
    """The CSV lines of a 2-d float array, each field as FLOAT_FORMAT writes it."""
    rows, columns = table.shape
    x = table.ravel()
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)
    zero = a == 0
    a[~fast] = 1.0
    p = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    hi, lo = _scaled(a, p)
    # next to a power of ten the guess of k can be one off; the exact product
    # then lies below 1e16 or at or above 1e17, and one step of p mends it
    wrong = ((hi < 1e16) | (hi > 1e17) | ((hi == 1e16) & (lo < 0))
             | ((hi == 1e17) & (lo >= 0)))
    if wrong.any():
        p[wrong] += np.where(hi[wrong] > 1e16, -1, 1)
        hi[wrong], lo[wrong] = _scaled(a[wrong], p[wrong])
    # the 17 digits never round up to 10**17 here: that needs a double within
    # 5e-18 (relative) below a power of ten, and none in this range is so close
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    digits[zero] = 0
    exponent = 16 - p
    quads = np.empty((x.size, 4), dtype=np.int64)   # the 16 digits after the point
    lead = digits
    for j in (3, 2, 1, 0):   # division by a scalar, which numpy does fast
        higher = lead // 10 ** 4
        quads[:, j] = lead - higher * 10 ** 4
        lead = higher
    cells = np.zeros((x.size, _CELL), dtype=np.uint8)
    cells[:, 0] = np.signbit(x) * ord("-")
    cells[:, 1] = lead + ord("0")
    cells[:, 2] = ord(".")
    cells[:, 3:19] = _DIGITS4.take(quads).view(np.uint8).reshape(-1, 16)
    cells[:, 19:23] = _EXPONENTS[exponent + 6]
    other = np.flatnonzero(~(fast | zero))
    if other.size:
        text = b"".join((FLOAT_FORMAT % v).encode().ljust(_CELL - 1, b"\0")
                        for v in x[other].tolist())
        cells[other, :-1] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _CELL - 1)
    separators = np.full(columns, ord(","), dtype=np.uint8)
    separators[-1:] = ord("\n")
    cells.reshape(rows, columns, _CELL)[..., -1] = separators
    return cells.tobytes().translate(None, b"\0")


def write_csv(path: str, header: list[str], tables) -> None:
    """Write a CSV file from a header and an iterable of float tables.

    Each table is a 2-d real array (rows x columns) with one column per
    header field; an integer table is written as its float values. A table
    is formatted in runs of up to 128 rows by one vectorized kernel, whose
    fields are byte for byte those of format_float: exact digits for finite
    |x| in (1e-6, 1e17) and +-0, FLOAT_FORMAT itself for every other value.
    No header field or formatted float holds a comma, a quote or a line
    break, so nothing is quoted. A complex table is refused with TypeError,
    as format_float refuses a complex number.

    The tables go to a temporary file next to path, which replaces path only
    once every table is written. If writing or producing a table fails, the
    temporary file is removed, and path is neither created nor changed. An
    OSError on the temporary file names path.
    """
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            for table in tables:
                if np.iscomplexobj(table):
                    raise TypeError("CSV tables must be real, got a complex table")
                table = np.asarray(table, dtype=float)
                for start in range(0, len(table), _CSV_ROWS_PER_WRITE):
                    fh.write(_format_rows(table[start:start + _CSV_ROWS_PER_WRITE]))
        os.replace(temporary, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        if isinstance(exc, OSError) and exc.filename == temporary:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
