"""Boundary fuzz of the command line.

Whatever the input (mutated state and basis files, arbitrary JSON, extreme
finite flag values), cli.main exits 0 or 2; exit 2 prints nothing to stdout
and exactly one 'error:' line to stderr, and no call raises a RuntimeWarning.
The examples are derandomized and bounded: the four tests take about 2.5 s together.
"""

import contextlib
import copy
import io as text_io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveparticle import cli

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

S = 2 ** -0.5
VALID_STATES = [
    {"dims": [2], "amplitudes": [[S, 0.0], [0.0, S]]},
    {"dims": [2], "matrix": [[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.5, 0.0]]]},
    {"dims": [2, 2], "amplitudes": [[S, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, S]]},
    {"dims": [2, 2], "matrix": [[[0.4, 0], [0, 0], [0, 0], [0.1, 0.05]],
                                [[0, 0], [0.1, 0], [0, 0], [0, 0]],
                                [[0, 0], [0, 0], [0.1, 0], [0, 0]],
                                [[0.1, -0.05], [0, 0], [0, 0], [0.4, 0]]]},
    {"dims": [2, 2, 2], "amplitudes": [[S, 0.0]] + [[0.0, 0.0]] * 6 + [[0.0, S]]},
    {"dims": [3, 2], "matrix": [[[0.3, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0.05, 0.02]],
                                [[0, 0], [0.2, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
                                [[0, 0], [0, 0], [0.1, 0], [0, 0], [0, 0], [0, 0]],
                                [[0, 0], [0, 0], [0, 0], [0.1, 0], [0, 0], [0, 0]],
                                [[0, 0], [0, 0], [0, 0], [0, 0], [0.2, 0], [0, 0]],
                                [[0.05, -0.02], [0, 0], [0, 0], [0, 0], [0, 0], [0.1, 0]]]},
]
# a Hadamard basis for the qubit states, the Bell basis for the two-qubit ones,
# a cyclic shift of the computational basis in dimension 6, and the Sylvester
# Hadamard basis, entries +-8^-1/2, in dimension 8
VALID_BASES = {
    2: {"dim": 2, "basis": [[[S, 0], [S, 0]], [[S, 0], [-S, 0]]]},
    4: {"dim": 4, "basis": [[[S, 0], [0, 0], [0, 0], [S, 0]], [[S, 0], [0, 0], [0, 0], [-S, 0]],
                            [[0, 0], [S, 0], [S, 0], [0, 0]], [[0, 0], [S, 0], [-S, 0], [0, 0]]]},
    6: {"dim": 6, "basis": [[[int(j == (k + 1) % 6), 0] for j in range(6)] for k in range(6)]},
    8: {"dim": 8, "basis": [[[8 ** -0.5 * (-1) ** bin(k & j).count("1"), 0] for j in range(8)]
                            for k in range(8)]},
}

# finite doubles where arithmetic overflows, underflows or loses every digit
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-16,
            0.9999999999999999, 1.0000000000000002, 2.0, 1e15, 1e16, 1e154, 1e200,
            1e300, 1.7976931348623157e308, -1.7976931348623157e308, -1e308, -1e200]
FINITE = st.sampled_from(EXTREMES) | st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = (FINITE | st.floats() | st.integers(-2 ** 70, 2 ** 70) | st.booleans()
           | st.none())
KEYS = st.sampled_from(["dims", "amplitudes", "matrix", "dim", "basis"]) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    NUMBERS | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children,
                                                                      max_size=4),
    max_leaves=16)


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, document):
    """document with one to three nodes replaced or deleted, as JSON text,
    sometimes cut short."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(NUMBERS | JSON_VALUES)
        else:
            del parent[path[-1]]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def run_main(argv):
    """cli.main(argv) with RuntimeWarnings as errors; checks the exit contract."""
    out, err = text_io.StringIO(), text_io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ") \
            and lines[0].endswith("\n"), (argv, err.getvalue())
    else:
        assert (code, err.getvalue()) == (0, ""), (argv, err.getvalue())
    return code


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def written(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def q_flag(q):
    return [] if q is None else [f"--q={q!r}"]


@FUZZ
@given(data=st.data(), q=st.none() | FINITE)
def test_measures_on_mutated_state_files(folder, data, q):
    text = data.draw(st.sampled_from(VALID_STATES).flatmap(mutated)
                     | JSON_VALUES.map(json.dumps))
    run_main(["measures", written(folder / "state.json", text), *q_flag(q)])


@FUZZ
@given(data=st.data(), state=st.sampled_from(VALID_STATES), q=st.none() | FINITE)
def test_measures_on_mutated_basis_files(folder, data, state, q):
    dim = math.prod(state["dims"])
    text = data.draw(mutated(VALID_BASES[dim]) | JSON_VALUES.map(json.dumps))
    run_main(["measures", written(folder / "valid.json", json.dumps(state)),
              "--basis", written(folder / "basis.json", text), *q_flag(q)])


FLOAT_FLAGS = ["--phi", "--bs2-alpha", "--x", "--eta", "--amp-alpha-re", "--amp-alpha-im",
               "--amp-beta-re", "--amp-beta-im"]
SWEEPS = [(name, param) for name, scenario in cli.SCENARIOS.items()
          for param in scenario.sweepable]


@FUZZ
@given(name=st.sampled_from(sorted(cli.SCENARIOS)),
       flags=st.dictionaries(st.sampled_from(FLOAT_FLAGS), FINITE, max_size=4),
       click=st.none() | st.integers(-3, 3) | st.integers(-2 ** 70, 2 ** 70),
       q=st.none() | FINITE)
def test_experiment_with_extreme_flags(name, flags, click, q):
    argv = ["experiment", name, *(f"{flag}={value!r}" for flag, value in flags.items())]
    run_main(argv + ([] if click is None else [f"--click={click}"]) + q_flag(q))


@FUZZ
@given(sweep=st.sampled_from(SWEEPS), start=FINITE, stop=FINITE, steps=st.integers(2, 5),
       flags=st.dictionaries(st.sampled_from(FLOAT_FLAGS), FINITE, max_size=3),
       q=st.none() | FINITE)
@example(sweep=("mzi", "phi"), start=-1e308, stop=1e308, steps=3, flags={}, q=None)
@example(sweep=("wave-detector", "x"), start=-1e308, stop=1e308, steps=3, flags={}, q=None)
@example(sweep=("mzi", "phi"), start=-1.7976931348623157e308, stop=0.0, steps=4, flags={},
         q=None)
def test_sweep_with_extreme_bounds(folder, sweep, start, stop, steps, flags, q):
    name, param = sweep
    out = folder / "sweep.csv"
    out.unlink(missing_ok=True)
    argv = ["sweep", name, "--param", param, f"--start={start!r}", f"--stop={stop!r}",
            f"--steps={steps}", f"--out={out}",
            *(f"{flag}={value!r}" for flag, value in flags.items()), *q_flag(q)]
    code = run_main(argv)
    assert out.exists() == (code == 0)
