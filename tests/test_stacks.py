"""The stack contract: a stack (..., d, d) or a grid array gives every member
the bits it would get on its own, and a failing member is named by its index."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle import cli, io, measures, nonlocality
from waveparticle.channels import (
    ReferenceObservable,
    dephase,
    populations,
    reduced_from_informer,
)
from waveparticle.experiments import (
    balanced_path_state,
    morphing_scan,
    mzi_run,
    wave_detector_run,
)
from waveparticle.nonlocality import (
    chsh_bruteforce,
    chsh_nl,
    concurrence,
    correlation_matrix,
)
from waveparticle.states import (
    ValidationError,
    hermitian_part,
    projector,
    validate_density,
    validate_pure,
)

AMPS = np.array([0.6, 0.8j], dtype=complex)


def random_two_qubit(rng, rank):
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_full_rank(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return 0.9 * rho / np.trace(rho).real + 0.1 * np.eye(dim) / dim


def random_qubit(rng):
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return amps / np.linalg.norm(amps)


def random_basis(rng, dim):
    return ReferenceObservable(np.linalg.qr(rng.standard_normal((dim, dim))
                                            + 1j * rng.standard_normal((dim, dim)))[0])


def assert_same_bits(stacked, single):
    assert np.asarray(stacked).tobytes() == np.asarray(single).tobytes()


def assert_report_member(report, i, single):
    """Member i of a grid report equals a single-point report bit for bit."""
    assert list(report.scalars) == list(single.scalars)
    assert {key: value[i] for key, value in report.scalars.items()} == single.scalars
    assert report.states.keys() == single.states.keys()
    for name, state in single.states.items():
        assert report.states[name].dims == state.dims
        assert_same_bits(report.states[name].matrix[i], state.matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_two_qubit_stack_matches_per_member_loop(seed, size):
    rng = np.random.default_rng(seed)
    stack = np.array([random_two_qubit(rng, int(rng.integers(1, 5))) for _ in range(size)])
    repaired = validate_density(stack)
    t = correlation_matrix(stack)
    b_max, n_l = chsh_nl(stack)
    conc = concurrence(stack)
    assert conc.shape == b_max.shape == n_l.shape == (size,)
    for i, rho in enumerate(stack):
        assert_same_bits(repaired[i], validate_density(rho))
        assert_same_bits(t[i], correlation_matrix(rho))
        assert (b_max[i], n_l[i]) == chsh_nl(rho)
        assert conc[i] == concurrence(rho)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 6),
       st.sampled_from([1, 2, 7, 200]))
def test_bruteforce_stack_matches_per_member_calls(seed, size, restarts, iterations):
    # I/4 has T = 0: every image has norm 0 and every row keeps its fallback
    rng = np.random.default_rng(seed)
    stack = np.array([random_two_qubit(rng, int(rng.integers(1, 5))) for _ in range(size)]
                     + [np.eye(4, dtype=complex) / 4])
    kwargs = {"restarts": restarts, "iterations": iterations, "seed": seed % 5}
    values = chsh_bruteforce(stack, **kwargs)
    assert values.shape == (size + 1,)
    for i, rho in enumerate(stack):
        single = chsh_bruteforce(rho, **kwargs)
        assert type(single) is float
        assert_same_bits(values[i], single)


def test_bruteforce_members_leave_the_ascent_at_their_own_iteration(monkeypatch):
    rng = np.random.default_rng(12)
    bell = projector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    stack = np.array([random_two_qubit(rng, rank) for rank in (1, 2, 3, 4)]
                     + [bell, np.eye(4) / 4]).reshape(2, 3, 4, 4)
    leaving = []
    best_restart = nonlocality._best_restart

    def recording(t, *settings):
        leaving.append(len(t))
        return best_restart(t, *settings)

    monkeypatch.setattr(nonlocality, "_best_restart", recording)
    values = chsh_bruteforce(stack, restarts=5, iterations=1000)
    assert len(leaving) > 2 and sum(leaving) == 6
    assert values.shape == (2, 3)
    monkeypatch.undo()
    for index in np.ndindex(2, 3):
        assert_same_bits(values[index], chsh_bruteforce(stack[index], restarts=5,
                                                        iterations=1000))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(1, 5))
def test_stacked_basis_matches_per_member_loop(seed, dim, size):
    rng = np.random.default_rng(seed)
    stack = np.array([random_full_rank(rng, dim) for _ in range(size)])
    bases = [random_basis(rng, dim) for _ in range(size)]
    obs = ReferenceObservable(np.array([basis.columns for basis in bases]))
    assert obs.dim == dim
    stacked = {"populations": populations(stack, obs), "dephase": dephase(stack, obs)}
    for q in (0.5, 1.0, 2.0):
        stacked.update({(key, q): value for key, value in measures.duality(stack, obs, q).items()})
        stacked["bound", q] = measures.wavelike_upper_bound(stack, obs, q)
    for i, (rho, basis) in enumerate(zip(stack, bases)):
        single = {"populations": populations(rho, basis), "dephase": dephase(rho, basis)}
        for q in (0.5, 1.0, 2.0):
            single.update({(key, q): value
                           for key, value in measures.duality(rho, basis, q).items()})
            single["bound", q] = measures.wavelike_upper_bound(rho, basis, q)
        assert stacked.keys() == single.keys()
        for key, value in single.items():
            assert_same_bits(stacked[key][i], value)
        assert_same_bits(obs.columns[i, :, 1], basis.columns[:, 1])
        assert_same_bits(obs.projector(1)[i], basis.projector(1))


# one order on each side of q = 1 at 1e-6, where ln_q switches to its limit
ORDERS = (0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 3.0)


def random_mixed_rank(rng, dim):
    rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(0, 4))
def test_duality_over_orders_matches_per_order_calls(seed, dim, size):
    """One call over a sequence of orders gives order i the bits of a call at
    that order alone: for one state (size 0), a stack, and stacked bases."""
    rng = np.random.default_rng(seed)
    states = [random_mixed_rank(rng, dim) for _ in range(max(size, 1))]
    rho = np.array(states) if size else states[0]
    observables = [random_basis(rng, dim)]
    if size:
        observables.append(ReferenceObservable(
            np.array([random_basis(rng, dim).columns for _ in range(size)])))
    for obs in observables:
        split = measures.duality(rho, obs, ORDERS)
        for i, q in enumerate(ORDERS):
            single = measures.duality(rho, obs, q)
            assert split.keys() == single.keys()
            for key, value in single.items():
                assert split[key].shape == (len(ORDERS), *np.shape(value))
                assert_same_bits(split[key][i], value)
        for key, values in split.items():
            # continuous through q = 1: one step of 1e-6 moves each value by less than 1e-5
            assert np.max(np.abs(values[[1, 3]] - values[2])) < 1e-5, key


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(0, 4))
def test_bound_over_orders_matches_per_order_calls(seed, dim, size):
    """As for duality: order i of one call gets the bits of a call at that
    order alone, for one state (size 0) and a stack."""
    rng = np.random.default_rng(seed)
    states = [random_full_rank(rng, dim) for _ in range(max(size, 1))]
    rho = np.array(states) if size else states[0]
    obs = random_basis(rng, dim)
    bounds = measures.wavelike_upper_bound(rho, obs, ORDERS)
    assert bounds.shape == (len(ORDERS), *np.shape(rho)[:-2])
    for i, q in enumerate(ORDERS):
        assert_same_bits(bounds[i], measures.wavelike_upper_bound(rho, obs, q))


def test_one_state_pairs_with_every_basis_of_a_stack():
    rng = np.random.default_rng(17)
    rho = random_full_rank(rng, 3)
    bases = [random_basis(rng, 3) for _ in range(4)]
    obs = ReferenceObservable(np.array([basis.columns for basis in bases]))
    orders = (0.5, 1.0, 2.0)
    stacked = {"populations": populations(rho, obs), "dephase": dephase(rho, obs),
               "bound": measures.wavelike_upper_bound(rho, obs, 2.0),
               **{key: value.T for key, value in measures.duality(rho, obs, orders).items()}}
    for i, basis in enumerate(bases):
        single = {"populations": populations(rho, basis), "dephase": dephase(rho, basis),
                  "bound": measures.wavelike_upper_bound(rho, basis, 2.0),
                  **measures.duality(rho, basis, orders)}
        assert stacked.keys() == single.keys()
        for key, value in single.items():
            assert_same_bits(stacked[key][i], value)


def test_stacked_basis_names_bad_member():
    bases = np.array([np.eye(2, dtype=complex)] * 3)
    bases[1, 0, 1] = 1.0
    with pytest.raises(ValidationError, match=re.escape(
            "basis [1] is not orthonormal: max |U^H U - 1| = 1.000e+00 exceeds 1.0e-09")):
        ReferenceObservable(bases)
    with pytest.raises(ValidationError, match=re.escape(
            "basis is not orthonormal: max |U^H U - 1| = 1.000e+00 exceeds 1.0e-09")):
        ReferenceObservable(bases[1])


def test_bound_names_member_that_is_not_full_rank():
    stack = np.array([np.eye(2) / 2, np.diag([1.0, 0.0]), np.eye(2) / 2], dtype=complex)
    obs = ReferenceObservable.computational(2)
    with pytest.raises(ValueError, match=re.escape(
            "state [1] must be full rank for order q = 1.0: min eigenvalue 0.000e+00")):
        measures.wavelike_upper_bound(stack, obs, 1.0)
    with pytest.raises(ValueError, match=re.escape(
            "state must be full rank for order q = 1.0: min eigenvalue 0.000e+00")):
        measures.wavelike_upper_bound(stack[1], obs, 1.0)
    assert measures.wavelike_upper_bound(stack, obs, 2.0).shape == (3,)
    # in a sequence, the first order at or below 1 is named
    with pytest.raises(ValueError, match=re.escape(
            "state [1] must be full rank for order q = 1.0: min eigenvalue 0.000e+00")):
        measures.wavelike_upper_bound(stack, obs, (2.0, 1.0, 0.5))
    assert measures.wavelike_upper_bound(stack, obs, (2.0, 3.0)).shape == (2, 3)


def test_bound_over_orders_solves_once(monkeypatch):
    rng = np.random.default_rng(5)
    rho, obs = random_full_rank(rng, 3), random_basis(rng, 3)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    measures.wavelike_upper_bound(rho, obs, (0.5, 1.0, 2.0))
    assert calls == [(3, 3)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_grid_runs_match_single_point_runs(seed, size):
    rng = np.random.default_rng(seed)
    amps = random_qubit(rng)
    # exact ends of the ranges as well as interior draws
    values = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size)])
    phis = np.concatenate([[0.0, np.pi], rng.uniform(-10.0, 10.0, size)])
    wave = wave_detector_run(values, amps)
    morph = morphing_scan(amps, values)
    for i, value in enumerate(values):
        assert_report_member(wave, i, wave_detector_run(float(value), amps))
        assert_report_member(morph, i, morphing_scan(amps, float(value)))
    for bs2 in ("present", "absent"):
        grid = mzi_run(phis, bs2)
        for i, phi in enumerate(phis):
            assert_report_member(grid, i, mzi_run(float(phi), bs2))


def test_balanced_path_state_stack_matches_scalar_calls():
    # signed zeros, a tiny and a huge phase, and seeded draws, in a 2-d grid too
    phases = np.concatenate([[0.0, -0.0, np.pi, 1e-300, 1e300],
                             np.random.default_rng(2718).uniform(-20.0, 20.0, 40)])
    stack = balanced_path_state(phases)
    assert stack.shape == (phases.size, 2)
    for phi, member in zip(phases, stack):
        assert_same_bits(member, balanced_path_state(float(phi)))
    assert_same_bits(balanced_path_state(phases.reshape(5, 9)), stack.reshape(5, 9, 2))


def test_gram_stack_matches_per_member_loop():
    etas = np.linspace(0.0, 1.0, 5)
    grams = np.ones((5, 2, 2), dtype=complex)
    grams[:, 0, 1] = etas * np.exp(0.3j)
    grams[:, 1, 0] = etas * np.exp(-0.3j)
    stack = reduced_from_informer(AMPS, grams)
    for i, gram in enumerate(grams):
        assert_same_bits(stack[i], reduced_from_informer(AMPS, gram))


def test_single_inputs_return_floats():
    rho = random_two_qubit(np.random.default_rng(1), 4)
    assert all(type(value) is float for value in (*chsh_nl(rho), concurrence(rho)))
    assert correlation_matrix(rho).shape == (3, 3)


def with_member(entry, value, member=1, size=3):
    stack = np.array([np.eye(4, dtype=complex) / 4] * size)
    stack[(member, *entry)] = value
    return stack


@pytest.mark.parametrize("function,name", [
    (correlation_matrix, "two-qubit state"),
    (chsh_nl, "two-qubit state"),
    (concurrence, "two-qubit state"),
    (hermitian_part, "matrix"),
    (validate_density, "density matrix"),
])
@pytest.mark.parametrize("member", [0, 2])
def test_bad_member_named_by_index(function, name, member):
    with pytest.raises(ValidationError, match=re.escape(f"{name} [{member}] is not Hermitian")):
        function(with_member((0, 1), 0.3, member))
    with pytest.raises(ValidationError, match=re.escape(
            f"{name} [{member}] has non-finite entries at [(2, 3)]")):
        function(with_member((2, 3), np.nan, member))


def test_two_axis_stack_names_member_by_both_indices():
    stack = np.array([np.eye(4, dtype=complex) / 4] * 6).reshape(2, 3, 4, 4)
    for function, name in ((hermitian_part, "matrix"), (validate_density, "density matrix")):
        bad = stack.copy()
        bad[1, 2, 0, 1] = 0.3
        with pytest.raises(ValidationError, match=re.escape(f"{name} [1, 2] is not Hermitian")):
            function(bad)
        bad[1, 2, 0, 1] = np.nan
        with pytest.raises(ValidationError, match=re.escape(
                f"{name} [1, 2] has non-finite entries at [(0, 1)]")):
            function(bad)
    bad = stack.copy()
    bad[1, 2, 0, 0] = 0.75
    with pytest.raises(ValidationError, match=re.escape(
            "state [1, 2] is not a density matrix: eigenvalues sum to 1.5, "
            "smallest 2.500e-01 (tolerance 1.0e-09)")):
        validate_density(bad)


def test_density_stack_names_bad_trace_and_negative_eigenvalue():
    with pytest.raises(ValidationError, match=re.escape(
            "state [1] is not a density matrix: eigenvalues sum to 1.5, "
            "smallest 2.500e-01 (tolerance 1.0e-09)")):
        validate_density(with_member((0, 0), 0.75))
    stack = with_member((0, 0), -0.25, member=2)
    stack[2, 1, 1] = 0.75
    with pytest.raises(ValidationError, match=re.escape(
            "state [2] is not a density matrix: eigenvalues sum to 1.0, "
            "smallest -2.500e-01 (tolerance 1.0e-09)")):
        validate_density(stack)


def test_gram_stack_names_bad_member():
    grams = np.array([np.eye(2, dtype=complex)] * 3)
    grams[1, 0, 1] = grams[1, 1, 0] = 1.5
    with pytest.raises(ValidationError, match=re.escape(
            "Gram matrix [1] is not positive semidefinite: eigenvalue -5.000e-01")):
        reduced_from_informer(AMPS, grams)
    grams[1] = np.diag([1.0, 0.5])
    with pytest.raises(ValidationError, match=re.escape("Gram diagonal [1] deviates from 1")):
        reduced_from_informer(AMPS, grams)
    with pytest.raises(ValidationError, match=re.escape(
            "Gram matrix shape (3, 3, 3) does not match 2 branches")):
        reduced_from_informer(AMPS, np.zeros((3, 3, 3)))


def test_single_state_functions_reject_stacks():
    with pytest.raises(ValidationError, match=re.escape(
            "amplitude vector must be 1-d and nonempty, got shape (2, 2)")):
        validate_pure(np.eye(2))
    with pytest.raises(ValidationError, match=re.escape(
            "two-qubit state must be 4x4, got shape (3, 3)")):
        chsh_nl(np.eye(3))


@pytest.mark.parametrize("make,message", [
    (lambda grid: wave_detector_run(grid, AMPS), "mixing weight x = {} outside [0, 1]"),
    (lambda grid: morphing_scan(AMPS, grid), "overlap eta = {} outside [0, 1]"),
])
@pytest.mark.parametrize("grid,first", [
    ([0.2, 1.5, -1.0], "1.5"),
    ([0.0, -0.25, 2.0], "-0.25"),
    ([0.5, np.nan], "nan"),
])
def test_grid_names_first_out_of_range_value(make, message, grid, first):
    with pytest.raises(ValidationError, match=re.escape(message.format(first))):
        make(np.array(grid))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name,param,label", [
    ("wave-detector", "x", "mixing weight x"),
    ("morphing", "eta", "overlap eta"),
])
def test_sweep_out_of_range_grid_exits_2_and_writes_nothing(capsys, tmp_path, name, param, label):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, "sweep", name, "--param", param, "--start", "0",
                             "--stop", "2", "--steps", "5", "--eta", "0.5",
                             "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"error: {label} = 1.5 outside [0, 1]\n"
    assert list(tmp_path.iterdir()) == []


SWEEPS = [
    pytest.param("wave-detector", "x", lambda value: wave_detector_run(value, AMPS),
                 [], id="wave-detector"),
    pytest.param("morphing", "eta", lambda value: morphing_scan(AMPS, value), [], id="morphing"),
    pytest.param("mzi", "phi", mzi_run, [], id="mzi"),
    pytest.param("mzi", "phi", lambda value: mzi_run(value, "absent"),
                 ["--bs2", "absent"], id="mzi-absent"),
]


def assemble_csv(param, grid, run, q):
    """The CSV a sweep must write, from one scalar call per grid point."""
    lines = []
    for value in grid:
        report = run(float(value))
        scalars = dict(report.scalars)
        if q is not None:
            principal = cli.SCENARIOS[report.name].principal_state
            split = measures.duality(report.states[principal].matrix,
                                     ReferenceObservable.computational(2), q)
            scalars.update(q=q, wavelike_q=split["wavelike"],
                           particlelike_q=split["particlelike"])
        if not lines:
            lines.append(",".join([param, *scalars]))
        lines.append(",".join(io.format_float(v) for v in [value, *scalars.values()]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("q", [None, 1.5])
@pytest.mark.parametrize("name,param,run,flags", SWEEPS)
def test_sweep_csv_equals_scalar_calls(capsys, tmp_path, name, param, run, flags, q):
    out_path = tmp_path / "sweep.csv"
    start, stop = (-1.0, 7.0) if param == "phi" else (0.0, 1.0)
    argv = ["sweep", name, "--param", param, "--start", repr(start), "--stop", repr(stop),
            "--steps", "13", "--amp-alpha-re", "0.6", "--amp-beta-im", "0.8",
            "--out", str(out_path), *flags, *(["--q", repr(q)] if q else [])]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (0, f"wrote 13 rows to {out_path}\n"), err
    expected = assemble_csv(param, np.linspace(start, stop, 13), run, q)
    assert out_path.read_text(encoding="utf-8") == expected


def counting_scenarios(monkeypatch):
    calls = []
    for name, scenario in cli.SCENARIOS.items():
        def run(args, inner=scenario.run, name=name):
            calls.append(name)
            return inner(args)
        monkeypatch.setitem(cli.SCENARIOS, name, scenario._replace(run=run))
    return calls


@pytest.mark.parametrize("name,param", [
    (name, param) for name, scenario in cli.SCENARIOS.items()
    for param in scenario.sweepable])
def test_sweep_is_one_call_per_block_and_blocks_are_seamless(
        capsys, tmp_path, monkeypatch, name, param):
    steps = cli.SWEEP_BLOCK + 3
    argv = ["sweep", name, "--param", param, "--start", "0", "--stop", "1",
            "--steps", str(steps), "--bs2-alpha", "0.5", "--eta", "0.5"]
    calls = counting_scenarios(monkeypatch)
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "blocks.csv"))
    assert code == 0, err
    assert calls == [name, name]
    monkeypatch.setattr(cli, "SWEEP_BLOCK", steps)
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "one.csv"))
    assert code == 0, err
    assert calls == [name] * 3
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_bad_value_in_last_block_leaves_existing_file_untouched(capsys, tmp_path):
    steps = cli.SWEEP_BLOCK + 3
    stop = 1.0015
    grid = np.linspace(0.0, stop, steps)
    first_bad = int(np.argmax(grid > 1.0))
    assert first_bad >= cli.SWEEP_BLOCK     # the first block is fine
    out_path = tmp_path / "wd.csv"
    out_path.write_text("keep\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "wave-detector", "--param", "x",
                             "--start", "0", "--stop", repr(stop), "--steps", str(steps),
                             "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"error: mixing weight x = {float(grid[first_bad])!r} outside [0, 1]\n"
    assert out_path.read_text(encoding="utf-8") == "keep\n"
    assert list(tmp_path.iterdir()) == [out_path]
