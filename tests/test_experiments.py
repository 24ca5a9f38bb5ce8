import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle import ImpossibleOutcomeError, experiments, nonlocality, states
from waveparticle.channels import ReferenceObservable
from waveparticle.experiments import (
    BEAM_SPLITTER,
    balanced_path_state,
    dce_analyze,
    measurement_model,
    morphing_scan,
    mzi_run,
    path_basis,
    wave_detector_run,
)
from waveparticle.measures import duality, tsallis_entropy
from waveparticle.states import (
    ValidationError,
    basis_state,
    hermitian_part,
    partial_trace,
    projector,
)

PHI_GRID = np.linspace(0.0, 2 * np.pi, 17)[:-1]
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def ket01(i, j):
    return np.kron(basis_state(2, i), basis_state(2, j))


def phase_plate(phi):
    """The phase plate on arm 1: diag(1, e^{i phi})."""
    return np.diag([1, np.exp(1j * phi)])


def recombined_state(phi):
    """Output state after the second splitter: cos(phi/2)|1> - sin(phi/2)|0>."""
    return np.array([-np.sin(phi / 2.0), np.cos(phi / 2.0)], dtype=complex)


def assert_same_bits(actual, expected, label):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, label
    assert actual.tobytes() == expected.tobytes(), label


def count_solves(monkeypatch):
    """A list that records (solver, shape) for every eigh and eigvalsh call."""
    solves = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, solver=solver, name=name: (
            solves.append((name, np.shape(m))) or solver(m)))
    return solves


def reference_wave_detector(x, amps):
    """wave_detector_run built as the 8x8 circuit: the register |00><00|
    joined by np.kron, the path-controlled flips and the beam splitter as
    sandwiches, and each click projected on its own by click_projection."""
    couple = (np.kron(projector(basis_state(2, 0)), np.kron(FLIP, EYE2))
              + np.kron(projector(basis_state(2, 1)), np.kron(EYE2, FLIP)))
    mix = np.kron(BEAM_SPLITTER, np.eye(4, dtype=complex))
    x = np.asarray(x)[..., None, None]
    rho_q = (1.0 - x) * EYE2 / 2.0 + x * projector(amps)
    evolved = couple @ np.kron(rho_q, projector(ket01(0, 0))) @ couple.conj().T
    evolved = mix @ evolved @ mix.conj().T
    obs = ReferenceObservable(EYE2)
    split = duality(rho_q, obs, (1.0, 2.0))
    wavelike_q2 = split["wavelike"][1]
    scalars, matrices, residuals = {}, {}, []
    for k in (0, 1):
        conditional, p = click_projection(evolved, k)
        b_max, n_l, c = nonlocality._two_qubit_measures(*states._certified_spectrum(
            conditional, name="two-qubit state", vectors=True))
        scalars.update({f"p_click_{k}": p, f"chsh_max_click_{k}": b_max,
                        f"nonlocality_click_{k}": n_l, f"concurrence_click_{k}": c})
        matrices[f"conditional_click_{k}"] = conditional
        residuals.append(np.abs(n_l - 2.0 * wavelike_q2))
    for i in (0, 1):
        for key in ("wavelike", "particlelike"):
            scalars[f"{key}_q{i + 1}"] = split[key][i]
    scalars["nonlocality_activation_residual"] = np.maximum(*residuals)
    return scalars, matrices


def click_projection(evolved, k):
    """The register state and probability when the quanton of the 8x8 state
    clicks k: the k-th 4x4 diagonal block of its Hermitian part, divided by
    its trace, then averaged with its conjugate transpose."""
    block = hermitian_part(evolved)[..., 4 * k:4 * k + 4, 4 * k:4 * k + 4]
    p = np.trace(block, axis1=-2, axis2=-1).real
    conditional = block / p[..., None, None]
    return (conditional + conditional.conj().swapaxes(-1, -2)) / 2.0, p


def _circuit_cases():
    """(x, amplitudes, atol) for the Kraus-versus-circuit comparison: mixing
    weights 0, 1 and 1e-300, basis and near-basis inputs, and seeded random
    pairs. The circuit's 8x8 state is Hermitian only up to rounding when both
    amplitudes have real and imaginary parts, and click_projection takes
    its Hermitian part before dividing by p, where the Kraus path divides
    first: those inputs may differ in the last bits (8.9e-16 at most over
    2000 random pairs), every other one matches bit for bit (atol 0)."""
    complex_pair = np.array([0.36 + 0.48j, 0.8j])
    edges = np.concatenate([[0.0, 1e-300], np.linspace(0.0, 1.0, 7)[1:]])
    cases = [pytest.param(np.linspace(0.0, 1.0, 7), complex_pair, 0.0, id="grid"),
             pytest.param(0.3, complex_pair, 0.0, id="float"),
             pytest.param(0.0, complex_pair, 0.0, id="float-0"),
             pytest.param(1.0, complex_pair, 0.0, id="float-1")]
    near = 5e-9
    pairs = {"basis-0": [1.0, 0.0], "basis-1": [0.0, 1.0],
             "near-basis-0": [np.sqrt(1.0 - near * near), near * 1j],
             "near-basis-1": [-near, np.sqrt(1.0 - near * near)]}
    cases += [pytest.param(edges, np.array(amps, dtype=complex), 0.0, id=label)
              for label, amps in pairs.items()]
    g = np.random.default_rng(1804).standard_normal((20, 2, 2)) @ [1.0, 1.0j]
    cases += [pytest.param(edges, row / np.linalg.norm(row), 2e-15, id=f"random-{i}")
              for i, row in enumerate(g)]
    return cases


CIRCUIT_CASES = _circuit_cases()
# wave_detector_run's closed forms in click 0's coherence against the general
# eigh and svd solve of _two_qubit_measures
CLOSED_FORM_ATOL = 2e-15
CLOSED_FORM_KEYS = ("chsh_max_click_", "nonlocality_click_", "concurrence_click_",
                    "nonlocality_activation_residual")


def reference_dce(alpha, phi):
    """dce_analyze at one grid point built as the controlled-splitter circuit:
    the control and the first splitter's input joined by np.kron, the first
    splitter and phase plate padded with the identity on the control, and the
    4x4 splitter acting on control |1>."""
    controlled = (np.kron(EYE2, projector(basis_state(2, 0)))
                  + np.kron(BEAM_SPLITTER, projector(basis_state(2, 1))))
    control = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
    start = np.kron(basis_state(2, 0), control)
    inside = np.kron(phase_plate(phi % (2 * np.pi)) @ BEAM_SPLITTER, EYE2)
    joint = (controlled @ (inside @ start[:, None]))[:, 0]
    rho_joint = projector(joint)
    rho_q = partial_trace(rho_joint, (2, 2), keep=0)
    split = duality(rho_q, ReferenceObservable(EYE2), (1.0, 2.0))
    scalars = {"p_detector_0": rho_q[0, 0].real, "p_detector_1": rho_q[1, 1].real}
    for i in (0, 1):
        for key in ("wavelike", "particlelike"):
            scalars[f"{key}_q{i + 1}"] = split[key][i]
    scalars["entanglement_linear"] = split["entropy"][1]
    scalars["entanglement_entropy"] = split["entropy"][0]
    return scalars, {"joint": rho_joint, "quanton": rho_q}


class TestConventions:
    def test_beam_splitter_unitary(self):
        np.testing.assert_allclose(
            BEAM_SPLITTER @ BEAM_SPLITTER.conj().T, np.eye(2), atol=1e-15)

    def test_first_splitter_output(self):
        for phi in PHI_GRID:
            out = phase_plate(phi) @ BEAM_SPLITTER @ basis_state(2, 0)
            np.testing.assert_allclose(out, balanced_path_state(phi), atol=1e-15)

    def test_full_interferometer_matches_up_to_phase(self):
        for phi in PHI_GRID:
            out = BEAM_SPLITTER @ phase_plate(phi) @ BEAM_SPLITTER @ basis_state(2, 0)
            overlap = abs(np.vdot(recombined_state(phi), out))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_balanced_and_recombined_agree_at_quarter_turn(self):
        # same ray at phi = pi/2, so both give identical statistics
        p = balanced_path_state(np.pi / 2)
        w = recombined_state(np.pi / 2)
        assert abs(np.vdot(w, p)) == pytest.approx(1.0, abs=1e-12)


class TestMzi:
    @pytest.mark.parametrize("bs2", ["present", "absent"])
    def test_phase_reduced_mod_two_pi(self, bs2):
        # a whole turn gives the bits of zero; a negative phase, its residue's values
        turn, zero = mzi_run(2 * np.pi, bs2), mzi_run(0.0, bs2)
        for key, value in zero.scalars.items():
            assert_same_bits(turn.scalars[key], value, key)
        for key, state in zero.states.items():
            assert_same_bits(turn.states[key].matrix, state.matrix, key)
        negative, residue = mzi_run(-np.pi / 2, bs2), mzi_run(3 * np.pi / 2, bs2)
        for key, value in residue.scalars.items():
            assert negative.scalars[key] == pytest.approx(value, abs=1e-12), key

    def test_rejects_unknown_mode(self):
        for mode in ("sideways", "superposed"):
            with pytest.raises(ValidationError, match=f"unknown bs2 mode '{mode}'"):
                mzi_run(0.0, bs2=mode)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_phase(self, phi):
        with pytest.raises(ValidationError, match="not finite"):
            mzi_run(phi)

    def test_present_detector_statistics(self):
        for phi in PHI_GRID:
            report = mzi_run(phi, bs2="present")
            assert report.scalars["p_detector_0"] == pytest.approx(
                np.sin(phi / 2) ** 2, abs=1e-12)
            assert report.scalars["p_detector_1"] == pytest.approx(
                np.cos(phi / 2) ** 2, abs=1e-12)

    def test_absent_statistics_are_random(self):
        for phi in (0.0, 1.0, np.pi):
            report = mzi_run(phi, bs2="absent")
            assert report.scalars["p_detector_0"] == pytest.approx(0.5, abs=1e-12)
            assert report.scalars["wavelike_q1"] == pytest.approx(np.log(2), abs=1e-12)

    def test_mid_state_always_wavelike(self):
        for phi in PHI_GRID:
            report = mzi_run(phi, bs2="present")
            assert report.scalars["wavelike_mid_q1"] == pytest.approx(
                np.log(2), abs=1e-12)

    def test_probabilities_complete(self):
        report = mzi_run(0.37, bs2="present")
        total = report.scalars["p_detector_0"] + report.scalars["p_detector_1"]
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.37, PHI_GRID], ids=["one-phase", "grid"])
    @pytest.mark.parametrize("bs2", ["present", "absent"])
    def test_both_states_certified_in_one_solve(self, monkeypatch, phi, bs2):
        solves = count_solves(monkeypatch)
        mzi_run(phi, bs2)
        assert solves == [("eigvalsh", (2, *np.shape(phi), 2, 2))]

    @pytest.mark.parametrize("bs2", ["present", "absent"])
    def test_each_state_keeps_the_bits_it_gets_alone(self, bs2):
        report = mzi_run(PHI_GRID, bs2)
        obs = ReferenceObservable.computational(2)
        pre = duality(report.states["pre_detector"].matrix, obs, (1.0, 2.0))
        mid = duality(report.states["mid"].matrix, obs, (1.0, 2.0))
        for i in (0, 1):
            for key in ("wavelike", "particlelike"):
                assert_same_bits(report.scalars[f"{key}_q{i + 1}"], pre[key][i], key)
            assert_same_bits(report.scalars[f"wavelike_mid_q{i + 1}"], mid["wavelike"][i], i)

    def test_report_shape(self):
        report = mzi_run(1.0)
        assert report.name == "mzi"
        assert set(report.states) == {"mid", "pre_detector"}
        assert report.states["mid"].dims == (2,)


class TestDelayedChoice:
    def test_closed_forms_on_subgrid(self):
        for alpha in np.linspace(0.0, np.pi / 2, 5):
            for phi in np.linspace(0.0, 2 * np.pi, 7):
                report = dce_analyze(alpha, phi)
                cos2 = np.cos(phi) ** 2
                assert report.scalars["particlelike_q2"] == pytest.approx(
                    0.5 * (1 - np.cos(alpha) ** 4) * cos2, abs=1e-10)
                assert report.scalars["entanglement_linear"] == pytest.approx(
                    0.25 * np.sin(2 * alpha) ** 2 * cos2, abs=1e-10)

    def test_reference_point(self):
        report = dce_analyze(np.pi / 4, 0.0)
        assert report.scalars["particlelike_q2"] == pytest.approx(0.375, abs=1e-12)
        assert report.scalars["entanglement_linear"] == pytest.approx(0.25, abs=1e-12)
        assert report.scalars["wavelike_q2"] == pytest.approx(0.125, abs=1e-12)

    def test_matches_two_branch_construction(self):
        # quanton marginal of cos(a)|p>|out> + sin(a)|w>|in>, coherence-free
        # in the control, equals the circuit's marginal
        for alpha, phi in ((0.3, 0.9), (1.1, 4.0), (np.pi / 4, 0.0)):
            literal = (np.cos(alpha) * np.kron(balanced_path_state(phi), basis_state(2, 0))
                       + np.sin(alpha) * np.kron(recombined_state(phi), basis_state(2, 1)))
            expected = partial_trace(projector(literal), (2, 2), keep=0)
            report = dce_analyze(alpha, phi)
            np.testing.assert_allclose(report.states["quanton"].matrix, expected,
                                       atol=1e-12)

    def test_splitter_removed_is_strictly_wavelike(self):
        report = dce_analyze(0.0, 0.77)
        assert report.scalars["particlelike_q2"] == pytest.approx(0.0, abs=1e-12)
        assert report.scalars["wavelike_q2"] == pytest.approx(0.5, abs=1e-12)

    def test_intermediate_angle_never_reaches_maximum(self):
        for alpha in (0.2, np.pi / 4, 1.2):
            for phi in (0.0, 0.4, np.pi):
                assert dce_analyze(alpha, phi).scalars["particlelike_q2"] < 0.5

    def test_complementarity_within_report(self):
        for alpha, phi in ((0.5, 1.0), (1.2, 3.3)):
            s = dce_analyze(alpha, phi).scalars
            assert s["wavelike_q1"] + s["particlelike_q1"] == pytest.approx(
                np.log(2), abs=1e-10)
            assert s["wavelike_q2"] + s["particlelike_q2"] == pytest.approx(
                0.5, abs=1e-10)

    def test_morphing_region_both_positive(self):
        # at alpha = pi/2 both characters coexist away from multiples of pi/2
        for m in (1, 3, 5, 7, 9, 11):
            s = dce_analyze(np.pi / 2, m * np.pi / 12).scalars
            assert s["wavelike_q2"] > 1e-3
            assert s["particlelike_q2"] > 1e-3

    def test_morphing_region_boundary(self):
        # cos(phi) = 0 kills the particlelike part even at alpha = pi/2
        s = dce_analyze(np.pi / 2, np.pi / 2).scalars
        assert s["particlelike_q2"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("swept", ["bs2_alpha", "phi"])
    def test_grid_call_equals_scalar_calls(self, swept):
        if swept == "bs2_alpha":
            grid = np.linspace(0.0, np.pi / 2, 9)
            calls = [(alpha, 2.2) for alpha in grid]
            report = dce_analyze(grid, 2.2)
        else:
            # multiples of pi/4 outside [0, 2 pi) hit the reduction and cos(phi) = 0
            grid = np.arange(-9, 10) * np.pi / 4
            calls = [(0.9, phi) for phi in grid]
            report = dce_analyze(0.9, grid)
        for i, call in enumerate(calls):
            single = dce_analyze(*call)
            assert {key: value[i] for key, value in report.scalars.items()} == single.scalars
            assert report.states.keys() == single.states.keys()
            for name, state in single.states.items():
                assert report.states[name].dims == state.dims
                assert report.states[name].matrix[i].tobytes() == state.matrix.tobytes()

    def test_linear_entropy_is_the_q2_entropy_of_the_quanton(self):
        # 1 - Tr rho^2 is read off the split's q = 2 entropy, bit for bit
        report = dce_analyze(np.linspace(0.0, np.pi / 2, 7)[:, None],
                             np.linspace(-1.0, 8.0, 31))
        expected = duality(report.states["quanton"].matrix, path_basis(2), 2.0)["entropy"]
        assert_same_bits(report.scalars["entanglement_linear"], expected, "linear")

    def test_grid_call_solves_the_quanton_stack_once(self, monkeypatch):
        # the entanglement entropy is the q = 1 entropy of the wave/particle split
        eigvalsh, shapes = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: shapes.append(np.shape(m)) or eigvalsh(m))
        report = dce_analyze(np.linspace(0.1, 1.4, 5)[:, None], np.linspace(0.0, 6.0, 25))
        assert shapes == [(5, 25, 2, 2)]
        np.testing.assert_array_equal(report.scalars["entanglement_entropy"],
                                      tsallis_entropy(report.states["quanton"].matrix, 1.0))

    @pytest.mark.parametrize("alpha, phi", [
        # 1-d: the splitter out and in, at the phases where cos(phi)^2 = 1
        (np.array([0.0, 0.0, np.pi / 2, np.pi / 2]), np.array([0.0, np.pi, 0.0, np.pi])),
        (np.linspace(0.0, np.pi / 2, 5)[:, None], np.linspace(-1.0, 8.0, 9)),
    ], ids=["corners", "broadcast"])
    def test_matches_the_controlled_splitter_circuit(self, alpha, phi):
        report = dce_analyze(alpha, phi)
        shape = np.broadcast_shapes(np.shape(alpha), np.shape(phi))
        alphas, phis = np.broadcast_to(alpha, shape), np.broadcast_to(phi, shape)
        for index in np.ndindex(shape):
            scalars, matrices = reference_dce(alphas[index], phis[index])
            assert list(report.scalars) == list(scalars)
            for key, value in scalars.items():
                assert_same_bits(report.scalars[key][index], value, (key, index))
            assert list(report.states) == list(matrices)
            for name, matrix in matrices.items():
                assert_same_bits(report.states[name].matrix[index], matrix, (name, index))

    def test_grid_checks_name_first_offending_value(self):
        with pytest.raises(ValidationError, match=re.escape("phase phi = inf is not finite")):
            dce_analyze(0.5, np.array([0.0, np.inf, np.nan]))
        with pytest.raises(ValidationError, match=re.escape("bs2_alpha = 1.6 outside")):
            dce_analyze(np.array([0.1, 1.6, -1.0]), 0.3)

    def test_joint_state_is_pure_two_qubit(self):
        report = dce_analyze(0.8, 1.5)
        joint = report.states["joint"]
        assert joint.dims == (2, 2)
        np.testing.assert_allclose(joint.matrix @ joint.matrix, joint.matrix,
                                   atol=1e-12)


class TestWaveDetector:
    def test_input_density(self):
        amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        rho = wave_detector_run(0.5, amps).states["input"].matrix
        np.testing.assert_allclose(rho, 0.25 * np.eye(2) + 0.5 * projector(amps),
                                   atol=1e-12)

    def test_validation(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValidationError, match=r"^mixing weight x = 1\.5 outside \[0, 1\]$"):
            wave_detector_run(1.5, amps)
        with pytest.raises(ValidationError, match="deviates from 1"):
            wave_detector_run(0.5, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValidationError, match=re.escape("state norm^2 = inf deviates")):
            wave_detector_run(0.5, np.array([1e200, 0.0]))
        with pytest.raises(ValidationError, match="^amplitudes must describe a single qubit$"):
            wave_detector_run(0.5, np.array([1.0, 0, 0], dtype=complex))

    def test_maximal_activation(self):
        amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        s = wave_detector_run(1.0, amps).scalars
        assert s["nonlocality_click_0"] == pytest.approx(1.0, abs=1e-12)
        assert s["concurrence_click_0"] == pytest.approx(1.0, abs=1e-12)
        assert s["chsh_max_click_0"] == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_definite_path_produces_nothing(self):
        s = wave_detector_run(1.0, np.array([1.0, 0.0])).scalars
        assert s["nonlocality_click_0"] == pytest.approx(0.0, abs=1e-12)
        assert s["concurrence_click_0"] == pytest.approx(0.0, abs=1e-12)
        assert s["wavelike_q2"] == 0.0

    def test_half_mixed_reference_point(self):
        amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        s = wave_detector_run(0.5, amps).scalars
        assert s["nonlocality_click_0"] == pytest.approx(0.25, abs=1e-12)
        assert s["concurrence_click_0"] == pytest.approx(0.5, abs=1e-12)
        assert s["wavelike_q2"] == pytest.approx(0.125, abs=1e-12)

    def test_conditional_state_formula(self):
        # mixture of the register ghosts |10>, |01> and the coherent branch
        for x, a, k in ((0.7, 0.3, 0), (0.7, 0.3, 1), (0.4, 0.9, 0), (1.0, 0.6, 1)):
            b = np.sqrt(1 - a * a)
            report = wave_detector_run(x, np.array([a, b]))
            branch = a * ket01(1, 0) + (-1) ** k * 1j * b * ket01(0, 1)
            expected = ((1 - x) / 2 * (projector(ket01(1, 0)) + projector(ket01(0, 1)))
                        + x * projector(branch))
            np.testing.assert_allclose(
                report.states[f"conditional_click_{k}"].matrix, expected, atol=1e-12)

    def test_click_probabilities_always_half(self):
        for x, a in ((0.0, 0.2), (0.5, 0.9), (1.0, 0.5)):
            amps = np.array([a, np.sqrt(1 - a * a)], dtype=complex)
            s = wave_detector_run(x, amps).scalars
            assert s["p_click_0"] == pytest.approx(0.5, abs=1e-10)
            assert s["p_click_1"] == pytest.approx(0.5, abs=1e-10)

    def test_click_symmetry(self):
        amps = np.array([0.6, 0.8j], dtype=complex)
        s = wave_detector_run(0.8, amps).scalars
        assert abs(s["nonlocality_click_0"] - s["nonlocality_click_1"]) < 1e-12
        assert abs(s["concurrence_click_0"] - s["concurrence_click_1"]) < 1e-12

    def test_activation_is_squared_concurrence(self):
        for x in np.linspace(0.0, 1.0, 6):
            for a in np.linspace(0.1, 0.9, 5):
                amps = np.array([a, np.sqrt(1 - a * a)], dtype=complex)
                s = wave_detector_run(x, amps).scalars
                assert s["nonlocality_click_0"] == pytest.approx(
                    s["concurrence_click_0"] ** 2, abs=1e-10)

    def test_activation_residual_reported(self):
        amps = np.array([0.6, 0.8], dtype=complex)
        s = wave_detector_run(0.9, amps).scalars
        assert s["nonlocality_activation_residual"] < 1e-10

    def test_each_state_checked_for_hermiticity_once(self, monkeypatch):
        # the input's split, click 0's Hermitian part, whose coherence gives
        # both clicks' CHSH values and concurrences through S x S^H, and
        # click 1's Hermitian part
        x, amps = np.linspace(0.0, 1.0, 5), np.array([0.6, 0.8], dtype=complex)
        expected = wave_detector_run(x, amps).scalars
        calls = []

        def counting(m, **kwargs):
            calls.append(kwargs.get("name"))
            return hermitian_part(m, **kwargs)

        for module in (states, nonlocality, experiments):
            monkeypatch.setattr(module, "hermitian_part", counting)
        scalars = wave_detector_run(x, amps).scalars
        assert calls == ["state", "two-qubit state", "two-qubit state"]
        for key, value in expected.items():
            assert np.array_equal(scalars[key], value), key

    def test_click_1_is_click_0_under_a_local_phase(self):
        # _CLICKS[1] = (S x S^H) _CLICKS[0] with S = diag(1, i), exactly: the
        # local unitary keeps CHSH and concurrence, so click 1 reuses click 0's
        s = np.diag([1.0, 1.0j])
        local = np.kron(s, s.conj().T)
        assert np.array_equal(local @ experiments._CLICKS[0], experiments._CLICKS[1])

    def test_clicks_never_reach_00_or_11(self):
        # the support on span{|01>, |10>} that the closed forms rest on
        assert not experiments._CLICKS[:, [0, 3], :].any()

    def test_closed_forms_match_the_general_solve(self):
        xs = np.concatenate([[0.0, 1e-300], np.linspace(0.0, 1.0, 17)[1:]])
        pairs = np.random.default_rng(3303).standard_normal((200, 2, 2)) @ [1.0, 1.0j]
        for amps in pairs / np.linalg.norm(pairs, axis=-1, keepdims=True):
            report = wave_detector_run(xs, amps)
            solved = nonlocality._two_qubit_measures(*states._certified_spectrum(
                report.states["conditional_click_0"].matrix, vectors=True))
            for key, value in zip(("chsh_max", "nonlocality", "concurrence"), solved):
                for k in (0, 1):
                    np.testing.assert_allclose(
                        report.scalars[f"{key}_click_{k}"], value, rtol=0.0,
                        atol=CLOSED_FORM_ATOL, err_msg=f"{key}_click_{k}")

    def test_click_projection_reads_the_hand_built_register(self):
        # quanton on a balanced superposition writes its path into two
        # register qubits, then crosses a splitter; conditioning on the
        # quanton click must leave the register in (a|10> + i b|01>)/norm
        a, b = 0.6, 0.8
        after_couple = np.zeros(8, dtype=complex)
        after_couple[2] = a            # |0>|10>
        after_couple[5] = b            # |1>|01>
        mixed = np.kron(BEAM_SPLITTER, np.eye(4, dtype=complex)) @ after_couple
        conditional, p = click_projection(projector(mixed), 0)
        assert p == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros(4, dtype=complex)
        expected[2] = a
        expected[1] = 1j * b
        np.testing.assert_allclose(conditional, projector(expected), atol=1e-12)

    def test_click_projection_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        total = sum(click_projection(rho, k)[1] for k in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x,amps,atol", CIRCUIT_CASES)
    def test_kraus_clicks_reproduce_the_register_circuit(self, x, amps, atol):
        # the closed-form measures, and the residual built from them, are
        # within CLOSED_FORM_ATOL of the circuit's general solve; every state,
        # probability and wave/particle value keeps its comparison
        report = wave_detector_run(x, amps)
        expected_scalars, expected_states = reference_wave_detector(x, amps)
        assert list(report.scalars) == list(expected_scalars)
        expected = [(report.scalars[key], value, key) for key, value in expected_scalars.items()]
        expected += [(report.states[key].matrix, matrix, key)
                     for key, matrix in expected_states.items()]
        for actual, value, key in expected:
            tol = CLOSED_FORM_ATOL if key.startswith(CLOSED_FORM_KEYS) else atol
            if tol:
                np.testing.assert_allclose(actual, value, rtol=0.0, atol=tol, err_msg=key)
            else:
                assert_same_bits(actual, value, key)
        # each click's measures are those of a solve of its own reported
        # state: click 1 takes click 0's through S x S^H
        for k in (0, 1):
            own = nonlocality._two_qubit_measures(*states._certified_spectrum(
                report.states[f"conditional_click_{k}"].matrix, vectors=True))
            for key, value in zip(("chsh_max", "nonlocality", "concurrence"), own):
                np.testing.assert_allclose(report.scalars[f"{key}_click_{k}"], value, rtol=0.0,
                                           atol=CLOSED_FORM_ATOL, err_msg=f"{key}_click_{k}")

    def test_only_the_input_split_is_solved(self, monkeypatch):
        # one eigvalsh: the input's split; the clicks' measures are closed
        # forms, with no eigh, svd or Kronecker product
        calls = []

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls.append((name, np.shape(args[0])))
                return function(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        monkeypatch.setattr(np, "kron", counting("kron", np.kron))
        wave_detector_run(np.linspace(0.0, 1.0, 5), np.array([0.6, 0.8j]))
        assert calls == [("eigvalsh", (5, 2, 2))]

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_statistics_hold_everywhere(self, x, a):
        amps = np.array([a, np.sqrt(max(0.0, 1 - a * a))], dtype=complex)
        s = wave_detector_run(x, amps).scalars
        assert s["p_click_0"] == pytest.approx(0.5, abs=1e-10)
        assert abs(s["nonlocality_click_0"] - s["nonlocality_click_1"]) < 1e-12


class TestMeasurementModel:
    def test_alice_conditions_on_outcome(self):
        c = np.array([0.6, 0.8], dtype=complex)
        report = measurement_model(c, outcome=1)
        assert report.scalars["p_outcome"] == pytest.approx(0.64, abs=1e-12)
        np.testing.assert_allclose(report.states["quanton"].matrix,
                                   projector(basis_state(2, 1)), atol=1e-12)
        assert report.scalars["wavelike_q1"] == 0.0
        assert report.scalars["wavelike_pointer_q1"] == 0.0

    def test_alice_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcomeError, match=re.escape(
                "outcome 1 has probability 0.000e+00")):
            measurement_model(np.array([1.0, 0.0]), outcome=1)

    def test_bob_keeps_the_mixture(self):
        c = np.array([0.6, 0.8j], dtype=complex)
        report = measurement_model(c)
        np.testing.assert_allclose(report.states["quanton"].matrix,
                                   np.diag([0.36, 0.64]), atol=1e-12)
        np.testing.assert_allclose(report.states["pointer"].matrix,
                                   np.diag([0.36, 0.64]), atol=1e-12)
        assert report.scalars["wavelike_q1"] == 0.0
        assert report.scalars["wavelike_pointer_q2"] == 0.0

    def test_pre_interaction_entropy_reported(self):
        c = np.array([0.5, 0.5, 1 / np.sqrt(2)], dtype=complex)
        report = measurement_model(c)
        p = np.abs(c) ** 2
        assert report.scalars["wavelike_pre_q1"] == pytest.approx(
            float(-(p * np.log(p)).sum()), abs=1e-12)

    def test_definite_branch_changes_nothing(self):
        c = np.array([1.0, 0.0], dtype=complex)
        for report in (measurement_model(c), measurement_model(c, outcome=0)):
            assert report.scalars["wavelike_pre_q1"] == 0.0
            np.testing.assert_allclose(report.states["quanton"].matrix,
                                       projector(basis_state(2, 0)), atol=1e-12)

    def test_both_states_certified_in_one_solve(self, monkeypatch):
        c = np.array([0.5, 0.5j, 1 / np.sqrt(2)])
        solves = count_solves(monkeypatch)
        # the pointer's marginal is the quanton's, so one state is solved
        measurement_model(c)
        assert solves == [("eigvalsh", (3, 3))]
        solves.clear()
        # alice reads |c_k|^2 and |k><k| directly and solves only that state
        measurement_model(c, outcome=2)
        assert solves == [("eigvalsh", (3, 3))]

    @pytest.mark.parametrize("outcome", [None, 0, 1])
    def test_pointer_and_quanton_have_the_same_bits(self, outcome):
        c = np.array([0.36 + 0.48j, 0.8j])
        report = measurement_model(c, outcome)
        assert_same_bits(report.states["pointer"].matrix, report.states["quanton"].matrix,
                         outcome)

    @pytest.mark.parametrize("outcome", [None, 0, 1, 2])
    def test_each_state_keeps_the_bits_it_gets_alone(self, outcome):
        c = np.array([0.5, 0.5j, 1 / np.sqrt(2)])
        report = measurement_model(c, outcome)
        obs = ReferenceObservable.computational(3)
        quanton = duality(report.states["quanton"].matrix, obs, (1.0, 2.0))
        pointer = duality(report.states["pointer"].matrix, obs, (1.0, 2.0))
        for i in (0, 1):
            for key in ("wavelike", "particlelike"):
                assert_same_bits(report.scalars[f"{key}_q{i + 1}"], quanton[key][i], key)
            assert_same_bits(report.scalars[f"wavelike_pointer_q{i + 1}"],
                             pointer["wavelike"][i], i)

    def test_alice_selects_on_the_pointer_marginal(self):
        c = np.array([0.36 + 0.48j, 0.8j])
        report = measurement_model(c, outcome=0)
        assert report.scalars["p_outcome"] == float(np.abs(c[0]) ** 2)
        for k in (-1, 2):
            with pytest.raises(ValueError, match=re.escape(
                    f"outcome index {k} out of range for dimension 2")):
                measurement_model(c, outcome=k)

    @pytest.mark.parametrize("branches", [2, 3, 4, 5])
    def test_alice_reads_the_branch_weights(self, branches):
        # p_outcome is |c_k|^2 as the model holds it, and the outcomes exhaust
        rng = np.random.default_rng(branches)
        c = rng.normal(size=branches) + 1j * rng.normal(size=branches)
        c /= np.linalg.norm(c)
        p = [measurement_model(c, outcome=k).scalars["p_outcome"] for k in range(branches)]
        assert p == [float(np.abs(c[k]) ** 2) for k in range(branches)]
        assert sum(p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("outcome", [0, 1, 2])
    def test_alice_state_is_the_outcome_projector(self, outcome):
        report = measurement_model(np.array([0.5, 0.5j, 1 / np.sqrt(2)]), outcome=outcome)
        for name in ("quanton", "pointer"):
            assert np.array_equal(report.states[name].matrix,
                                  projector(basis_state(3, outcome))), name
        assert report.scalars["wavelike_q1"] == 0.0

    # each amplitude defect and the refusal it gets, whichever view is asked
    NOT_AMPLITUDES = [
        # |c_0|^2 reads 1.0, so an unchecked read would report p = 1.0 for outcome 0
        ([1.0, 1.0], ValidationError, "state norm^2 = 2.0 deviates from 1 beyond 1.0e-09"),
        ([np.nan, 1.0], ValidationError, "state norm^2 = nan deviates from 1 beyond 1.0e-09"),
        ([1e200, 0.0], ValidationError, "state norm^2 = inf deviates from 1 beyond 1.0e-09"),
        ([[1.0, 0.0]], ValidationError,
         "amplitude vector must be 1-d and nonempty, got shape (1, 2)"),
        ([1.0], ValidationError, "need at least two branches"),
    ]

    @pytest.mark.parametrize("outcome", [None, 0], ids=["bob", "alice"])
    @pytest.mark.parametrize("amplitudes,error,message", NOT_AMPLITUDES,
                             ids=["norm", "nan", "overflow", "shape", "one-branch"])
    def test_refuses_amplitudes_that_are_not_a_state(self, amplitudes, error, message,
                                                     outcome):
        with pytest.raises(error, match=re.escape(message)):
            measurement_model(np.array(amplitudes), outcome=outcome)

    def test_alice_refuses_below_the_impossible_outcome_tolerance(self):
        p = experiments.IMPOSSIBLE_OUTCOME_TOL / 10
        c = np.array([np.sqrt(1 - p), np.sqrt(p)])
        with pytest.raises(ImpossibleOutcomeError, match=re.escape(
                f"outcome 1 has probability {float(np.abs(c[1]) ** 2):.3e}")):
            measurement_model(c, outcome=1)

    def test_alice_reads_a_small_but_possible_outcome(self):
        p = experiments.IMPOSSIBLE_OUTCOME_TOL * 10
        c = np.array([np.sqrt(1 - p), np.sqrt(p)])
        report = measurement_model(c, outcome=1)
        assert report.scalars["p_outcome"] == float(np.abs(c[1]) ** 2)
        assert np.array_equal(report.states["quanton"].matrix, projector(basis_state(2, 1)))

    def test_alice_impossible_outcome_among_three_branches(self):
        c = np.array([0.6, 0.0, 0.8])
        with pytest.raises(ImpossibleOutcomeError, match=re.escape(
                "outcome 1 has probability 0.000e+00")):
            measurement_model(c, outcome=1)
        assert [measurement_model(c, outcome=k).scalars["p_outcome"] for k in (0, 2)] == [
            float(0.6 ** 2), float(0.8 ** 2)]

    def test_range_is_checked_before_the_probability(self):
        # an index past the end is out of range, not an impossible outcome
        with pytest.raises(ValueError, match=re.escape(
                "outcome index 2 out of range for dimension 2")) as refused:
            measurement_model(np.array([1.0, 0.0]), outcome=2)
        assert refused.type is ValueError

    @pytest.mark.parametrize("branches", range(2, 9))
    def test_bob_premeasurement_matches_the_branch_loop(self, branches):
        # Bob's diag(c_k conj(c_k)) has the bits of the premeasurement state
        # sum_k c_k |k>|k> traced over either factor, for seeded complex
        # amplitudes and for one with a -0.0 real part
        rng = np.random.default_rng(branches)
        cases = rng.normal(size=(30, branches)) + 1j * rng.normal(size=(30, branches))
        cases = list(cases / np.linalg.norm(cases, axis=-1, keepdims=True))
        cases += {2: [np.array([complex(-0.0, 0.6), 0.8])],
                  3: [np.array([0.5, 0.5j, 1 / np.sqrt(2)])]}.get(branches, [])
        for c in cases:
            joint = np.zeros(branches * branches, dtype=complex)
            for k in range(branches):
                joint[k * branches + k] = c[k]
            report = measurement_model(c)
            for keep, name in enumerate(("quanton", "pointer")):
                assert_same_bits(report.states[name].matrix,
                                 partial_trace(projector(joint), (branches, branches),
                                               keep=keep), name)


class TestMorphing:
    def test_closed_form(self):
        for a in (0.3, 0.6, 1 / np.sqrt(2)):
            b = np.sqrt(1 - a * a)
            for eta in (0.0, 0.4, 1.0):
                s = morphing_scan(np.array([a, b]), eta).scalars
                assert s["wavelike_q2"] == pytest.approx(
                    2 * (a * b) ** 2 * eta ** 2, abs=1e-12)

    def test_wavelike_limit(self):
        amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        assert morphing_scan(amps, 1.0).scalars["wavelike_q2"] == pytest.approx(
            0.5, abs=1e-12)

    def test_particlelike_limit(self):
        assert morphing_scan(np.array([0.6, 0.8]), 0.0).scalars["wavelike_q2"] == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            morphing_scan(np.array([0.6, 0.8]), 1.5)
        with pytest.raises(ValidationError):
            morphing_scan(np.array([1.0, 0.0, 0.0]), 0.5)
        # |1e200|^2 overflows: a ValidationError, not a RuntimeWarning
        with pytest.raises(ValidationError, match=re.escape("state norm^2 = inf deviates")):
            morphing_scan(np.array([1e200, 0.0]), 0.5)
