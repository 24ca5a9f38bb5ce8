import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle.channels import ImpossibleOutcomeError
from waveparticle.experiments import (
    BEAM_SPLITTER,
    MziConfig,
    WernerInput,
    balanced_path_state,
    dce_analyze,
    measurement_model,
    morphing_scan,
    mzi_run,
    phase_shifter,
    recombined_state,
    wave_detector_run,
)
from waveparticle.states import (
    BipartiteSplit,
    ValidationError,
    basis_state,
    partial_trace,
    projector,
    tensor,
)

PHI_GRID = np.linspace(0.0, 2 * np.pi, 17)[:-1]


def ket01(i, j):
    return tensor(basis_state(2, i), basis_state(2, j))


class TestConventions:
    def test_beam_splitter_unitary(self):
        np.testing.assert_allclose(
            BEAM_SPLITTER @ BEAM_SPLITTER.conj().T, np.eye(2), atol=1e-15)

    def test_first_splitter_output(self):
        for phi in PHI_GRID:
            out = phase_shifter(phi) @ BEAM_SPLITTER @ basis_state(2, 0)
            np.testing.assert_allclose(out, balanced_path_state(phi), atol=1e-15)

    def test_full_interferometer_matches_up_to_phase(self):
        for phi in PHI_GRID:
            out = BEAM_SPLITTER @ phase_shifter(phi) @ BEAM_SPLITTER @ basis_state(2, 0)
            overlap = abs(np.vdot(recombined_state(phi), out))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_balanced_and_recombined_agree_at_quarter_turn(self):
        # same ray at phi = pi/2, so both give identical statistics
        p = balanced_path_state(np.pi / 2)
        w = recombined_state(np.pi / 2)
        assert abs(np.vdot(w, p)) == pytest.approx(1.0, abs=1e-12)


class TestMziConfig:
    def test_phase_reduced_mod_two_pi(self):
        assert MziConfig(phi=2 * np.pi).phi == 0.0
        assert MziConfig(phi=-np.pi / 2).phi == pytest.approx(3 * np.pi / 2)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            MziConfig(phi=0.0, bs2="sideways")

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_phase(self, phi):
        with pytest.raises(ValidationError, match="not finite"):
            MziConfig(phi=phi)

    def test_superposed_needs_alpha(self):
        with pytest.raises(ValidationError):
            MziConfig(phi=0.0, bs2="superposed")
        with pytest.raises(ValidationError):
            MziConfig(phi=0.0, bs2="superposed", bs2_alpha=2.0)
        assert MziConfig(phi=0.0, bs2="superposed", bs2_alpha=0.3).bs2_alpha == 0.3

    def test_alpha_forbidden_otherwise(self):
        with pytest.raises(ValidationError):
            MziConfig(phi=0.0, bs2="present", bs2_alpha=0.3)


class TestMzi:
    def test_present_detector_statistics(self):
        for phi in PHI_GRID:
            report = mzi_run(MziConfig(phi=phi, bs2="present"))
            assert report.scalars["p_detector_0"] == pytest.approx(
                np.sin(phi / 2) ** 2, abs=1e-12)
            assert report.scalars["p_detector_1"] == pytest.approx(
                np.cos(phi / 2) ** 2, abs=1e-12)

    def test_absent_statistics_are_random(self):
        for phi in (0.0, 1.0, np.pi):
            report = mzi_run(MziConfig(phi=phi, bs2="absent"))
            assert report.scalars["p_detector_0"] == pytest.approx(0.5, abs=1e-12)
            assert report.scalars["wavelike_q1"] == pytest.approx(np.log(2), abs=1e-12)

    def test_mid_state_always_wavelike(self):
        for phi in PHI_GRID:
            report = mzi_run(MziConfig(phi=phi, bs2="present"))
            assert report.scalars["wavelike_mid_q1"] == pytest.approx(
                np.log(2), abs=1e-12)

    def test_probabilities_complete(self):
        report = mzi_run(MziConfig(phi=0.37, bs2="present"))
        total = report.scalars["p_detector_0"] + report.scalars["p_detector_1"]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_superposed_mode_refused(self):
        with pytest.raises(ValidationError):
            mzi_run(MziConfig(phi=0.0, bs2="superposed", bs2_alpha=0.1))

    def test_report_shape(self):
        report = mzi_run(MziConfig(phi=1.0))
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
            literal = (np.cos(alpha) * tensor(balanced_path_state(phi), basis_state(2, 0))
                       + np.sin(alpha) * tensor(recombined_state(phi), basis_state(2, 1)))
            expected = partial_trace(projector(literal), BipartiteSplit(2, 2), keep=0)
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


class TestWernerInput:
    def test_density(self):
        amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        rho = WernerInput(0.5, amps).density()
        np.testing.assert_allclose(rho, 0.25 * np.eye(2) + 0.5 * projector(amps),
                                   atol=1e-12)

    def test_validation(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValidationError):
            WernerInput(1.5, amps)
        with pytest.raises(ValidationError):
            WernerInput(0.5, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValidationError):
            WernerInput(0.5, np.array([1.0, 0, 0], dtype=complex))


class TestWaveDetector:
    def test_maximal_activation(self):
        amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        s = wave_detector_run(WernerInput(1.0, amps)).scalars
        assert s["nonlocality_click_0"] == pytest.approx(1.0, abs=1e-12)
        assert s["concurrence_click_0"] == pytest.approx(1.0, abs=1e-12)
        assert s["chsh_max_click_0"] == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_definite_path_produces_nothing(self):
        s = wave_detector_run(WernerInput(1.0, np.array([1.0, 0.0]))).scalars
        assert s["nonlocality_click_0"] == pytest.approx(0.0, abs=1e-12)
        assert s["concurrence_click_0"] == pytest.approx(0.0, abs=1e-12)
        assert s["wavelike_q2"] == 0.0

    def test_half_mixed_reference_point(self):
        amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        s = wave_detector_run(WernerInput(0.5, amps)).scalars
        assert s["nonlocality_click_0"] == pytest.approx(0.25, abs=1e-12)
        assert s["concurrence_click_0"] == pytest.approx(0.5, abs=1e-12)
        assert s["wavelike_q2"] == pytest.approx(0.125, abs=1e-12)

    def test_conditional_state_formula(self):
        # mixture of the register ghosts |10>, |01> and the coherent branch
        for x, a, k in ((0.7, 0.3, 0), (0.7, 0.3, 1), (0.4, 0.9, 0), (1.0, 0.6, 1)):
            b = np.sqrt(1 - a * a)
            report = wave_detector_run(WernerInput(x, np.array([a, b])))
            branch = a * ket01(1, 0) + (-1) ** k * 1j * b * ket01(0, 1)
            expected = ((1 - x) / 2 * (projector(ket01(1, 0)) + projector(ket01(0, 1)))
                        + x * projector(branch))
            np.testing.assert_allclose(
                report.states[f"conditional_click_{k}"].matrix, expected, atol=1e-12)

    def test_click_probabilities_always_half(self):
        for x, a in ((0.0, 0.2), (0.5, 0.9), (1.0, 0.5)):
            amps = np.array([a, np.sqrt(1 - a * a)], dtype=complex)
            s = wave_detector_run(WernerInput(x, amps)).scalars
            assert s["p_click_0"] == pytest.approx(0.5, abs=1e-10)
            assert s["p_click_1"] == pytest.approx(0.5, abs=1e-10)

    def test_click_symmetry(self):
        amps = np.array([0.6, 0.8j], dtype=complex)
        s = wave_detector_run(WernerInput(0.8, amps)).scalars
        assert abs(s["nonlocality_click_0"] - s["nonlocality_click_1"]) < 1e-12
        assert abs(s["concurrence_click_0"] - s["concurrence_click_1"]) < 1e-12

    def test_activation_is_squared_concurrence(self):
        for x in np.linspace(0.0, 1.0, 6):
            for a in np.linspace(0.1, 0.9, 5):
                amps = np.array([a, np.sqrt(1 - a * a)], dtype=complex)
                s = wave_detector_run(WernerInput(x, amps)).scalars
                assert s["nonlocality_click_0"] == pytest.approx(
                    s["concurrence_click_0"] ** 2, abs=1e-10)

    def test_activation_residual_reported(self):
        amps = np.array([0.6, 0.8], dtype=complex)
        s = wave_detector_run(WernerInput(0.9, amps)).scalars
        assert s["nonlocality_activation_residual"] < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_statistics_hold_everywhere(self, x, a):
        amps = np.array([a, np.sqrt(max(0.0, 1 - a * a))], dtype=complex)
        s = wave_detector_run(WernerInput(x, amps)).scalars
        assert s["p_click_0"] == pytest.approx(0.5, abs=1e-10)
        assert abs(s["nonlocality_click_0"] - s["nonlocality_click_1"]) < 1e-12


class TestMeasurementModel:
    def test_alice_conditions_on_outcome(self):
        c = np.array([0.6, 0.8], dtype=complex)
        report = measurement_model(c, "alice", outcome=1)
        assert report.scalars["p_outcome"] == pytest.approx(0.64, abs=1e-12)
        np.testing.assert_allclose(report.states["quanton"].matrix,
                                   projector(basis_state(2, 1)), atol=1e-12)
        assert report.scalars["wavelike_q1"] == 0.0
        assert report.scalars["wavelike_pointer_q1"] == 0.0

    def test_alice_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcomeError):
            measurement_model(np.array([1.0, 0.0]), "alice", outcome=1)

    def test_alice_needs_outcome(self):
        with pytest.raises(ValidationError):
            measurement_model(np.array([0.6, 0.8]), "alice")

    def test_bob_keeps_the_mixture(self):
        c = np.array([0.6, 0.8j], dtype=complex)
        report = measurement_model(c, "bob")
        np.testing.assert_allclose(report.states["quanton"].matrix,
                                   np.diag([0.36, 0.64]), atol=1e-12)
        np.testing.assert_allclose(report.states["pointer"].matrix,
                                   np.diag([0.36, 0.64]), atol=1e-12)
        assert report.scalars["wavelike_q1"] == 0.0
        assert report.scalars["wavelike_pointer_q2"] == 0.0

    def test_pre_interaction_entropy_reported(self):
        c = np.array([0.5, 0.5, 1 / np.sqrt(2)], dtype=complex)
        report = measurement_model(c, "bob")
        p = np.abs(c) ** 2
        assert report.scalars["wavelike_pre_q1"] == pytest.approx(
            float(-(p * np.log(p)).sum()), abs=1e-12)

    def test_definite_branch_changes_nothing(self):
        c = np.array([1.0, 0.0], dtype=complex)
        for report in (measurement_model(c, "bob"),
                       measurement_model(c, "alice", outcome=0)):
            assert report.scalars["wavelike_pre_q1"] == 0.0
            np.testing.assert_allclose(report.states["quanton"].matrix,
                                       projector(basis_state(2, 0)), atol=1e-12)

    def test_unknown_perspective(self):
        with pytest.raises(ValidationError):
            measurement_model(np.array([0.6, 0.8]), "eve")


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
