"""End-to-end interferometer and which-path scenarios."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import measures
from .channels import (
    ImpossibleOutcomeError,
    InformerModel,
    ReferenceObservable,
    measure_select_joint,
    reduced_from_informer,
)
from .nonlocality import chsh_nl, concurrence, linear_entanglement
from .states import (
    BipartiteSplit,
    ValidationError,
    _unstack,
    basis_state,
    partial_trace,
    projector,
    tensor,
    validate_pure,
)

BEAM_SPLITTER = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
_TWO_PI = 2.0 * np.pi
_EYE2 = np.eye(2, dtype=complex)
_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# dce_analyze: the output splitter acts when the control qubit is |1>.
_CONTROLLED = (tensor(_EYE2, projector(basis_state(2, 0)))
               + tensor(BEAM_SPLITTER, projector(basis_state(2, 1))))
# wave_detector_run: register |00><00|, path k flips register qubit k, then
# the quanton crosses the beam splitter.
_REGISTER = projector(tensor(basis_state(2, 0), basis_state(2, 0)))
_COUPLE = (tensor(projector(basis_state(2, 0)), tensor(_FLIP, _EYE2))
           + tensor(projector(basis_state(2, 1)), tensor(_EYE2, _FLIP)))
_MIX = tensor(BEAM_SPLITTER, np.eye(4, dtype=complex))
for _constant in (_EYE2, _FLIP, _CONTROLLED, _REGISTER, _COUPLE, _MIX):
    _constant.setflags(write=False)


def phase_shifter(phi) -> np.ndarray:
    """Phase plate acting on arm 1 only; an array of phases gives a stack."""
    phi = np.asarray(phi, dtype=float)
    plate = np.zeros((*phi.shape, 2, 2), dtype=complex)
    plate[..., 0, 0] = 1.0
    plate[..., 1, 1] = np.exp(1.0j * phi)
    return plate


def path_basis(dim: int = 2) -> ReferenceObservable:
    """Which-path reference observable (computational basis)."""
    return ReferenceObservable.computational(dim)


def balanced_path_state(phi: float) -> np.ndarray:
    """State inside the interferometer: (|0> + i e^{i phi} |1>) / sqrt(2)."""
    return np.array([1.0, 1.0j * np.exp(1.0j * phi)], dtype=complex) / np.sqrt(2.0)


def recombined_state(phi: float) -> np.ndarray:
    """Output state after the second splitter: cos(phi/2)|1> - sin(phi/2)|0>."""
    return np.array([-np.sin(phi / 2.0), np.cos(phi / 2.0)], dtype=complex)


def _checked_phase(phi) -> np.ndarray:
    """Finite phases reduced modulo 2 pi; the first non-finite one is named."""
    phi = np.asarray(phi, dtype=float)
    bad = ~np.isfinite(phi)
    if bad.any():
        raise ValidationError(f"phase phi = {float(phi[bad][0])!r} is not finite")
    return phi % _TWO_PI


def _checked_splitter_angle(alpha) -> np.ndarray:
    """Splitter angles in [0, pi/2]; the first one outside is named."""
    alpha = np.asarray(alpha, dtype=float)
    bad = ~((0.0 <= alpha) & (alpha <= np.pi / 2.0 + 1e-12))
    if bad.any():
        raise ValidationError(f"bs2_alpha = {float(alpha[bad][0])!r} outside [0, pi/2]")
    return alpha


@dataclass(frozen=True)
class MziConfig:
    """Interferometer configuration: relative phase and output splitter mode.

    The phase must be finite and is reduced modulo 2 pi at construction. The
    splitter mode is 'present', 'absent', or 'superposed'; the last needs
    bs2_alpha in [0, pi/2] setting the amplitude on the acting branch.
    """

    phi: float
    bs2: str = "present"
    bs2_alpha: float | None = None

    def __post_init__(self):
        if self.bs2 not in ("present", "absent", "superposed"):
            raise ValidationError(f"unknown bs2 mode {self.bs2!r}")
        object.__setattr__(self, "phi", float(_checked_phase(float(self.phi))))
        if self.bs2 == "superposed":
            if self.bs2_alpha is None:
                raise ValidationError("bs2_alpha is required when bs2 is superposed")
            alpha = float(_checked_splitter_angle(float(self.bs2_alpha)))
            object.__setattr__(self, "bs2_alpha", alpha)
        elif self.bs2_alpha is not None:
            raise ValidationError("bs2_alpha is only meaningful for the superposed mode")


class ReportState(NamedTuple):
    """Density matrix plus its tensor factorization, ready to serialize."""

    dims: tuple[int, ...]
    matrix: np.ndarray


@dataclass
class ExperimentReport:
    """Named scalar results plus the states they were computed from."""

    name: str
    scalars: dict[str, float]
    states: dict[str, ReportState]


def _dual_measures(rho: np.ndarray, obs: ReferenceObservable) -> dict[str, float]:
    one, two = (measures.duality(rho, obs, q) for q in (1.0, 2.0))
    return {"wavelike_q1": one["wavelike"], "particlelike_q1": one["particlelike"],
            "wavelike_q2": two["wavelike"], "particlelike_q2": two["particlelike"]}


def mzi_run(config: MziConfig) -> ExperimentReport:
    """Single-quanton interferometer run.

    The quanton enters on path 0, is split, and picks up the relative phase;
    it reaches the detectors either directly (splitter absent) or after
    recombination. Detector probabilities are the path populations of the
    state in front of the detectors, and the wave/particle measures of that
    state are evaluated in the path basis.
    """
    if config.bs2 == "superposed":
        raise ValidationError("a superposed output splitter is handled by dce_analyze")
    obs = path_basis(2)
    mid = phase_shifter(config.phi) @ (BEAM_SPLITTER @ basis_state(2, 0))
    pre_detector = BEAM_SPLITTER @ mid if config.bs2 == "present" else mid
    rho_mid = projector(mid)
    rho_pre = projector(pre_detector)
    populations = np.abs(pre_detector) ** 2
    scalars = {
        "p_detector_0": float(populations[0]),
        "p_detector_1": float(populations[1]),
        **_dual_measures(rho_pre, obs),
        "wavelike_mid_q1": measures.wavelike_info(rho_mid, obs, 1.0),
        "wavelike_mid_q2": measures.wavelike_info(rho_mid, obs, 2.0),
    }
    states = {
        "mid": ReportState((2,), rho_mid),
        "pre_detector": ReportState((2,), rho_pre),
    }
    return ExperimentReport("mzi", scalars, states)


def dce_analyze(bs2_alpha, phi) -> ExperimentReport:
    """Interferometer whose output splitter is controlled by a qubit.

    The control decides whether the splitter acts ('in') or not ('out'); the
    joint pure state is produced by the controlled circuit, the control is
    traced out, and the wave/particle measures of the remaining quanton state
    are reported together with the entanglement of the pair.

    Either argument may be an array of grid values, broadcast against the
    other; the scalars are then arrays over the grid and the states stacks
    (..., d, d). A failed check names the first offending grid value, or the
    index of the first offending state.
    """
    phase = _checked_phase(phi)
    alpha = _checked_splitter_angle(bs2_alpha)
    control = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1).astype(complex)
    start = tensor(basis_state(2, 0), control)
    inside = tensor(phase_shifter(phase) @ BEAM_SPLITTER, _EYE2)
    joint = (_CONTROLLED @ (inside @ start[..., None]))[..., 0]
    split = BipartiteSplit(2, 2)
    rho_joint = projector(joint)
    rho_q = partial_trace(rho_joint, split, keep=0)
    obs = path_basis(2)
    scalars = {
        "p_detector_0": _unstack(rho_q[..., 0, 0].real),
        "p_detector_1": _unstack(rho_q[..., 1, 1].real),
        **_dual_measures(rho_q, obs),
        "entanglement_linear": linear_entanglement(joint, split),
        "entanglement_entropy": measures.tsallis_entropy(rho_q, 1.0),
    }
    states = {
        "joint": ReportState((2, 2), rho_joint),
        "quanton": ReportState((2,), rho_q),
    }
    return ExperimentReport("dce", scalars, states)


@dataclass(frozen=True)
class WernerInput:
    """Mixing weight x plus the pure qubit the mixture is biased toward."""

    x: float
    amplitudes: np.ndarray

    def __post_init__(self):
        x = float(self.x)
        if not 0.0 <= x <= 1.0:
            raise ValidationError(f"mixing weight x = {x!r} outside [0, 1]")
        object.__setattr__(self, "x", x)
        amps = validate_pure(self.amplitudes)
        if amps.size != 2:
            raise ValidationError("amplitudes must describe a single qubit")
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> np.ndarray:
        return ((1.0 - self.x) * np.eye(2, dtype=complex) / 2.0
                + self.x * projector(self.amplitudes))


def wave_detector_run(werner: WernerInput) -> ExperimentReport:
    """Which-path recorder feeding a beam splitter and two detectors.

    Two register qubits start in |00>; a quanton on path 0 flips the first,
    on path 1 the second, nondestructively. After the quanton crosses the
    beam splitter one detector clicks, leaving the register in a conditional
    state whose concurrence and CHSH violation quantify how wavelike the
    input was. The identity n_l = 2 * wavelike_q2(input) is reported as a
    residual.
    """
    rho_q = werner.density()
    total = tensor(rho_q, _REGISTER)
    evolved = _COUPLE @ total @ _COUPLE.conj().T
    evolved = _MIX @ evolved @ _MIX.conj().T
    split = BipartiteSplit(2, 4)
    obs = path_basis(2)
    scalars: dict[str, float] = {}
    states: dict[str, ReportState] = {"input": ReportState((2,), rho_q)}
    duals = _dual_measures(rho_q, obs)
    activation_residual = 0.0
    for k in (0, 1):
        conditional, p = measure_select_joint(evolved, split, obs, k)
        b_max, n_l = chsh_nl(conditional)
        scalars[f"p_click_{k}"] = p
        scalars[f"chsh_max_click_{k}"] = b_max
        scalars[f"nonlocality_click_{k}"] = n_l
        scalars[f"concurrence_click_{k}"] = concurrence(conditional)
        states[f"conditional_click_{k}"] = ReportState((2, 2), conditional)
        activation_residual = max(activation_residual,
                                  abs(n_l - 2.0 * duals["wavelike_q2"]))
    scalars.update(duals)
    scalars["nonlocality_activation_residual"] = activation_residual
    return ExperimentReport("wave-detector", scalars, states)


def measurement_model(amplitudes, perspective: str,
                      outcome: int | None = None) -> ExperimentReport:
    """Minimal pointer-coupling model of a measurement.

    The quanton branch |k> drives an orthonormal pointer state |k>, giving
    the premeasurement state sum_k c_k |k>|k>. The 'alice' perspective reads
    the pointer and conditions on one outcome; the 'bob' perspective keeps
    the unread joint state and looks at the marginals. Either way the
    post-interaction quanton and pointer are particlelike in their own bases,
    while the input quanton carried wavelike information H(|c_k|^2).
    """
    c = validate_pure(amplitudes)
    branches = c.size
    if branches < 2:
        raise ValidationError("need at least two branches")
    obs = path_basis(branches)
    probabilities = np.abs(c) ** 2
    pre_wavelike = measures.shannon(probabilities)
    extra: dict[str, float] = {}
    if perspective == "alice":
        if outcome is None:
            raise ValidationError("the alice perspective needs an outcome index")
        if not 0 <= outcome < branches:
            raise ValueError(f"outcome index {outcome} out of range")
        p = float(probabilities[outcome])
        if p < 1e-12:
            raise ImpossibleOutcomeError(f"outcome {outcome} has probability {p:.3e}")
        rho_q = projector(basis_state(branches, outcome))
        rho_pointer = projector(basis_state(branches, outcome))
        extra["p_outcome"] = p
    elif perspective == "bob":
        joint = np.zeros(branches * branches, dtype=complex)
        for k in range(branches):
            joint[k * branches + k] = c[k]
        split = BipartiteSplit(branches, branches)
        rho_joint = projector(joint)
        rho_q = partial_trace(rho_joint, split, keep=0)
        rho_pointer = partial_trace(rho_joint, split, keep=1)
    else:
        raise ValidationError(f"unknown perspective {perspective!r}")
    scalars = {
        "wavelike_pre_q1": pre_wavelike,
        **extra,
        **_dual_measures(rho_q, obs),
        "wavelike_pointer_q1": measures.wavelike_info(rho_pointer, obs, 1.0),
        "wavelike_pointer_q2": measures.wavelike_info(rho_pointer, obs, 2.0),
    }
    states = {
        "quanton": ReportState((branches,), rho_q),
        "pointer": ReportState((branches,), rho_pointer),
    }
    return ExperimentReport("measurement-model", scalars, states)


def morphing_scan(amplitudes, eta: float) -> ExperimentReport:
    """Quanton entangled with an informer of tunable distinguishability.

    eta is the overlap between the informer states tied to the two branches:
    1 leaves the superposition untouched, 0 records full which-path
    information and erases the coherence.
    """
    c = validate_pure(amplitudes)
    if c.size != 2:
        raise ValidationError("amplitudes must describe a single qubit")
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"overlap eta = {eta!r} outside [0, 1]")
    gram = np.array([[1.0, eta], [eta, 1.0]], dtype=complex)
    rho_q = reduced_from_informer(InformerModel(c, gram))
    obs = path_basis(2)
    scalars = _dual_measures(rho_q, obs)
    states = {"quanton": ReportState((2,), rho_q)}
    return ExperimentReport("morphing", scalars, states)
