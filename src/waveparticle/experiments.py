"""End-to-end interferometer and which-path scenarios."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import measures
from .channels import ReferenceObservable, measure_select, reduced_from_informer
from .nonlocality import _two_qubit_measures
from .states import (
    ValidationError,
    _certified_spectrum,
    _clamp,
    _reject_first,
    _unstack,
    hermitian_part,
    hs_norm_sq,
    partial_trace,
    projector,
    validate_pure,
)

BEAM_SPLITTER = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
_TWO_PI = 2.0 * np.pi
# wave_detector_run: the quanton on path j flips register qubit j of |00>
# (COUPLE), then crosses the beam splitter; detector k clicking applies the
# Kraus operator _CLICKS[k] = (<k| BS x 1) COUPLE (1 x |00>), which sends
# path j to register |10> (j = 0) or |01> (j = 1) with amplitude BS[k, j].
_CLICKS = np.zeros((2, 4, 2), dtype=complex)
_CLICKS[:, 2, 0] = BEAM_SPLITTER[:, 0]
_CLICKS[:, 1, 1] = BEAM_SPLITTER[:, 1]
_CLICKS_H = np.ascontiguousarray(_CLICKS.conj().swapaxes(-1, -2))
for _constant in (_CLICKS, _CLICKS_H):
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


def _checked_phase(phi) -> np.ndarray:
    """Finite phases reduced modulo 2 pi; the first non-finite one is named."""
    phi = np.asarray(phi, dtype=float)
    _reject_first(~np.isfinite(phi), lambda index, at: (
        f"phase phi = {float(phi[index])!r} is not finite"))
    return phi % _TWO_PI


def _checked_range(values, label: str, shown: str = "[0, 1]",
                   high: float = 1.0) -> np.ndarray:
    """Values in [0, high]; the first one outside (NaN included) is named."""
    values = np.asarray(values, dtype=float)
    _reject_first(~((0.0 <= values) & (values <= high)), lambda index, at: (
        f"{label} = {float(values[index])!r} outside {shown}"))
    return values


def _checked_qubit(amplitudes) -> np.ndarray:
    """Normalized amplitudes of a single qubit, as complex."""
    c = validate_pure(amplitudes)
    if c.size != 2:
        raise ValidationError("amplitudes must describe a single qubit")
    return c


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


def _dual_measures(split: dict) -> dict[str, float]:
    """The q = 1 and q = 2 wave/particle scalars of a duality(..., (1.0, 2.0)) split."""
    return {f"{key}_q{i + 1}": _unstack(split[key][i])
            for i in (0, 1) for key in ("wavelike", "particlelike")}


def mzi_run(phi, bs2: str = "present") -> ExperimentReport:
    """Single-quanton interferometer run.

    The quanton enters on path 0, is split, and picks up the relative phase
    phi, which must be finite and is reduced modulo 2 pi. The output
    splitter mode bs2 is 'present' or 'absent': the quanton reaches the
    detectors after recombination or directly. A splitter in superposition
    is dce_analyze's scenario.

    Detector probabilities are the path populations of the state in front
    of the detectors, and the wave/particle measures of that state, with
    the wavelike information of the state inside, are evaluated in the path
    basis; one duality call certifies both states as a stack. An array of
    phases gives arrays of scalars and stacks of states over the grid; the
    first non-finite phase is named.
    """
    if bs2 not in ("present", "absent"):
        raise ValidationError(f"unknown bs2 mode {bs2!r}")
    mid = phase_shifter(_checked_phase(phi)) @ BEAM_SPLITTER[:, 0]
    pre_detector = (BEAM_SPLITTER @ mid[..., None])[..., 0] if bs2 == "present" else mid
    rho_mid = projector(mid)
    rho_pre = projector(pre_detector)
    populations = np.abs(pre_detector) ** 2
    dual_split = measures.duality(np.stack([rho_pre, rho_mid]), path_basis(2), (1.0, 2.0))
    scalars = {
        "p_detector_0": _unstack(populations[..., 0]),
        "p_detector_1": _unstack(populations[..., 1]),
        **_dual_measures({key: value[:, 0] for key, value in dual_split.items()}),
        "wavelike_mid_q1": _unstack(dual_split["wavelike"][0, 1]),
        "wavelike_mid_q2": _unstack(dual_split["wavelike"][1, 1]),
    }
    states = {
        "mid": ReportState((2,), rho_mid),
        "pre_detector": ReportState((2,), rho_pre),
    }
    return ExperimentReport("mzi", scalars, states)


def dce_analyze(bs2_alpha, phi) -> ExperimentReport:
    """Interferometer whose output splitter is controlled by a qubit.

    The control decides whether the splitter acts ('in') or not ('out'): the
    joint pure state is the quanton inside the interferometer on control |0>
    and that state after the splitter on control |1>, weighted by the
    control's amplitudes. The control is traced out, and the wave/particle
    measures of the remaining quanton state are reported together with the
    entanglement of the pair.

    Either argument may be an array of grid values, broadcast against the
    other; the scalars are then arrays over the grid and the states stacks
    (..., d, d). A failed check names the first offending grid value, or the
    index of the first offending state.
    """
    phase = _checked_phase(phi)
    alpha = _checked_range(bs2_alpha, "bs2_alpha", "[0, pi/2]", np.pi / 2.0 + 1e-12)
    control = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1).astype(complex)
    inside = phase_shifter(phase) @ BEAM_SPLITTER[:, 0]
    branches = inside[..., :, None] * control[..., None, :]   # (..., path, control)
    branches[..., :, 1:] = BEAM_SPLITTER @ branches[..., :, 1:]
    joint = branches.reshape(*branches.shape[:-2], 4)
    rho_joint = projector(joint)
    rho_q = partial_trace(rho_joint, (2, 2), keep=0)
    dual_split = measures.duality(rho_q, path_basis(2), (1.0, 2.0))
    scalars = {
        "p_detector_0": _unstack(rho_q[..., 0, 0].real),
        "p_detector_1": _unstack(rho_q[..., 1, 1].real),
        **_dual_measures(dual_split),
        "entanglement_linear": _unstack(_clamp(1.0 - hs_norm_sq(rho_q))),
        "entanglement_entropy": _unstack(dual_split["entropy"][0]),
    }
    states = {
        "joint": ReportState((2, 2), rho_joint),
        "quanton": ReportState((2,), rho_q),
    }
    return ExperimentReport("dce", scalars, states)


def wave_detector_run(x, amplitudes) -> ExperimentReport:
    """Which-path recorder feeding a beam splitter and two detectors.

    The input is the mixture (1 - x) 1/2 + x |psi><psi| of the maximally
    mixed qubit and the pure qubit psi whose two amplitudes are given;
    the mixing weight x lies in [0, 1]. Two register qubits start in |00>;
    a quanton on path 0 flips the first, on path 1 the second,
    nondestructively. After the quanton crosses the beam splitter one
    detector clicks, leaving the register in a conditional state whose
    concurrence and CHSH violation quantify how wavelike the input was. The
    identity n_l = 2 * wavelike_q2(input) is reported as a residual. Click k
    is the fixed 4x2 Kraus operator _CLICKS[k] from the quanton to the
    register, so one product gives both clicks' states. _CLICKS[1] =
    (S x S^H) _CLICKS[0] with S = diag(1, i), so click 1's state is a local
    unitary image of click 0's: one certified spectral pass measures click 0,
    and click 1 gets the same CHSH value, nonlocality and concurrence. An
    array of mixing weights runs the whole grid as one stack, giving arrays
    of scalars and stacks of states; the first weight outside [0, 1] is
    named.
    """
    x = _checked_range(x, "mixing weight x")[..., None, None]
    rho_q = ((1.0 - x) * np.eye(2, dtype=complex) / 2.0
             + x * projector(_checked_qubit(amplitudes)))
    duals = _dual_measures(measures.duality(rho_q, path_basis(2), (1.0, 2.0)))
    clicked = _CLICKS @ rho_q[..., None, :, :] @ _CLICKS_H   # (..., click, 4, 4)
    # p_k = Tr rho_q / 2 for every valid input, so neither click is impossible
    p = np.trace(clicked, axis1=-2, axis2=-1).real
    clicked = clicked / p[..., None, None]
    conditional, w, v = _certified_spectrum(clicked[..., 0, :, :],
                                            name="two-qubit state", vectors=True)
    b_max, n_l, c = _two_qubit_measures(conditional, w, v)
    scalars = {}
    for k in (0, 1):
        scalars.update({f"p_click_{k}": _unstack(np.minimum(p[..., k], 1.0)),
                        f"chsh_max_click_{k}": b_max, f"nonlocality_click_{k}": n_l,
                        f"concurrence_click_{k}": c})
    scalars.update(duals)
    scalars["nonlocality_activation_residual"] = _unstack(
        np.abs(n_l - 2.0 * np.asarray(duals["wavelike_q2"])))
    states = {
        "input": ReportState((2,), rho_q),
        "conditional_click_0": ReportState((2, 2), conditional),
        "conditional_click_1": ReportState(
            (2, 2), hermitian_part(clicked[..., 1, :, :], name="two-qubit state")),
    }
    return ExperimentReport("wave-detector", scalars, states)


def measurement_model(amplitudes, perspective: str,
                      outcome: int | None = None) -> ExperimentReport:
    """Minimal pointer-coupling model of a measurement.

    The quanton branch |k> drives an orthonormal pointer state |k>, giving
    the premeasurement state sum_k c_k |k>|k>. The 'alice' perspective reads
    the pointer and conditions on one outcome: measure_select on the
    pointer's marginal diag(|c_k|^2), whose conditional state is then both
    the pointer's and the quanton's. The 'bob' perspective keeps the unread
    joint state and looks at the marginals. Either way the post-interaction
    quanton and pointer are particlelike in their own bases, while the input
    quanton carried wavelike information H(|c_k|^2).
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
        rho_q, extra["p_outcome"] = measure_select(np.diag(probabilities), obs, outcome)
    elif perspective == "bob":
        rho_joint = projector(np.diag(c).reshape(-1))
        rho_q = partial_trace(rho_joint, (branches, branches), keep=0)
    else:
        raise ValidationError(f"unknown perspective {perspective!r}")
    # The premeasurement is symmetric in quanton and pointer, so the pointer's
    # marginal is the quanton's, bit for bit, and one split measures both.
    duals = _dual_measures(measures.duality(rho_q, obs, (1.0, 2.0)))
    scalars = {
        "wavelike_pre_q1": pre_wavelike,
        **extra,
        **duals,
        "wavelike_pointer_q1": duals["wavelike_q1"],
        "wavelike_pointer_q2": duals["wavelike_q2"],
    }
    states = {
        "quanton": ReportState((branches,), rho_q),
        "pointer": ReportState((branches,), rho_q),
    }
    return ExperimentReport("measurement-model", scalars, states)


def morphing_scan(amplitudes, eta) -> ExperimentReport:
    """Quanton entangled with an informer of tunable distinguishability.

    eta is the overlap between the informer states tied to the two branches:
    1 leaves the superposition untouched, 0 records full which-path
    information and erases the coherence. An array of overlaps gives arrays
    of scalars and a stack of states.
    """
    c = _checked_qubit(amplitudes)
    eta = _checked_range(eta, "overlap eta")
    gram = np.ones((*eta.shape, 2, 2), dtype=complex)
    gram[..., 0, 1] = gram[..., 1, 0] = eta
    rho_q = reduced_from_informer(c, gram)
    scalars = _dual_measures(measures.duality(rho_q, path_basis(2), (1.0, 2.0)))
    states = {"quanton": ReportState((2,), rho_q)}
    return ExperimentReport("morphing", scalars, states)
