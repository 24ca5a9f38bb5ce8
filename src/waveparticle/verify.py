"""Self-contained verification suite with frozen grids and seeds.

Each check compares a library result against an independently coded
expectation and reports the worst residual. The CLI `verify` command and
the acceptance tests both run this list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import measures, sampling
from .channels import ReferenceObservable, dephase
from .experiments import (
    BEAM_SPLITTER,
    balanced_path_state,
    dce_analyze,
    measurement_model,
    morphing_scan,
    mzi_run,
    path_basis,
    wave_detector_run,
)
from .nonlocality import chsh_bruteforce, chsh_nl, concurrence
from .states import basis_state, projector


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str


def _shannon_rows(p: np.ndarray) -> np.ndarray:
    """-sum p ln p over p > 1e-15 for each row of p (n, d).

    The terms are formed on the whole stack and added column by column from
    the left, the order in which Python's sum adds one row's terms; numpy's
    pairwise sum would reorder them at d = 8.
    """
    terms = -p * np.log(p, out=np.zeros_like(p), where=p > 1e-15)
    total = np.zeros(len(p))
    for column in terms.T:
        total += column
    return total


def _entropies_q1_q2(matrices) -> dict[float, np.ndarray]:
    """Von Neumann and linear entropy of each matrix of a stack (n, d, d),
    from its clipped spectrum."""
    spectra = np.clip(np.linalg.eigvalsh(matrices), 0.0, None)
    return {1.0: _shannon_rows(spectra), 2.0: 1.0 - np.sum(spectra ** 2, axis=-1)}


def _dephased(rho: np.ndarray, obs: ReferenceObservable) -> np.ndarray:
    """Sum over k of P_k rho P_k, with P_k = |k><k| made from basis column k;
    rho and the basis may be stacks (n, d, d)."""
    total = np.zeros_like(rho)
    for k in range(obs.dim):
        vec = obs.columns[..., :, k]
        p_k = vec[..., :, None] * vec[..., None, :].conj()
        total += p_k @ rho @ p_k
    return total


def _draws_by_dimension(rng: np.random.Generator, count: int):
    """Draw i of count has dimension 2 + i % 7. In ascending dimension d,
    yield d, a stack of the len(range(d - 2, count, 7)) Ginibre members of
    that dimension, and the stacked Haar-random observable of as many more
    factors; both stacks come from one ginibre(rng, d, (2, n)) call."""
    for dim in range(2, 2 + min(count, 7)):
        members, factors = sampling.ginibre(rng, dim, (2, len(range(dim - 2, count, 7))))
        yield dim, members, ReferenceObservable(sampling.haar_unitary(factors))


# sigma_y x sigma_y, written out
_SPIN_FLIP = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
                      dtype=complex)


def _wootters_concurrence(states: np.ndarray) -> np.ndarray:
    """Concurrence of each state of a stack (n, 4, 4) from the square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy), largest first."""
    flipped = states @ _SPIN_FLIP @ states.conj() @ _SPIN_FLIP
    roots = np.sort(np.sqrt(np.clip(np.linalg.eigvals(flipped).real, 0.0, None)), axis=-1)
    return np.maximum(0.0, roots[:, 3] - roots[:, 2] - roots[:, 1] - roots[:, 0])


def _qubit_pair(a: float) -> np.ndarray:
    return np.array([a, np.sqrt(max(0.0, 1.0 - a * a))], dtype=complex)


def _wave_detector_grid() -> list:
    """The 10x10 grid in (x, |alpha|) of checks 03 and 04: per |alpha|, the
    mixing weights, the amplitudes and the report of wave_detector_run."""
    xs = np.linspace(0.0, 1.0, 10)
    return [(xs, amps, wave_detector_run(xs, amps))
            for amps in map(_qubit_pair, np.linspace(0.0, 1.0, 10))]


def _conditional_states(xs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Both clicks' conditional register states (2, n, 4, 4) in closed form:
    rho_q = (1 - x) 1/2 + x |amps><amps| leaves rho_00 on |10><10|, rho_11 on
    |01><01| and 2 BS[k, 0] conj(BS[k, 1]) rho_01 on |10><01|, with its
    conjugate on |01><10|; every other entry is zero."""
    rho = ((1.0 - xs)[:, None, None] * np.eye(2) / 2.0
           + xs[:, None, None] * np.outer(amps, amps.conj()))
    states = np.zeros((2, len(xs), 4, 4), dtype=complex)
    states[..., 2, 2], states[..., 1, 1] = rho[:, 0, 0], rho[:, 1, 1]
    states[..., 2, 1] = (2.0 * (BEAM_SPLITTER[:, 0] * BEAM_SPLITTER[:, 1].conj())[:, None]
                         * rho[:, 0, 1])
    states[..., 1, 2] = states[..., 2, 1].conj()
    return states


def check_balanced_state_wavelike() -> CheckResult:
    obs = path_basis(2)
    residual = 0.0
    for phi in np.arange(13) * (np.pi / 6.0):
        iw = measures.wavelike_info(projector(balanced_path_state(phi)), obs, 1.0)
        residual = max(residual, abs(iw - np.log(2.0)))
    return CheckResult("01_balanced_state_wavelike_ln2", residual < 1e-12,
                       residual, 1e-12, "13 phases, inside the interferometer")


def check_recombined_state_entropy() -> CheckResult:
    phis = np.linspace(0.0, 2.0 * np.pi, 24)
    report = mzi_run(phis, bs2="present")
    x = np.cos(phis / 2.0) ** 2
    expected = _shannon_rows(np.column_stack([x, 1.0 - x]))
    residual = float(np.max(np.abs(report.scalars["wavelike_q1"] - expected)))
    return CheckResult("02_recombined_state_binary_entropy", residual < 1e-12,
                       residual, 1e-12, "24 phases, output splitter present")


def check_wave_detector_entanglement(grid: list | None = None) -> CheckResult:
    residual = 0.0
    for xs, amps, report in grid or _wave_detector_grid():
        ab, scalars = abs(amps[0] * amps[1]), report.scalars
        expected = _conditional_states(xs, amps)
        for k in (0, 1):
            residual = max(
                residual,
                float(np.max(np.abs(scalars[f"concurrence_click_{k}"] - 2.0 * xs * ab))),
                float(np.max(np.abs(scalars[f"nonlocality_click_{k}"]
                                    - 4.0 * xs * xs * ab * ab))),
                float(np.max(np.abs(report.states[f"conditional_click_{k}"].matrix
                                    - expected[k]))),
            )
    return CheckResult("03_wave_detector_entanglement_nonlocality",
                       residual < 1e-10, residual, 1e-10,
                       "10x10 grid in (x, |alpha|), both clicks' scalars and states")


def check_werner_activation(grid: list | None = None) -> CheckResult:
    residual = 0.0
    for xs, amps, report in grid or _wave_detector_grid():
        ab, scalars = abs(amps[0] * amps[1]), report.scalars
        iw2 = scalars["wavelike_q2"]
        residual = max(residual, float(np.max(np.abs(iw2 - 2.0 * xs * xs * ab * ab))))
        for k in (0, 1):
            residual = max(
                residual,
                float(np.max(np.abs(scalars[f"nonlocality_click_{k}"] - 2.0 * iw2))))
    return CheckResult("04_werner_wavelike_activation", residual < 1e-10,
                       residual, 1e-10,
                       "10x10 grid; activated nonlocality = twice wavelike info")


def check_delayed_choice_forms() -> CheckResult:
    alphas = np.linspace(0.0, np.pi / 2.0, 20)
    phis = np.linspace(0.0, 2.0 * np.pi, 20)
    scalars = dce_analyze(alphas[:, None], phis[None, :]).scalars
    residual = 0.0
    margin = np.inf
    for i, alpha in enumerate(alphas):
        for j, phi in enumerate(phis):
            particlelike = float(scalars["particlelike_q2"][i, j])
            cos2 = np.cos(phi) ** 2
            ip2 = 0.5 * (1.0 - np.cos(alpha) ** 4) * cos2
            e2 = 0.25 * np.sin(2.0 * alpha) ** 2 * cos2
            residual = max(residual,
                           abs(particlelike - ip2),
                           abs(float(scalars["entanglement_linear"][i, j]) - e2))
            if 0 < i < len(alphas) - 1 and abs(np.cos(phi)) > 1e-9:
                margin = min(margin, 0.5 - particlelike)
    passed = residual < 1e-10 and margin > 0.0
    return CheckResult("05_delayed_choice_closed_forms", passed, residual, 1e-10,
                       f"20x20 grid; strict-bound margin {margin:.3e}")


def check_complementarity() -> CheckResult:
    residual = 0.0
    for dim, g, obs in _draws_by_dimension(np.random.default_rng(6), 1000):
        rho = sampling.density(g)
        before, after = _entropies_q1_q2(rho), _entropies_q1_q2(_dephased(rho, obs))
        split = measures.duality(rho, obs, (1.0, 2.0))
        for i, q in enumerate((1.0, 2.0)):
            iw = split["wavelike"][i]
            total = iw + split["particlelike"][i]
            residual = max(residual,
                           float(np.max(np.abs(total - measures.max_entropy(dim, q)))),
                           float(np.max(np.abs(iw - (after[q] - before[q])))))
    return CheckResult("06_complementarity_equality", residual < 1e-10,
                       residual, 1e-10, "1000 random states, dims 2-8, q in {1,2}")


def check_klein_bound() -> CheckResult:
    violation = -np.inf
    for _, g, obs in _draws_by_dimension(np.random.default_rng(7), 1000):
        rho = sampling.full_rank_density(g)
        iw = measures.wavelike_info(rho, obs, (1.0, 2.0))
        ub = measures.wavelike_upper_bound(rho, obs, (1.0, 2.0))
        violation = max(violation, float(np.max(-iw)), float(np.max(iw - ub)),
                        # the slope is 2 rho - 1 at q = 2, so the bound is exactly 2 I_w
                        float(np.max(np.abs(ub[1] - 2.0 * iw[1]))))
    residual = max(0.0, violation)
    return CheckResult("07_klein_bound_sandwich", violation < 1e-10,
                       residual, 1e-10,
                       "1000 random full-rank states, q in {1,2}; bound = 2 I_w at q = 2")


def check_chsh_oracle() -> CheckResult:
    rng = np.random.default_rng(8)
    states = sampling.density(sampling.ginibre(rng, 4, (200,)))
    estimates = chsh_bruteforce(states, restarts=32, iterations=1000, seed=0)
    b_max, _ = chsh_nl(states)
    residual = float(np.max(np.abs(b_max - estimates)))
    overshoot = max(0.0, float(np.max(estimates - b_max)))
    # the states are full rank, so every singular value's sign shows
    wootters = float(np.max(np.abs(concurrence(states) - _wootters_concurrence(states))))
    passed = residual < 1e-4 and overshoot < 1e-9 and wootters < 1e-10
    return CheckResult("08_chsh_oracle_agreement", passed, residual, 1e-4,
                       f"200 random two-qubit states; overshoot {overshoot:.3e}; "
                       f"concurrence vs Wootters {wootters:.3e} (bound 1e-10)")


def check_commutator_identity() -> CheckResult:
    residual = 0.0
    for dim, g, obs in _draws_by_dimension(np.random.default_rng(9), 500):
        j = sampling.hermitian(g)
        total = np.zeros_like(j)
        for k in range(dim):
            p_k = obs.projector(k)
            total += (j @ p_k - p_k @ j) @ p_k
        residual = max(residual, float(np.max(np.abs((j - dephase(j, obs)) - total))))
    return CheckResult("09_dephasing_commutator_identity", residual < 1e-10,
                       residual, 1e-10, "500 random Hermitian matrices, dims 2-8")


def check_joint_entropy() -> CheckResult:
    residual = 0.0
    for dim, g, obs in _draws_by_dimension(np.random.default_rng(10), 500):
        # normalized |first column|^2 of a Ginibre matrix is uniform on the simplex
        p = np.abs(g[..., 0]) ** 2
        p /= np.sum(p, axis=-1, keepdims=True)
        rho = sum(p[:, k, None, None] * obs.projector(k) for k in range(dim))
        residual = max(residual, float(np.max(np.abs(
            measures.tsallis_entropy(rho, 1.0) - _shannon_rows(p)))))
    return CheckResult("10_joint_entropy_theorem", residual < 1e-10,
                       residual, 1e-10, "500 random distributions, dims 2-8")


def check_uniform_branches() -> CheckResult:
    residual = 0.0
    for n in range(2, 9):
        psi = np.ones(n, dtype=complex) / np.sqrt(n)
        iw = measures.wavelike_info(projector(psi), path_basis(n), 1.0)
        residual = max(residual, abs(iw - np.log(n)))
    return CheckResult("11_uniform_branch_scaling", residual < 1e-12,
                       residual, 1e-12, "uniform superpositions, 2-8 branches")


def check_measurement_perspectives() -> CheckResult:
    cases = [
        np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
        np.array([0.6, 0.8], dtype=complex),
        np.array([0.5, 0.5, 1.0 / np.sqrt(2.0)], dtype=complex),
        np.array([0.5, 0.5, 0.5, 0.5j], dtype=complex),
    ]
    residual = 0.0
    for c in cases:
        probabilities = np.abs(c) ** 2
        expected = _shannon_rows(probabilities[None])[0]
        obs = path_basis(c.size)
        iw_pre = measures.wavelike_info(projector(c), obs, 1.0)
        residual = max(residual, abs(iw_pre - expected))
        reports = [measurement_model(c, "bob")]
        reports.extend(measurement_model(c, "alice", outcome=k)
                       for k in range(c.size) if probabilities[k] > 1e-12)
        for report in reports:
            for key in ("wavelike_q1", "wavelike_q2",
                        "wavelike_pointer_q1", "wavelike_pointer_q2"):
                residual = max(residual, report.scalars[key])
    return CheckResult("12_measurement_perspectives", residual < 1e-12,
                       residual, 1e-12,
                       "post-interaction states particlelike from both views")


def check_relational_diagnosis() -> CheckResult:
    rho = projector(basis_state(2, 0))
    z_basis = ReferenceObservable.computational(2)
    x_basis = ReferenceObservable(
        np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0))
    residual = max(measures.wavelike_info(rho, z_basis, 1.0),
                   abs(measures.wavelike_info(rho, x_basis, 1.0) - np.log(2.0)))
    return CheckResult("13_relational_diagnosis", residual < 1e-12,
                       residual, 1e-12,
                       "definite path: particlelike along z, wavelike along x")


def check_morphing_limit() -> CheckResult:
    etas = np.linspace(0.0, 1.0, 11)
    residual = 0.0
    for a in np.linspace(0.0, 1.0, 11):
        amps = _qubit_pair(a)
        ab2 = abs(amps[0] * amps[1]) ** 2
        wavelike = morphing_scan(amps, etas).scalars["wavelike_q2"]
        residual = max(residual,
                       float(np.max(np.abs(wavelike - 2.0 * ab2 * etas * etas))))
    balanced = morphing_scan(_qubit_pair(1.0 / np.sqrt(2.0)), 1.0)
    residual = max(residual, abs(balanced.scalars["wavelike_q2"] - 0.5))
    return CheckResult("14_informer_overlap_morphing", residual < 1e-10,
                       residual, 1e-10, "11x11 grid in (|alpha|, overlap)")


CHECKS: list[Callable[[], CheckResult]] = [
    check_balanced_state_wavelike,
    check_recombined_state_entropy,
    check_wave_detector_entanglement,
    check_werner_activation,
    check_delayed_choice_forms,
    check_complementarity,
    check_klein_bound,
    check_chsh_oracle,
    check_commutator_identity,
    check_joint_entropy,
    check_uniform_branches,
    check_measurement_perspectives,
    check_relational_diagnosis,
    check_morphing_limit,
]


# the checks that read _wave_detector_grid(), called alone, evaluate it
# themselves; matched by name, so a wrapped check still gets the shared grid
_GRID_CHECKS = ("check_wave_detector_entanglement", "check_werner_activation")


def run_checks() -> list[CheckResult]:
    """Every check in order; the grid checks share one evaluation of the grid."""
    grid = _wave_detector_grid()
    return [check(grid) if check.__name__ in _GRID_CHECKS else check() for check in CHECKS]
