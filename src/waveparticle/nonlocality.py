"""Two-qubit nonlocality and entanglement measures."""

from __future__ import annotations

import numpy as np

from .states import (
    ValidationError,
    _certified_spectrum,
    _clamp,
    _unstack,
    hermitian_part,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)
# _PAULI_PRODUCTS[i, j] = sigma_i x sigma_j
_PAULI_PRODUCTS = np.array([[np.kron(left, right) for right in PAULIS] for left in PAULIS])
_PAULI_PRODUCTS.setflags(write=False)
_UNIT_EPS = 1e-14


def _two_qubit(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValidationError(f"two-qubit state must be 4x4, got shape {rho.shape}")
    return rho


def correlation_matrix(rho) -> np.ndarray:
    """Pauli correlation tensor T_ij = Tr[rho (sigma_i x sigma_j)], order (x, y, z).

    A stack (..., 4, 4) of states gives a stack (..., 3, 3) of tensors.
    """
    return _correlations(hermitian_part(_two_qubit(rho), name="two-qubit state"))


def _correlations(rho: np.ndarray) -> np.ndarray:
    return np.einsum("...ab,ijba->...ij", rho, _PAULI_PRODUCTS).real


def chsh_nl(rho):
    """Largest CHSH value over measurement settings, and the violation degree.

    The maximum is 2 sqrt(u1 + u2) with u1 >= u2 the two largest eigenvalues
    of T^T T (Horodecki criterion); the violation degree is
    max(0, b_max^2 / 4 - 1). Two floats for one state, two arrays for a
    stack (..., 4, 4). The spectrum must be that of a density matrix, so
    every value stays within Tsirelson's bound 2 sqrt(2) up to rounding; the
    first member of a stack that fails is named.
    """
    h, _, _ = _certified_spectrum(_two_qubit(rho), name="two-qubit state")
    return _chsh_nl(_correlations(h))


def _chsh_nl(t: np.ndarray):
    """chsh_nl of certified states, given their correlation tensors t."""
    u = np.linalg.eigvalsh(t.swapaxes(-1, -2) @ t)
    b_max = 2.0 * np.sqrt(_clamp(u[..., -1] + u[..., -2]))
    n_l = _clamp(b_max * b_max / 4.0 - 1.0)
    return _unstack(b_max), _unstack(n_l)


def _two_qubit_measures(rho: np.ndarray, w: np.ndarray, v: np.ndarray):
    """chsh_max, nonlocality and concurrence of certified two-qubit states:
    Hermitian parts rho, their spectra w and eigenvectors v of any phases."""
    b_max, n_l = _chsh_nl(_correlations(rho))
    return b_max, n_l, _unstack(_concurrence(w, v))


def _bloch_operator(v: np.ndarray) -> np.ndarray:
    """v . sigma for each Bloch vector of a stack (..., 3)."""
    return (v[..., 0, None, None] * SIGMA_X + v[..., 1, None, None] * SIGMA_Y
            + v[..., 2, None, None] * SIGMA_Z)


def _kron2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of each pair of 2x2 matrices of two stacks (..., 2, 2), entry by entry."""
    return (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(x.shape[:-2] + (4, 4))


def _bell_operator(a, a_prime, b, b_prime) -> np.ndarray:
    """A (x) (b + b') + a' (x) (b - b') for settings stacked alike (..., 3)."""
    return (_kron2(_bloch_operator(a), _bloch_operator(b + b_prime))
            + _kron2(_bloch_operator(a_prime), _bloch_operator(b - b_prime)))


def _unit_rows(rows: np.ndarray, fallback: np.ndarray):
    """Each row (..., 3) over its norm, or the fallback row where the norm is
    not above _UNIT_EPS; and the norms (..., 1). The squares are added left to
    right, as np.linalg.norm adds three but without its strided reduction, so
    every other row gets the bits of rows / np.linalg.norm(rows, axis=-1,
    keepdims=True)."""
    sq = rows * rows
    norms = np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])[..., None]
    unit = norms > _UNIT_EPS
    if unit.all():
        return rows / norms, norms
    return np.divide(rows, norms, out=fallback.copy(), where=unit), norms


def _best_restart(t, a, a_prime, b, b_prime) -> np.ndarray:
    """Settings (n, 4, 3) of each state's best restart, scored in closed form
    as a.T(b + b') + a'.T(b - b') from restarts (n, restarts, 3)."""
    scores = (np.einsum("nri,nij,nrj->nr", a, t, b + b_prime)
              + np.einsum("nri,nij,nrj->nr", a_prime, t, b - b_prime))
    best = np.argmax(scores, axis=-1)[:, None, None]
    return np.stack([np.take_along_axis(v, best, axis=1)[:, 0]
                     for v in (a, a_prime, b, b_prime)], axis=1)


def chsh_bruteforce(rho, restarts: int = 32, iterations: int = 200, seed: int = 0):
    """Best CHSH value found by random-restart alternating ascent.

    With one side held fixed the optimum on the other side is the normalized
    image of the setting combination under the correlation tensor, so every
    sweep is a closed-form update and the value never decreases. The restarts
    run in lockstep and are scored in closed form; only the winner is
    re-evaluated as a Bell operator expectation.

    A float for one state; a stack (..., 4, 4) gives an array, and each
    member the bits it would get alone: every state starts from the same
    restarts drawn from seed, the states iterate in lockstep, and a state
    leaves in the iteration where none of its restarts gains 1e-10 any more,
    or in the last one. Non-density input is rejected as by chsh_nl.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rho, _, _ = _certified_spectrum(_two_qubit(rho), name="two-qubit state")
    t = _correlations(rho)
    shape = rho.shape[:-2]
    # A contiguous tensor keeps every member on the same matmul path, whichever
    # states are left in the working set; a strided view would not.
    rho, t = rho.reshape(-1, 4, 4), np.ascontiguousarray(t.reshape(-1, 3, 3))
    rng = np.random.default_rng(seed)
    default = np.tile(np.array([0.0, 0.0, 1.0]), (restarts, 1))
    starts = [_unit_rows(rng.standard_normal((restarts, 3)), default)[0] for _ in range(4)]
    b, b_prime, a, a_prime = np.broadcast_to(
        np.array(starts)[:, None], (4, len(t), restarts, 3))
    value = np.full((len(t), restarts), -np.inf)
    active = np.arange(len(t))
    winners = np.empty((len(t), 4, 3))
    for step in range(iterations):
        a, norm_a = _unit_rows((b + b_prime) @ t.swapaxes(-1, -2), a)
        a_prime, norm_a_prime = _unit_rows((b - b_prime) @ t.swapaxes(-1, -2), a_prime)
        new_value = norm_a[..., 0] + norm_a_prime[..., 0]
        b, _ = _unit_rows((a + a_prime) @ t, b)
        b_prime, _ = _unit_rows((a - a_prime) @ t, b_prime)
        done = np.all(new_value - value < 1e-10, axis=-1) | (step == iterations - 1)
        value = np.maximum(new_value, value)
        if done.any():
            winners[active[done]] = _best_restart(t[done], a[done], a_prime[done],
                                                  b[done], b_prime[done])
            t, a, a_prime, b, b_prime, value, active = (
                x[~done] for x in (t, a, a_prime, b, b_prime, value, active))
            if not active.size:
                break
    bell = _bell_operator(*winners.swapaxes(0, 1))
    values = np.trace(rho @ bell, axis1=-2, axis2=-1).real
    return _unstack(values.reshape(shape))


def concurrence(rho):
    """Wootters concurrence of a two-qubit state.

    The square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy) are
    evaluated as singular values of (V sqrt(L))^T (sy x sy) (V sqrt(L)), an
    algebraically identical form that avoids square roots of eigensolver
    noise near zero. A float for one state; a stack (..., 4, 4) gives an
    array from one batched eigh and svd. The spectrum must be that of a
    density matrix; the first member of a stack that fails is named.
    """
    _, w, v = _certified_spectrum(_two_qubit(rho), name="two-qubit state", vectors=True)
    return _unstack(_concurrence(w, v))


def _concurrence(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Concurrence from a checked spectrum w and eigenvectors v of any phases:
    they change the core only by a unitary congruence, which keeps its
    singular values."""
    factor = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    core = factor.swapaxes(-1, -2) @ _SPIN_FLIP @ factor
    s = np.linalg.svd(core, compute_uv=False)
    return _clamp(s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3])
