"""Two-qubit nonlocality and entanglement measures."""

from __future__ import annotations

import numpy as np

from .states import (
    ValidationError,
    _check_unit_norm,
    _clamp,
    _unstack,
    eig_hermitian,
    hermitian_part,
    hs_norm_sq,
    partial_trace,
    projector,
    validate_pure,
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


def _check_two_qubit(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"two-qubit state must be 4x4, got shape {rho.shape}")
    return hermitian_part(rho, name="two-qubit state")


def correlation_matrix(rho) -> np.ndarray:
    """Pauli correlation tensor T_ij = Tr[rho (sigma_i x sigma_j)], order (x, y, z)."""
    rho = _check_two_qubit(rho)
    return np.einsum("ab,ijba->ij", rho, _PAULI_PRODUCTS).real


def chsh_nl(rho) -> tuple[float, float]:
    """Largest CHSH value over measurement settings, and the violation degree.

    The maximum is 2 sqrt(u1 + u2) with u1 >= u2 the two largest eigenvalues
    of T^T T; the violation degree is max(0, b_max^2 / 4 - 1).
    """
    t = correlation_matrix(rho)
    u = np.linalg.eigvalsh(t.T @ t)
    top_two = float(u[-1] + u[-2])
    b_max = 2.0 * float(np.sqrt(max(top_two, 0.0)))
    n_l = max(0.0, b_max * b_max / 4.0 - 1.0)
    return b_max, n_l


class ChshSettings:
    """Four Bloch measurement directions, two per side."""

    def __init__(self, a, a_prime, b, b_prime, tol: float = 1e-9):
        stored = []
        for name, vec in (("a", a), ("a_prime", a_prime), ("b", b), ("b_prime", b_prime)):
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (3,):
                raise ValidationError(f"setting {name} must be a 3-vector")
            norm = float(np.linalg.norm(arr))
            if abs(norm - 1.0) > tol:
                raise ValidationError(f"setting {name} has norm {norm!r}, expected 1")
            stored.append(arr)
        self.a, self.a_prime, self.b, self.b_prime = stored


def _bloch_operator(v: np.ndarray) -> np.ndarray:
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def chsh_operator(settings: ChshSettings) -> np.ndarray:
    """Bell operator for the given settings."""
    plus = settings.b + settings.b_prime
    minus = settings.b - settings.b_prime
    return (np.kron(_bloch_operator(settings.a), _bloch_operator(plus))
            + np.kron(_bloch_operator(settings.a_prime), _bloch_operator(minus)))


def chsh_value(rho, settings: ChshSettings) -> float:
    """Expectation of the Bell operator on a two-qubit state."""
    rho = _check_two_qubit(rho)
    return float(np.trace(rho @ chsh_operator(settings)).real)


def _unit_rows(rows: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    ok = norms[:, 0] > _UNIT_EPS
    out = fallback.copy()
    out[ok] = rows[ok] / norms[ok]
    return out


def chsh_bruteforce(rho, restarts: int = 32, iterations: int = 200,
                    seed: int = 0) -> float:
    """Best CHSH value found by random-restart alternating ascent.

    With one side held fixed the optimum on the other side is the normalized
    image of the setting combination under the correlation tensor, so every
    sweep is a closed-form update and the value never decreases. All restarts
    run in lockstep and are scored in closed form, a.T(b + b') + a'.T(b - b');
    only the winner is re-evaluated as an operator expectation.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rho = _check_two_qubit(rho)
    t = correlation_matrix(rho)
    rng = np.random.default_rng(seed)
    default = np.tile(np.array([0.0, 0.0, 1.0]), (restarts, 1))
    b = _unit_rows(rng.standard_normal((restarts, 3)), default)
    b_prime = _unit_rows(rng.standard_normal((restarts, 3)), default)
    a = _unit_rows(rng.standard_normal((restarts, 3)), default)
    a_prime = _unit_rows(rng.standard_normal((restarts, 3)), default)
    value = np.full(restarts, -np.inf)
    for _ in range(iterations):
        image_a = (b + b_prime) @ t.T
        image_a_prime = (b - b_prime) @ t.T
        a = _unit_rows(image_a, a)
        a_prime = _unit_rows(image_a_prime, a_prime)
        new_value = (np.linalg.norm(image_a, axis=1)
                     + np.linalg.norm(image_a_prime, axis=1))
        b = _unit_rows((a + a_prime) @ t, b)
        b_prime = _unit_rows((a - a_prime) @ t, b_prime)
        done = bool(np.all(new_value - value < 1e-10))
        value = np.maximum(new_value, value)
        if done:
            break
    scores = (np.einsum("ri,ij,rj->r", a, t, b + b_prime)
              + np.einsum("ri,ij,rj->r", a_prime, t, b - b_prime))
    i = int(np.argmax(scores))
    return chsh_value(rho, ChshSettings(a[i], a_prime[i], b[i], b_prime[i]))


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    The square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy) are
    evaluated as singular values of (V sqrt(L))^T (sy x sy) (V sqrt(L)), an
    algebraically identical form that avoids square roots of eigensolver
    noise near zero.
    """
    rho = _check_two_qubit(rho)
    w, v = eig_hermitian(rho)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    core = factor.T @ _SPIN_FLIP @ factor
    s = np.linalg.svd(core, compute_uv=False)
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))


def linear_entanglement(psi, split):
    """Linear entropy 1 - Tr(rho_A^2) of one marginal of a pure bipartite state.

    A float for one state; a stack (..., d) of states gives an array, and the
    first of them that is not normalized is named by its index.
    """
    psi = np.asarray(psi, dtype=complex)
    psi = validate_pure(psi) if psi.ndim <= 1 else _check_unit_norm(psi)
    dim_a, dim_b = int(split[0]), int(split[1])
    if psi.shape[-1] != dim_a * dim_b:
        raise ValidationError(
            f"split {dim_a}x{dim_b} does not factor dimension {psi.shape[-1]}")
    reduced = partial_trace(projector(psi), (dim_a, dim_b), keep=0)
    return _unstack(_clamp(1.0 - hs_norm_sq(reduced)))
