"""Measurement-related maps: dephasing, selective projection, purification."""

from __future__ import annotations

import numpy as np

from .states import (
    DEFAULT_TOL,
    ValidationError,
    eig_hermitian,
    hermitian_part,
    projector,
    validate_density,
    validate_pure,
)

IMPOSSIBLE_OUTCOME_TOL = 1e-12
PURIFY_RANK_TOL = 1e-12


class ImpossibleOutcomeError(ValueError):
    """Selected measurement outcome has (numerically) zero probability."""


class ReferenceObservable:
    """Orthonormal basis {|k>} defining rank-1 projectors and a dephasing map.

    The basis is stored as a square matrix whose columns are the basis
    vectors; orthonormality of a square set already implies completeness.
    """

    def __init__(self, columns, tol: float = DEFAULT_TOL):
        u = np.asarray(columns, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValidationError(
                f"basis must be a square matrix of column vectors, got shape {u.shape}")
        deviation = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        if not deviation <= tol:
            raise ValidationError(
                f"basis is not orthonormal: max |U^H U - 1| = {deviation:.3e} exceeds {tol:.1e}")
        self.columns = u

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @classmethod
    def computational(cls, dim: int) -> "ReferenceObservable":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def from_states(cls, vectors, tol: float = DEFAULT_TOL) -> "ReferenceObservable":
        cols = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
        return cls(cols, tol=tol)

    def vector(self, k: int) -> np.ndarray:
        return self.columns[:, k].copy()

    def projector(self, k: int) -> np.ndarray:
        return projector(self.columns[:, k])

    def __repr__(self) -> str:
        return f"ReferenceObservable(dim={self.dim})"


def _check_dims(rho, k_obs: ReferenceObservable, stack: bool = False) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    shape = rho.shape[-2:] if stack else rho.shape
    if shape != (k_obs.dim, k_obs.dim):
        raise ValidationError(
            f"state shape {rho.shape} does not match observable dimension {k_obs.dim}")
    return rho


def populations(rho, k_obs: ReferenceObservable) -> np.ndarray:
    """Outcome probabilities <k|rho|k>, which are the dephased state's spectrum.

    A stack (..., d, d) of states gives a stack (..., d) of populations.
    """
    rho = _check_dims(rho, k_obs, stack=True)
    u = k_obs.columns
    return np.einsum("ak,...ab,bk->...k", u.conj(), rho, u).real


def dephase(rho, k_obs: ReferenceObservable) -> np.ndarray:
    """Unread measurement of the reference observable.

    Keeps the populations on the reference basis and kills every coherence
    between distinct basis states.
    """
    u = k_obs.columns
    return (u * populations(rho, k_obs)) @ u.conj().T


def measure_select(rho, k_obs: ReferenceObservable, k: int) -> tuple[np.ndarray, float]:
    """Projective measurement with a selected outcome.

    Returns the conditional state (the projector on the outcome vector)
    together with the outcome probability.
    """
    rho = _check_dims(rho, k_obs)
    if not 0 <= k < k_obs.dim:
        raise ValueError(f"outcome index {k} out of range for dimension {k_obs.dim}")
    vec = k_obs.columns[:, k]
    p = float(np.real(vec.conj() @ rho @ vec))
    if p < IMPOSSIBLE_OUTCOME_TOL:
        raise ImpossibleOutcomeError(f"outcome {k} has probability {p:.3e}")
    return projector(vec), min(p, 1.0)


def measure_select_joint(rho, split, k_obs: ReferenceObservable,
                         k: int) -> tuple[np.ndarray, float]:
    """Measure the left factor of a bipartite state, keep the right one.

    Returns the conditional state of the unmeasured factor and the click
    probability.
    """
    rho = np.asarray(rho, dtype=complex)
    dim_a, dim_b = int(split[0]), int(split[1])
    if rho.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValidationError(
            f"state shape {rho.shape} does not match split {dim_a}x{dim_b}")
    if k_obs.dim != dim_a:
        raise ValidationError(
            f"observable dimension {k_obs.dim} does not match measured factor {dim_a}")
    if not 0 <= k < dim_a:
        raise ValueError(f"outcome index {k} out of range for dimension {dim_a}")
    vec = k_obs.columns[:, k]
    blocks = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    unnormalized = np.einsum("a,aibj,b->ij", vec.conj(), blocks, vec)
    p = float(np.real(np.trace(unnormalized)))
    if p < IMPOSSIBLE_OUTCOME_TOL:
        raise ImpossibleOutcomeError(f"outcome {k} has probability {p:.3e}")
    conditional = unnormalized / p
    conditional = (conditional + conditional.conj().T) / 2.0
    return conditional, min(p, 1.0)


def purify(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Pure bipartite vector whose left marginal reproduces rho.

    Uses the spectral form sum_i sqrt(l_i) |v_i>|i>, keeping eigenvalues
    above 1e-12 only, so the ancilla dimension equals the rank.
    """
    w, v = eig_hermitian(np.asarray(rho, dtype=complex), tol=tol)
    keep = w > PURIFY_RANK_TOL
    amplitudes = np.sqrt(w[keep])
    vectors = v[:, keep]
    return (vectors * amplitudes).reshape(-1)


class InformerModel:
    """Branch amplitudes plus the Gram matrix of the attached informer states.

    gram[k', k] is the overlap <I_k'|I_k>; unit diagonal and positive
    semidefiniteness are required.
    """

    def __init__(self, amplitudes, gram, tol: float = DEFAULT_TOL):
        c = validate_pure(amplitudes, tol=tol)
        g = np.asarray(gram, dtype=complex)
        n = c.size
        if g.shape != (n, n):
            raise ValidationError(
                f"Gram matrix shape {g.shape} does not match {n} branches")
        g = hermitian_part(g, tol, "Gram matrix")
        diag_dev = float(np.max(np.abs(np.diag(g) - 1.0)))
        if diag_dev > tol:
            raise ValidationError(
                f"Gram diagonal deviates from 1 by {diag_dev:.3e}, informer states must be normalized")
        smallest = float(np.linalg.eigvalsh(g).min())
        if smallest < -tol:
            raise ValidationError(
                f"Gram matrix is not positive semidefinite: eigenvalue {smallest:.3e}")
        self.amplitudes = c
        self.gram = g

    @property
    def branches(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"InformerModel(branches={self.branches})"


def reduced_from_informer(model: InformerModel) -> np.ndarray:
    """Quanton state left after entangling each branch with an informer state.

    Entry (k, k') is c_k conj(c_k') <I_k'|I_k>; overlapping informer states
    preserve coherence, orthogonal ones erase it.
    """
    c = model.amplitudes
    raw = (c[:, None] * c.conj()[None, :]) * model.gram.T
    return validate_density(raw)
