"""Dense complex linear algebra for states on small Hilbert spaces."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9
_PHASE_EPS = 1e-12


class ValidationError(ValueError):
    """A state or operator failed a structural check."""


class _SplitBase(NamedTuple):
    dim_a: int
    dim_b: int


class BipartiteSplit(_SplitBase):
    """Factorization of a Hilbert space into a left and a right factor."""

    def __new__(cls, dim_a: int, dim_b: int):
        if int(dim_a) < 1 or int(dim_b) < 1:
            raise ValidationError(
                f"factor dimensions must be positive, got {dim_a}x{dim_b}")
        return super().__new__(cls, int(dim_a), int(dim_b))

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def basis_state(dim: int, k: int) -> np.ndarray:
    """Computational basis vector |k>."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dimension {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


def projector(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the first argument's indices major."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")


def partial_trace(rho, split, keep: int) -> np.ndarray:
    """Reduced state on one factor of a bipartite split.

    Parameters
    ----------
    rho : array_like
        Density matrix on the product space.
    split : BipartiteSplit or (int, int)
        Dimensions of the two factors; their product must match rho.
    keep : int
        0 keeps the left factor, 1 keeps the right one.
    """
    rho = np.asarray(rho, dtype=complex)
    _require_square(rho)
    dim_a, dim_b = int(split[0]), int(split[1])
    if dim_a < 1 or dim_b < 1 or rho.shape[0] != dim_a * dim_b:
        raise ValidationError(
            f"split {dim_a}x{dim_b} does not factor dimension {rho.shape[0]}")
    blocks = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == 0:
        return np.einsum("ikjk->ij", blocks)
    if keep == 1:
        return np.einsum("kikj->ij", blocks)
    raise ValueError("keep must be 0 (left factor) or 1 (right factor)")


def hermitian_part(m, tol: float = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Check max |M - M^H| against tol and return (M + M^H)/2."""
    m = np.asarray(m, dtype=complex)
    _require_square(m, name)
    deviation = float(np.max(np.abs(m - m.conj().T)))
    if deviation > tol:
        raise ValidationError(
            f"{name} is not Hermitian: max |M - M^H| = {deviation:.3e} exceeds {tol:.1e}")
    return (m + m.conj().T) / 2.0


def eig_hermitian(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues come out descending, ties in eigh's order. Each eigenvector
    has its first component above 1e-12 in modulus made real and positive,
    so repeated runs agree bit for bit.

    Returns (eigenvalues, matrix of column eigenvectors).
    """
    w, v = np.linalg.eigh(hermitian_part(m, tol))
    pivot = v[np.argmax(np.abs(v) > _PHASE_EPS, axis=0), np.arange(v.shape[1])]
    v = v * (np.abs(pivot) / pivot)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def hs_norm_sq(m) -> float:
    """Squared Hilbert-Schmidt norm: sum of squared entry moduli, Tr(M^H M)."""
    m = np.asarray(m, dtype=complex)
    _require_square(m)
    return float(np.sum(np.abs(m) ** 2))


def validate_pure(psi, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check normalization of an amplitude vector and return it as complex."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise ValidationError(
            f"amplitude vector must be 1-d and nonempty, got shape {psi.shape}")
    norm_sq = float(np.sum(np.abs(psi) ** 2))
    if abs(norm_sq - 1.0) > tol:
        raise ValidationError(
            f"state norm^2 = {norm_sq!r} deviates from 1 beyond {tol:.1e}")
    return psi


def validate_density(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Certify a density matrix, repairing violations that stay within tol.

    Hermiticity, unit trace and positivity are checked first; eigenvalues
    are then clipped to [0, 1] and the trace renormalized, which removes
    floating point dust without masking real violations.
    """
    rho = hermitian_part(rho, tol, "density matrix")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > tol:
        raise ValidationError(f"trace = {trace:.12g} deviates from 1 beyond {tol:.1e}")
    w, v = eig_hermitian(rho, tol=tol)
    smallest = float(w.min())
    if smallest < -tol:
        raise ValidationError(f"negative eigenvalue {smallest:.3e} beyond -{tol:.1e}")
    w = np.clip(w, 0.0, 1.0)
    fixed = (v * w) @ v.conj().T
    fixed = fixed / float(np.trace(fixed).real)
    return (fixed + fixed.conj().T) / 2.0
