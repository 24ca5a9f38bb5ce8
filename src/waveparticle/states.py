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
    """Rank-1 projector |psi><psi|; a stack (..., d) of vectors gives (..., d, d)."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi.conj()[..., None, :]


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the first argument's indices major.

    A stack (n, d, d) or (n, d) against one operator or vector is a stack of
    products, because np.kron pads the lower-rank factor with leading 1s.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _require_square(m: np.ndarray, name: str = "matrix", stack: bool = False) -> None:
    if not (m.ndim == 2 or stack and m.ndim > 2) or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")


def _first_failure(bad: np.ndarray) -> tuple[tuple[int, ...], str]:
    """Index of the first failing member of a stack, and ' [i]' naming it.

    A single matrix or vector has the empty index and name.
    """
    index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    return index, f" {list(index)}" if index else ""


def _unstack(values: np.ndarray):
    """A Python float for a single member, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def _clamp(values) -> np.ndarray:
    """max(0.0, v) elementwise: NaN and -0.0 become 0.0, as the builtin does."""
    return np.fmax(values, 0.0) + 0.0


def partial_trace(rho, split, keep: int) -> np.ndarray:
    """Reduced state on one factor of a bipartite split.

    Parameters
    ----------
    rho : array_like
        Density matrix on the product space, or a stack (..., d, d) of them.
    split : BipartiteSplit or (int, int)
        Dimensions of the two factors; their product must match rho.
    keep : int
        0 keeps the left factor, 1 keeps the right one.
    """
    rho = np.asarray(rho, dtype=complex)
    _require_square(rho, stack=True)
    dim_a, dim_b = int(split[0]), int(split[1])
    if dim_a < 1 or dim_b < 1 or rho.shape[-1] != dim_a * dim_b:
        raise ValidationError(
            f"split {dim_a}x{dim_b} does not factor dimension {rho.shape[-1]}")
    blocks = rho.reshape(*rho.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    if keep == 0:
        return np.einsum("...ikjk->...ij", blocks)
    if keep == 1:
        return np.einsum("...kikj->...ij", blocks)
    raise ValueError("keep must be 0 (left factor) or 1 (right factor)")


def hermitian_part(m, tol: float = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Check max |M - M^H| against tol and return (M + M^H)/2.

    m is one matrix or a stack (..., d, d) of them; the first failing member
    of a stack is named by its index. NaN and infinite entries are rejected
    before the difference is taken, so inf - inf raises no RuntimeWarning.
    """
    m = np.asarray(m, dtype=complex)
    _require_square(m, name, stack=True)
    if not np.isfinite(m).all():
        index, at = _first_failure(~np.isfinite(m).all(axis=(-2, -1)))
        bad = [tuple(int(i) for i in ij) for ij in np.argwhere(~np.isfinite(m[index]))]
        more = " ..." if len(bad) > 4 else ""
        raise ValidationError(f"{name}{at} has non-finite entries at {bad[:4]}{more}")
    adjoint = m.conj().swapaxes(-1, -2)
    deviation = np.abs(m - adjoint)
    if not float(np.max(deviation)) <= tol:
        worst = deviation.max(axis=(-2, -1))
        index, at = _first_failure(worst > tol)
        raise ValidationError(
            f"{name}{at} is not Hermitian: max |M - M^H| = {worst[index]:.3e} exceeds {tol:.1e}")
    return (m + adjoint) / 2.0


def eig_hermitian(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues come out descending, ties in eigh's order. Each eigenvector
    has its first component above 1e-12 in modulus made real and positive,
    so repeated runs agree bit for bit.

    Returns (eigenvalues, matrix of column eigenvectors).
    """
    m = np.asarray(m, dtype=complex)
    _require_square(m)
    w, v = np.linalg.eigh(hermitian_part(m, tol))
    pivot = v[np.argmax(np.abs(v) > _PHASE_EPS, axis=0), np.arange(v.shape[1])]
    v = v * (np.abs(pivot) / pivot)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def hs_norm_sq(m):
    """Squared Hilbert-Schmidt norm: sum of squared entry moduli, Tr(M^H M).

    A float for one matrix, an array for a stack (..., d, d).
    """
    m = np.asarray(m, dtype=complex)
    _require_square(m, stack=True)
    return _unstack(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def validate_pure(psi, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check normalization of an amplitude vector and return it as complex."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise ValidationError(
            f"amplitude vector must be 1-d and nonempty, got shape {psi.shape}")
    return _check_unit_norm(psi, tol)


def _check_unit_norm(psi: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check each vector along the last axis for unit norm; the first failing
    member of a stack is named by its index."""
    norm_sq = np.sum(np.abs(psi) ** 2, axis=-1)
    bad = ~(np.abs(norm_sq - 1.0) <= tol)
    if bad.any():
        index, at = _first_failure(bad)
        raise ValidationError(
            f"state{at} norm^2 = {float(norm_sq[index])!r} deviates from 1 beyond {tol:.1e}")
    return psi


def validate_density(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Certify a density matrix, repairing violations that stay within tol.

    Hermiticity, unit trace and positivity are checked first; eigenvalues
    are then clipped to [0, 1] and the trace renormalized, which removes
    floating point dust without masking real violations.
    """
    rho = np.asarray(rho, dtype=complex)
    _require_square(rho, "density matrix")
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
