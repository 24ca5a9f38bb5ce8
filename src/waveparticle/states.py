"""Dense complex linear algebra for states on small Hilbert spaces."""

from __future__ import annotations

import operator

import numpy as np

DEFAULT_TOL = 1e-9


class ValidationError(ValueError):
    """A state or operator failed a structural check."""


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


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")


def _reject_first(bad: np.ndarray, message, error=ValidationError) -> None:
    """Raise error(message(index, at)) naming the first True member of bad.

    at is ' [i, j]' for that member's index, empty for a single (0-d) input.
    """
    if np.count_nonzero(bad):  # about 1 us; bad.any() takes about 2 us, np.any 5
        index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise error(message(index, f" {list(index)}" if index else ""))


def _unstack(values: np.ndarray):
    """A Python float for a single member, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def _clamp(values) -> np.ndarray:
    """max(0.0, v) elementwise: NaN and -0.0 become 0.0, as the builtin does."""
    return np.fmax(values, 0.0) + 0.0


def _check_spectrum(lam: np.ndarray) -> np.ndarray:
    """Check ascending spectra (..., d) of density matrices: each sums to 1
    and has no eigenvalue below 0, within DEFAULT_TOL; the first failing
    member of a stack is named by its index."""
    total = lam.sum(axis=-1)
    smallest = lam[..., 0]
    ok = (abs(total - 1.0) <= DEFAULT_TOL) & (smallest >= -DEFAULT_TOL)
    _reject_first(~ok, lambda index, at: (
        f"state{at} is not a density matrix: eigenvalues sum to {float(total[index])!r}, "
        f"smallest {float(smallest[index]):.3e} (tolerance {DEFAULT_TOL:.1e})"))
    return lam


def _factor_dims(split) -> tuple[int, int]:
    """The two factor dimensions of a split: integers, numpy's included, and
    both positive; 2.5 is refused, not truncated."""
    try:
        dim_a, dim_b = (operator.index(dim) for dim in split)
    except (TypeError, ValueError):   # not integers, or not two of them
        raise ValidationError(f"factor dimensions must be two integers, got {split!r}") from None
    if dim_a < 1 or dim_b < 1:
        raise ValidationError(f"factor dimensions must be positive, got {dim_a}x{dim_b}")
    return dim_a, dim_b


def partial_trace(rho, split, keep: int) -> np.ndarray:
    """Reduced state on one factor of a bipartite split.

    Parameters
    ----------
    rho : array_like
        Density matrix on the product space, or a stack (..., d, d) of them.
    split : (int, int)
        Dimensions of the two factors; their product must match rho.
    keep : int
        0 keeps the left factor, 1 keeps the right one.
    """
    rho = np.asarray(rho, dtype=complex)
    _require_square(rho)
    dim_a, dim_b = _factor_dims(split)
    if rho.shape[-1] != dim_a * dim_b:
        raise ValidationError(
            f"split {dim_a}x{dim_b} does not factor dimension {rho.shape[-1]}")
    blocks = rho.reshape(*rho.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    if keep == 0:
        return np.einsum("...ikjk->...ij", blocks)
    if keep == 1:
        return np.einsum("...kikj->...ij", blocks)
    raise ValueError("keep must be 0 (left factor) or 1 (right factor)")


def hermitian_part(m, *, name: str = "matrix") -> np.ndarray:
    """Check max |M - M^H| against DEFAULT_TOL and return (M + M^H)/2.

    m is one matrix or a stack (..., d, d) of them; the first failing member
    of a stack is named by its index. NaN and infinite entries are rejected
    before the difference is taken, so inf - inf raises no RuntimeWarning.
    """
    m = np.asarray(m, dtype=complex)
    _require_square(m, name)
    if not np.isfinite(m).all():
        def non_finite(index, at):
            bad = [tuple(int(i) for i in ij) for ij in np.argwhere(~np.isfinite(m[index]))]
            more = " ..." if len(bad) > 4 else ""
            return f"{name}{at} has non-finite entries at {bad[:4]}{more}"
        _reject_first(~np.isfinite(m).all(axis=(-2, -1)), non_finite)
    adjoint = m.conj().swapaxes(-1, -2)
    deviation = np.abs(m - adjoint)
    if not float(np.max(deviation)) <= DEFAULT_TOL:
        worst = deviation.max(axis=(-2, -1))
        _reject_first(worst > DEFAULT_TOL, lambda index, at: (
            f"{name}{at} is not Hermitian: max |M - M^H| = {worst[index]:.3e} "
            f"exceeds {DEFAULT_TOL:.1e}"))
    return (m + adjoint) / 2.0


def _certified_spectrum(m, *, name: str = "state", vectors: bool = False):
    """Hermitian part of m, its ascending spectrum checked as that of a
    density matrix, and with vectors=True eigh's column eigenvectors (else None).

    The eigenvectors keep the phases eigh gives them: a caller may use them
    only in forms that do not depend on those phases, such as V f(w) V^H.
    """
    h = hermitian_part(m, name=name)
    if vectors:
        w, v = np.linalg.eigh(h)
    else:
        w, v = np.linalg.eigvalsh(h), None
    return h, _check_spectrum(w), v


def hs_norm_sq(m):
    """Squared Hilbert-Schmidt norm: sum of squared entry moduli, Tr(M^H M).

    A float for one matrix, an array for a stack (..., d, d).
    """
    m = np.asarray(m, dtype=complex)
    _require_square(m)
    return _unstack(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def validate_pure(psi) -> np.ndarray:
    """Check normalization of an amplitude vector and return it as complex."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise ValidationError(
            f"amplitude vector must be 1-d and nonempty, got shape {psi.shape}")
    with np.errstate(over="ignore"):   # a huge entry gives inf, refused below
        norm_sq = float(np.sum(np.abs(psi) ** 2))
    if not abs(norm_sq - 1.0) <= DEFAULT_TOL:
        raise ValidationError(
            f"state norm^2 = {norm_sq!r} deviates from 1 beyond {DEFAULT_TOL:.1e}")
    return psi


def validate_density(rho) -> np.ndarray:
    """Certify a density matrix, repairing violations that stay within DEFAULT_TOL.

    The spectrum of the Hermitian part is certified first; eigenvalues
    are then clipped to [0, 1] and the trace renormalized, which removes
    floating point dust without masking real violations. A stack (..., d, d)
    is certified member by member; the first failing one is named by its index.
    """
    return _repaired(rho)[0]


def _repaired(rho):
    """validate_density's repaired matrix, with the spectrum it was rebuilt
    from: the clipped eigenvalues over the rebuilt trace, still ascending, and
    eigh's column eigenvectors, whose phases only forms like V f(w) V^H may use."""
    # V diag(w) V^H does not depend on the eigenvector phases, so none are fixed
    _, w, v = _certified_spectrum(rho, name="density matrix", vectors=True)
    w = np.clip(w, 0.0, 1.0)
    fixed = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    trace = np.trace(fixed, axis1=-2, axis2=-1).real
    fixed = fixed / trace[..., None, None]
    return (fixed + fixed.conj().swapaxes(-1, -2)) / 2.0, w / trace[..., None], v
