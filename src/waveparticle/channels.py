"""Measurement-related maps: reference observables, dephasing and informer coupling."""

from __future__ import annotations

import numpy as np

from .states import (
    DEFAULT_TOL,
    ValidationError,
    _reject_first,
    hermitian_part,
    projector,
    validate_density,
    validate_pure,
)

class ReferenceObservable:
    """Orthonormal basis {|k>} defining rank-1 projectors and a dephasing map.

    The basis is stored as a square matrix whose columns are the basis
    vectors; orthonormality of a square set already implies completeness.
    columns may be a stack (..., d, d) of bases: the maps below then pair
    basis i with state i of a stack, and the first basis that is not
    orthonormal is named by its index.
    """

    _computational = False    # computational() sets it: populations are rho's diagonal

    def __init__(self, columns):
        u = np.asarray(columns, dtype=complex)
        if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
            raise ValidationError(
                f"basis must be a square matrix of column vectors, got shape {u.shape}")
        # a non-finite entry makes the deviation NaN, which fails the test below
        with np.errstate(invalid="ignore", over="ignore"):
            gram = u.conj().swapaxes(-1, -2) @ u
            deviation = np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1))
        _reject_first(~(deviation <= DEFAULT_TOL), lambda index, at: (
            f"basis{at} is not orthonormal: max |U^H U - 1| = "
            f"{deviation[index]:.3e} exceeds {DEFAULT_TOL:.1e}"))
        self.columns = u

    @property
    def dim(self) -> int:
        return self.columns.shape[-1]

    @classmethod
    def computational(cls, dim: int) -> "ReferenceObservable":
        # the identity is orthonormal by construction, so it skips the Gram check
        obs = cls.__new__(cls)
        obs.columns = np.eye(dim, dtype=complex)
        obs._computational = True
        return obs

    def projector(self, k: int) -> np.ndarray:
        return projector(self.columns[..., :, k])

    def __repr__(self) -> str:
        return f"ReferenceObservable(dim={self.dim})"


def _check_dims(rho, k_obs: ReferenceObservable) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (k_obs.dim, k_obs.dim):
        raise ValidationError(
            f"state shape {rho.shape} does not match observable dimension {k_obs.dim}")
    return rho


def populations(rho, k_obs: ReferenceObservable) -> np.ndarray:
    """Outcome probabilities <k|rho|k>, which are the dephased state's spectrum.

    A stack (..., d, d) of states gives a stack (..., d) of populations.
    rho must be finite and Hermitian within DEFAULT_TOL.
    """
    return _populations(hermitian_part(_check_dims(rho, k_obs), name="state"), k_obs)


def _populations(rho: np.ndarray, k_obs: ReferenceObservable) -> np.ndarray:
    if k_obs._computational:    # the same bits as the sum below with u = 1
        return np.diagonal(rho, axis1=-2, axis2=-1).real.copy()
    u = k_obs.columns
    return np.einsum("...ak,...ak->...k", u.conj(), rho @ u).real


def dephase(rho, k_obs: ReferenceObservable) -> np.ndarray:
    """Unread measurement of the reference observable.

    Keeps the populations on the reference basis and kills every coherence
    between distinct basis states. A stack (..., d, d) gives a stack. rho
    must be finite and Hermitian within DEFAULT_TOL.
    """
    return _dephase(hermitian_part(_check_dims(rho, k_obs), name="state"), k_obs)


def _dephase(rho: np.ndarray, k_obs: ReferenceObservable) -> np.ndarray:
    u = k_obs.columns
    return (u * _populations(rho, k_obs)[..., None, :]) @ u.conj().swapaxes(-1, -2)


def reduced_from_informer(amplitudes, gram) -> np.ndarray:
    """Quanton state left after entangling each branch with an informer state.

    amplitudes are the branch amplitudes c_k, and gram[k', k] is the overlap
    <I_k'|I_k> of the attached informer states: unit diagonal and positive
    semidefiniteness are required. Entry (k, k') of the state is
    c_k conj(c_k') <I_k'|I_k>; overlapping informer states preserve
    coherence, orthogonal ones erase it. A stack (..., n, n) of Gram
    matrices sharing the amplitudes gives a stack of states; the first
    failing Gram matrix is named by its index.
    """
    c = validate_pure(amplitudes)
    g = np.asarray(gram, dtype=complex)
    n = c.size
    if g.ndim < 2 or g.shape[-2:] != (n, n):
        raise ValidationError(
            f"Gram matrix shape {g.shape} does not match {n} branches")
    g = hermitian_part(g, name="Gram matrix")
    diag_dev = np.abs(np.diagonal(g, axis1=-2, axis2=-1) - 1.0).max(axis=-1)
    _reject_first(diag_dev > DEFAULT_TOL, lambda index, at: (
        f"Gram diagonal{at} deviates from 1 by {diag_dev[index]:.3e}, "
        "informer states must be normalized"))
    smallest = np.linalg.eigvalsh(g)[..., 0]
    _reject_first(smallest < -DEFAULT_TOL, lambda index, at: (
        f"Gram matrix{at} is not positive semidefinite: eigenvalue {smallest[index]:.3e}"))
    raw = (c[:, None] * c.conj()[None, :]) * g.swapaxes(-1, -2)
    return validate_density(raw)
