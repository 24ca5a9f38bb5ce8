"""Measurement-related maps: dephasing, selective projection, purification."""

from __future__ import annotations

import numpy as np

from .states import (
    DEFAULT_TOL,
    ValidationError,
    _check_spectrum,
    _reject_first,
    _unstack,
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

    @classmethod
    def from_states(cls, vectors) -> "ReferenceObservable":
        return cls(np.column_stack([np.asarray(v, dtype=complex) for v in vectors]))

    def vector(self, k: int) -> np.ndarray:
        return self.columns[..., :, k].copy()

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


def measure_select(rho, k_obs: ReferenceObservable, k: int):
    """Projective measurement with a selected outcome.

    Returns the conditional state (the projector on the outcome vector)
    together with the outcome probability. A stack (..., d, d) shares that
    projector and gives an array of probabilities; the first member for
    which the outcome is impossible is named by its index. This is
    measure_select_joint with a trivial unmeasured factor (split d x 1).
    """
    rho = _check_dims(rho, k_obs)
    _, p = measure_select_joint(rho, (k_obs.dim, 1), k_obs, k)
    return k_obs.projector(k), p


def measure_select_joint(rho, split, k_obs: ReferenceObservable, k: int):
    """Measure the left factor of a bipartite state, keep the right one.

    Returns the conditional state of the unmeasured factor and the click
    probability. A stack (..., dA dB, dA dB) gives a stack of conditional
    states and an array of probabilities; the first member for which the
    outcome is impossible is named by its index.
    """
    rho = np.asarray(rho, dtype=complex)
    dim_a, dim_b = int(split[0]), int(split[1])
    if rho.ndim < 2 or rho.shape[-2:] != (dim_a * dim_b, dim_a * dim_b):
        raise ValidationError(
            f"state shape {rho.shape} does not match split {dim_a}x{dim_b}")
    if k_obs.dim != dim_a:
        raise ValidationError(
            f"observable dimension {k_obs.dim} does not match measured factor {dim_a}")
    if k_obs.columns.ndim > 2:
        raise ValidationError(f"a selected outcome needs one basis, "
                              f"got a stack of shape {k_obs.columns.shape}")
    if not 0 <= k < dim_a:
        raise ValueError(f"outcome index {k} out of range for dimension {dim_a}")
    vec = k_obs.columns[:, k]
    blocks = rho.reshape(*rho.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    unnormalized = np.einsum("a,...aibj,b->...ij", vec.conj(), blocks, vec)
    p = np.trace(unnormalized, axis1=-2, axis2=-1).real
    _reject_first(p < IMPOSSIBLE_OUTCOME_TOL, lambda index, at: (
        f"outcome {k}{at} has probability {p[index]:.3e}"), ImpossibleOutcomeError)
    conditional = unnormalized / p[..., None, None]
    conditional = (conditional + conditional.conj().swapaxes(-1, -2)) / 2.0
    return conditional, _unstack(np.minimum(p, 1.0))


def purify(rho) -> np.ndarray:
    """Pure bipartite vector whose left marginal reproduces rho.

    Uses the spectral form sum_i sqrt(l_i) |v_i>|i>, keeping eigenvalues
    above 1e-12 only, so the ancilla dimension equals the rank. rho must be
    one density matrix, checked within DEFAULT_TOL like every state.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim > 2:
        raise ValidationError(f"state must be one matrix, got a stack of shape {rho.shape}")
    w, v = eig_hermitian(rho)
    _check_spectrum(w[::-1])
    keep = w > PURIFY_RANK_TOL
    amplitudes = np.sqrt(w[keep])
    vectors = v[:, keep]
    return (vectors * amplitudes).reshape(-1)


class InformerModel:
    """Branch amplitudes plus the Gram matrix of the attached informer states.

    gram[k', k] is the overlap <I_k'|I_k>; unit diagonal and positive
    semidefiniteness are required. gram may be a stack (..., n, n) of Gram
    matrices sharing the amplitudes; the first failing one is named by its
    index.
    """

    def __init__(self, amplitudes, gram):
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
    preserve coherence, orthogonal ones erase it. A stack of Gram matrices
    gives a stack (..., n, n) of states.
    """
    c = model.amplitudes
    raw = (c[:, None] * c.conj()[None, :]) * model.gram.swapaxes(-1, -2)
    return validate_density(raw)
