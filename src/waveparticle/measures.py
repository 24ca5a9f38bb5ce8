"""Entropies and the wave/particle information split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ReferenceObservable, dephase, populations
from .states import ValidationError, _clamp, _unstack, eig_hermitian, hermitian_part

VON_NEUMANN_Q_TOL = 1e-6
FULL_RANK_TOL = 1e-12
_LOG_FLOOR = 1e-15
BOLTZMANN_SI = 1.380649e-23


def _check_q(q: float) -> float:
    q = float(q)
    if not 0 < q < np.inf:
        raise ValueError(f"entropy order must be positive and finite, got {q}")
    return q


def shannon(p) -> float:
    """Shannon entropy -sum p ln p in nats, with the 0 ln 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError(
            f"probability vector must be 1-d and nonempty, got shape {p.shape}")
    smallest = float(p.min())
    if smallest < -1e-12:
        raise ValidationError(f"negative probability {smallest:.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"probabilities sum to {total!r}, not 1")
    positive = p[p > _LOG_FLOOR]
    return max(0.0, float(-(positive * np.log(positive)).sum()))


def tsallis_entropy(rho, q: float = 1.0):
    """Entropy of order q: (1 - Tr rho^q)/(q - 1), von Neumann as q -> 1.

    Orders within 1e-6 of 1 take the explicit von Neumann branch; eigenvalues
    below 1e-15 are dropped before the logarithm. A float for one matrix, an
    array for a stack (..., d, d).
    """
    q = _check_q(q)
    lam = np.linalg.eigvalsh(hermitian_part(rho, name="state"))
    return _unstack(_spectral_entropy(lam, q))


def _spectral_entropy(lam: np.ndarray, q: float) -> np.ndarray:
    """Entropy of each ascending spectrum along the last axis of lam."""
    lam = np.maximum(lam, 0.0)
    if abs(q - 1.0) < VON_NEUMANN_Q_TOL:
        # The dropped eigenvalues are a prefix of each ascending spectrum. Rows
        # dropping the same number are summed together, so each row is summed
        # exactly as its kept suffix alone would be, bit for bit at any size.
        rows = lam.reshape(-1, lam.shape[-1])
        dropped = (rows <= _LOG_FLOOR).sum(axis=1)
        starts = set(dropped.tolist())
        value = np.empty(len(rows))
        for start in starts:
            group = dropped == start if len(starts) > 1 else slice(None)
            tail = rows[group, start:]
            value[group] = -(tail * np.log(tail)).sum(axis=1)
        value = value.reshape(lam.shape[:-1])
    else:
        value = (1.0 - (lam ** q).sum(axis=-1)) / (q - 1.0)
    return _clamp(value)


def max_entropy(dim: int, q: float = 1.0) -> float:
    """Largest order-q entropy in a given dimension (maximally mixed state)."""
    q = _check_q(q)
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if abs(q - 1.0) < VON_NEUMANN_Q_TOL:
        return float(np.log(dim))
    return float((1.0 - float(dim) ** (1.0 - q)) / (q - 1.0))


def information(rho, q: float = 1.0) -> float:
    """Information content: maximal entropy minus the state's entropy."""
    dim = np.asarray(rho).shape[0]
    return max(0.0, max_entropy(dim, q) - tsallis_entropy(rho, q))


def duality(rho, k_obs: ReferenceObservable, q: float = 1.0) -> dict:
    """Entropy, dephased information and wave/particle split from one eigensolve.

    The dephased spectrum is the population vector, summed in the ascending
    order eigvalsh would return it in. rho may be a stack (..., d, d): each
    value is then an array over the stack instead of a float."""
    q = _check_q(q)
    rho = hermitian_part(rho, name="state")
    spectra = np.array([np.linalg.eigvalsh(rho), np.sort(populations(rho, k_obs))])
    entropy, dephased_entropy = _spectral_entropy(spectra, q)
    dephased_information, wavelike = _clamp(np.array([
        max_entropy(k_obs.dim, q) - dephased_entropy, dephased_entropy - entropy]))
    split = {
        "entropy": entropy,
        "dephased_information": dephased_information,
        "wavelike": wavelike,
        "particlelike": dephased_information + entropy,
    }
    return {key: _unstack(value) for key, value in split.items()}


def wavelike_info(rho, k_obs: ReferenceObservable, q: float = 1.0) -> float:
    """Entropy produced by an unread measurement of the reference observable.

    Vanishes exactly on states already diagonal in that basis; for q = 2 it
    equals the squared Hilbert-Schmidt distance to the dephased state.
    """
    return duality(rho, k_obs, q)["wavelike"]


def wavelike_upper_bound(rho, k_obs: ReferenceObservable, q: float = 1.0) -> float:
    """First-order bound on the wavelike information.

    Evaluates Tr[(rho - dephased) f'(rho)] where f is the spectral density
    of the order-q information. The derivative involves ln or negative
    powers for q <= 1, so the state must be full rank there.
    """
    q = _check_q(q)
    rho = np.asarray(rho, dtype=complex)
    w, v = eig_hermitian(rho)
    von_neumann = abs(q - 1.0) < VON_NEUMANN_Q_TOL
    if (von_neumann or q < 1.0) and float(w.min()) <= FULL_RANK_TOL:
        raise ValueError(
            f"state must be full rank for order q = {q}: min eigenvalue {float(w.min()):.3e}")
    if von_neumann:
        derivative = 1.0 + np.log(w)
    else:
        derivative = -(1.0 - q * w ** (q - 1.0)) / (q - 1.0)
    slope = (v * derivative) @ v.conj().T
    delta = rho - dephase(rho, k_obs)
    return float(np.trace(delta @ slope).real)


def particlelike_info(rho, k_obs: ReferenceObservable, q: float = 1.0) -> float:
    """Information accessible from the dephased state plus the entanglement
    entropy a purification carries; complements wavelike_info exactly."""
    return duality(rho, k_obs, q)["particlelike"]


@dataclass(frozen=True)
class ThermalContext:
    """Bath temperature and Boltzmann constant for work bookkeeping."""

    temperature: float = 1.0
    boltzmann_k: float = 1.0
    unit_mode: str = "natural"

    def __post_init__(self):
        if self.temperature <= 0 or self.boltzmann_k <= 0:
            raise ValidationError("temperature and boltzmann_k must be positive")
        if self.unit_mode not in ("natural", "SI"):
            raise ValidationError(f"unknown unit mode {self.unit_mode!r}")

    @classmethod
    def si(cls, temperature: float) -> "ThermalContext":
        return cls(temperature=temperature, boltzmann_k=BOLTZMANN_SI, unit_mode="SI")


NATURAL_UNITS = ThermalContext()


def work(rho, ctx: ThermalContext = NATURAL_UNITS) -> float:
    """Extractable work k_B T I(rho), using the von Neumann information."""
    return ctx.boltzmann_k * ctx.temperature * information(rho, 1.0)


def demon_work_gap(rho, k_obs: ReferenceObservable,
                   ctx: ThermalContext = NATURAL_UNITS) -> float:
    """Work advantage of the intact state over its secretly measured copy."""
    return work(rho, ctx) - work(dephase(rho, k_obs), ctx)
