"""Entropies and the wave/particle information split."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ReferenceObservable, dephase, populations
from .states import ValidationError, _clamp, _unstack, eig_hermitian, hermitian_part

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
    """Entropy of order q: -sum lam ln_q(lam) over the spectrum, von Neumann at q = 1.

    ln_q(x) = expm1((q - 1) ln x)/(q - 1) is continuous in q, with the limit
    ln x taken at q = 1 exactly. Eigenvalues at or below 1e-15 contribute
    nothing at every order. A float for one matrix, an array for a stack
    (..., d, d).
    """
    q = _check_q(q)
    lam = np.linalg.eigvalsh(hermitian_part(rho, name="state"))
    return _unstack(_spectral_entropy(lam, q))


def _ln_q(log_x, q: float):
    """Order-q logarithm expm1((q - 1) ln x)/(q - 1), given ln x; ln x at q = 1.

    A Python float stays on math, so max_entropy pays no numpy scalar cost."""
    if q == 1.0:
        return log_x
    expm1 = math.expm1 if isinstance(log_x, float) else np.expm1
    return expm1((q - 1.0) * log_x) / (q - 1.0)


def _spectral_entropy(lam: np.ndarray, q: float) -> np.ndarray:
    """Entropy of each spectrum along the last axis of lam."""
    log_lam = np.log(lam, out=np.zeros_like(lam), where=lam > _LOG_FLOOR)
    return _clamp(-(lam * _ln_q(log_lam, q)).sum(axis=-1))


def max_entropy(dim: int, q: float = 1.0) -> float:
    """Largest order-q entropy in a given dimension (maximally mixed state)."""
    q = _check_q(q)
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return -_ln_q(-math.log(dim), q)


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
    of the order-q information, f'(lam) = 1 + q ln_q(lam). That slope diverges
    at a zero eigenvalue for q <= 1, so the state must be full rank there; for
    q > 1 a zero eigenvalue takes the limit ln_q(0) = -1/(q - 1).
    """
    q = _check_q(q)
    rho = np.asarray(rho, dtype=complex)
    w, v = eig_hermitian(rho)
    if q <= 1.0 and float(w.min()) <= FULL_RANK_TOL:
        raise ValueError(
            f"state must be full rank for order q = {q}: min eigenvalue {float(w.min()):.3e}")
    log_w = np.log(w, out=np.full_like(w, -np.inf), where=w > 0.0)
    slope = (v * (1.0 + q * _ln_q(log_w, q))) @ v.conj().T
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
