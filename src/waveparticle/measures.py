"""Entropies and the wave/particle information split."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channels import ReferenceObservable, _check_dims, _dephase, _populations
from .states import (
    ValidationError,
    _certified_spectrum,
    _check_spectrum,
    _clamp,
    _reject_first,
    _unstack,
)

FULL_RANK_TOL = 1e-12
_LOG_FLOOR = 1e-15
# Beyond this order (q - 1) ln(lam) turns the rounding error of an eigenvalue
# near 1 into an error of order one, and near 1e308 the product overflows.
_MAX_ORDER = 1e15
BOLTZMANN_SI = 1.380649e-23


def _check_q(q: float) -> float:
    q = float(q)
    if not 0 < q <= _MAX_ORDER:
        raise ValueError(
            f"entropy order must be positive and finite, at most {_MAX_ORDER:.0e}, got {q}")
    return q


def _check_orders(q) -> np.ndarray:
    """q, one order or a sequence of them, as a float array, each order checked."""
    orders = np.asarray(q, dtype=float)
    for order in orders.reshape(-1):
        _check_q(order)
    return orders


def shannon(p) -> float:
    """Shannon entropy -sum p ln p in nats, with the 0 ln 0 = 0 convention;
    p is checked as the spectrum of diag(p), as tsallis_entropy would check it."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError(
            f"probability vector must be 1-d and nonempty, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValidationError("probability vector has non-finite entries")
    _check_spectrum(np.sort(p))
    return float(_spectral_entropy(p, 1.0))


def tsallis_entropy(rho, q: float = 1.0):
    """Entropy of order q: -sum lam ln_q(lam) over the spectrum, von Neumann at q = 1.

    ln_q(x) = expm1((q - 1) ln x)/(q - 1) is continuous in q, with the limit
    ln x taken at q = 1 exactly. Eigenvalues at or below 1e-15 contribute
    nothing at every order. A float for one matrix, an array for a stack
    (..., d, d). A spectrum that does not sum to 1 or has an eigenvalue
    below -1e-9 is rejected.
    """
    q = _check_q(q)
    _, lam, _ = _certified_spectrum(rho)
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
    try:
        dim = operator.index(dim)   # an integer, numpy's included; 2.7 is refused
    except TypeError:
        raise ValueError(f"dimension must be an integer, got {dim!r}") from None
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return -_ln_q(-math.log(dim), q)


def information(rho, q: float = 1.0):
    """Information content: maximal entropy minus the state's entropy.

    A float for one matrix, an array for a stack (..., d, d).
    """
    dim = np.asarray(rho).shape[-1]
    return _unstack(_clamp(max_entropy(dim, q) - tsallis_entropy(rho, q)))


def duality(rho, k_obs: ReferenceObservable, q=1.0) -> dict:
    """Entropy, dephased information and wave/particle split from one eigensolve.

    The dephased spectrum is the population vector, summed in the ascending
    order eigvalsh would return it in. rho may be a stack (..., d, d): each
    value is then an array over the stack instead of a float. A stacked
    observable pairs basis i with state i, or with the one state given.
    q may be a 1-d sequence of orders: each value then gets a leading order
    axis, and each order the bits it would get alone."""
    _check_orders(q)
    rho, lam, _ = _certified_spectrum(rho)
    return _duality(rho, lam, k_obs, q)


def _duality(rho: np.ndarray, lam: np.ndarray, k_obs: ReferenceObservable, q) -> dict:
    """duality of a Hermitian rho, given its checked ascending spectrum lam
    and checked orders q."""
    orders = np.asarray(q, dtype=float)
    spectra = np.array(np.broadcast_arrays(
        lam, np.sort(_populations(_check_dims(rho, k_obs), k_obs))))
    values = np.empty((orders.size, 4, *spectra.shape[1:-1]))   # (order, key, ...)
    for j, order in enumerate(orders.reshape(-1).tolist()):
        entropy, dephased_entropy = _spectral_entropy(spectra, order)
        dephased_information, wavelike = _clamp(np.array([
            max_entropy(k_obs.dim, order) - dephased_entropy, dephased_entropy - entropy]))
        values[j] = entropy, dephased_information, wavelike, dephased_information + entropy
    return {key: _unstack(values[:, i].reshape(orders.shape + values.shape[2:]))
            for i, key in enumerate(("entropy", "dephased_information", "wavelike",
                                     "particlelike"))}


def wavelike_info(rho, k_obs: ReferenceObservable, q: float = 1.0) -> float:
    """Entropy produced by an unread measurement of the reference observable.

    Vanishes exactly on states already diagonal in that basis; for q = 2 it
    equals the squared Hilbert-Schmidt distance to the dephased state.
    """
    return duality(rho, k_obs, q)["wavelike"]


def wavelike_upper_bound(rho, k_obs: ReferenceObservable, q=1.0):
    """First-order bound on the wavelike information.

    Evaluates Tr[(rho - dephased) f'(rho)] where f is the spectral density
    of the order-q information, f'(lam) = 1 + q ln_q(lam). That slope diverges
    at a zero eigenvalue for q <= 1, so the state must be full rank there; for
    q > 1 a zero eigenvalue takes the limit ln_q(0) = -1/(q - 1). A float for
    one matrix, an array for a stack (..., d, d); the first member that is
    not full rank is named by its index. As in duality, q may be a 1-d
    sequence of orders: the bound then gets a leading order axis, from one
    eigensolve, and each order the bits it would get alone.
    """
    orders = _check_orders(q)
    rho, w, v = _certified_spectrum(rho, name="matrix", vectors=True)
    singular = orders[orders <= 1.0]
    if singular.size:
        smallest = w[..., 0]
        _reject_first(smallest <= FULL_RANK_TOL, lambda index, at: (
            f"state{at} must be full rank for order q = {float(singular[0])}: "
            f"min eigenvalue {float(smallest[index]):.3e}"), ValueError)
    log_w = np.log(w, out=np.full_like(w, -np.inf), where=w > 0.0)
    v_h = v.conj().swapaxes(-1, -2)
    delta = rho - _dephase(_check_dims(rho, k_obs), k_obs)
    bounds = np.array([
        np.trace(delta @ ((v * (1.0 + order * _ln_q(log_w, order))[..., None, :]) @ v_h),
                 axis1=-2, axis2=-1).real
        for order in orders.reshape(-1).tolist()])
    return _unstack(bounds.reshape(orders.shape + bounds.shape[1:]))


def particlelike_info(rho, k_obs: ReferenceObservable, q: float = 1.0) -> float:
    """Information accessible from the dephased state plus the entanglement
    entropy a purification carries; complements wavelike_info exactly."""
    return duality(rho, k_obs, q)["particlelike"]


@dataclass(frozen=True)
class ThermalContext:
    """Bath temperature and Boltzmann constant, positive and finite, for work bookkeeping."""

    temperature: float = 1.0
    boltzmann_k: float = 1.0

    def __post_init__(self):
        if not (0 < self.temperature < np.inf and 0 < self.boltzmann_k < np.inf):
            raise ValidationError("temperature and boltzmann_k must be positive and finite")

    @classmethod
    def si(cls, temperature: float) -> "ThermalContext":
        return cls(temperature=temperature, boltzmann_k=BOLTZMANN_SI)


NATURAL_UNITS = ThermalContext()


def work(rho, ctx: ThermalContext = NATURAL_UNITS) -> float:
    """Extractable work k_B T I(rho), using the von Neumann information."""
    return ctx.boltzmann_k * ctx.temperature * information(rho, 1.0)


def demon_work_gap(rho, k_obs: ReferenceObservable,
                   ctx: ThermalContext = NATURAL_UNITS) -> float:
    """Work advantage of the intact state over its secretly measured copy:
    k_B T times the von Neumann wavelike information that dephasing erases."""
    return ctx.boltzmann_k * ctx.temperature * wavelike_info(rho, k_obs, 1.0)
