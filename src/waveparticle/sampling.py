"""Random states, bases, and distributions for property testing."""

from __future__ import annotations

import numpy as np


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1.0j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary (QR of a Ginibre matrix, phases fixed)."""
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    diag = np.diagonal(r).copy()
    diag /= np.abs(diag)
    return q * diag


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix from a square Ginibre factor."""
    g = _ginibre(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_full_rank_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random density matrix bounded away from singularity."""
    rho = random_density(rng, dim)
    return 0.95 * rho + 0.05 * np.eye(dim, dtype=complex) / dim


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix with O(1) entries."""
    g = _ginibre(rng, dim, dim)
    return (g + g.conj().T) / 2.0


def random_probabilities(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random point on the probability simplex."""
    return rng.dirichlet(np.ones(dim))
