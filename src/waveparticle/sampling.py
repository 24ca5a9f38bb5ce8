"""Seeded Ginibre draws and the maps that turn them into random matrices.

`ginibre(rng, dim, size)` draws a stack `(*size, dim, dim)` of complex
Gaussian matrices in one call. The stream is drawn in stack order, real part
before imaginary part, so member i of a stack holds the numbers that the
i-th of a loop of single draws would hold. The maps below take such a stack
`(..., d, d)` and act on each member; on a stack each gives bit for bit what
it gives on every member alone.
"""

from __future__ import annotations

import numpy as np


def ginibre(rng: np.random.Generator, dim: int, size: tuple = ()) -> np.ndarray:
    """Stack (*size, dim, dim) of complex Ginibre matrices."""
    parts = rng.standard_normal((*size, 2, dim, dim))
    return parts[..., 0, :, :] + 1.0j * parts[..., 1, :, :]


def haar_unitary(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries: QR of each Ginibre matrix, phases fixed."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def density(g: np.ndarray) -> np.ndarray:
    """Random full-rank density matrices g g^H / Tr(g g^H)."""
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def full_rank_density(g: np.ndarray) -> np.ndarray:
    """Random density matrices bounded away from singularity."""
    dim = g.shape[-1]
    return 0.95 * density(g) + 0.05 * np.eye(dim, dtype=complex) / dim


def hermitian(g: np.ndarray) -> np.ndarray:
    """Random Hermitian matrices (g + g^H) / 2 with O(1) entries."""
    return (g + g.conj().swapaxes(-1, -2)) / 2.0

