"""Cone and subspace projections used by the ADMM SDP solvers.

Every projection comes in two flavors: a single-matrix form used by the
partition solver (:mod:`repro.sdp.admm`) and a ``*_batch`` form operating
on a ``(B, n, n)`` stack, used by the diagonal solver
(:mod:`repro.sdp.batch`). The batched PSD projection runs one stacked
``eigh`` call, which is where the stacked ADMM solver gets its
throughput: LAPACK decomposes each slice independently, so per-slice
results match the single-matrix projection.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError

__all__ = [
    "project_psd",
    "project_psd_batch",
    "symmetrize",
    "symmetrize_batch",
]


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part of a square matrix."""
    return (matrix + matrix.T) / 2.0


def symmetrize_batch(matrices: np.ndarray) -> np.ndarray:
    """Symmetric part of every matrix in a ``(..., n, n)`` stack."""
    return (matrices + np.swapaxes(matrices, -1, -2)) / 2.0


def project_psd_batch(matrices: np.ndarray, *, backend=None) -> np.ndarray:
    """PSD-project every matrix of a ``(B, n, n)`` stack at once.

    Dispatched through the active array backend (see
    :mod:`repro.backend`): the NumPy kernel runs one stacked
    :func:`numpy.linalg.eigh` call, the numba kernel a compiled
    per-slice loop. Each slice's projection equals :func:`project_psd`
    of that slice to LAPACK tolerance.

    Args:
        backend: an :class:`~repro.backend.ArrayBackend`, a registry
            name, or ``None`` for environment/auto resolution.
    """
    from repro.backend import ArrayBackend, get_backend

    if matrices.ndim != 3 or matrices.shape[-1] != matrices.shape[-2]:
        raise SolverError(
            f"cannot batch-PSD-project shape {matrices.shape}"
        )
    kernels = backend if isinstance(backend, ArrayBackend) else get_backend(backend)
    return kernels.project_psd_batch(matrices)


def project_psd(matrix: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone (Frobenius-nearest)."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SolverError(f"cannot PSD-project shape {matrix.shape}")
    sym = symmetrize(matrix)
    eigs, vecs = np.linalg.eigh(sym)
    clipped = eigs.clip(min=0.0)
    return (vecs * clipped) @ vecs.T

