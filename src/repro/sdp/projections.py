"""Cone and subspace projections used by the ADMM SDP solvers.

Both solvers iterate on ``(B, n, n)`` stacks. :func:`project_psd_batch`
PSD-projects a stack through the active array backend, for the diagonal
solver (:mod:`repro.sdp.batch`) and the see-saw; the NumPy kernel runs
one stacked ``eigh`` call, and LAPACK decomposes each slice
independently. The partition solver (:mod:`repro.sdp.admm`) runs the
same NumPy formula inline, so NPA bounds do not depend on the backend.
:func:`symmetrize` is the single-matrix form the Gram extractor uses.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError

__all__ = [
    "project_psd_batch",
    "symmetrize",
    "symmetrize_batch",
]


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part of a square matrix."""
    return (matrix + matrix.T) / 2.0


def symmetrize_batch(matrices: np.ndarray) -> np.ndarray:
    """Symmetric part of every matrix in a ``(..., n, n)`` stack."""
    return (matrices + matrices.swapaxes(-1, -2)) / 2.0


def project_psd_batch(matrices: np.ndarray, *, backend=None) -> np.ndarray:
    """PSD-project every matrix of a ``(B, n, n)`` stack at once.

    Dispatched through the active array backend (see
    :mod:`repro.backend`): the NumPy kernel runs one stacked
    :func:`numpy.linalg.eigh` call, the numba kernel a compiled
    per-slice loop. Each slice's projection is that slice's nearest PSD
    matrix in Frobenius norm, to LAPACK tolerance.

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

