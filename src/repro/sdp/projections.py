"""Cone and subspace projections used by the ADMM SDP solvers.

Both solvers iterate on ``(B, n, n)`` stacks. :func:`project_psd_batch`
PSD-projects a stack with the ``project_psd_batch`` kernel of
:func:`repro.backend.get_backend`'s table (one stacked ``eigh`` call;
LAPACK decomposes each slice independently), for the feasibility
repair and the see-saw. The diagonal solver (:mod:`repro.sdp.batch`)
calls that kernel itself in its iteration, and the partition solver
(:mod:`repro.sdp.admm`) runs the same NumPy formula inline.
:func:`symmetrize` is the single-matrix form the Gram extractor uses.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend
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


def project_psd_batch(matrices: np.ndarray) -> np.ndarray:
    """PSD-project every matrix of a ``(B, n, n)`` stack at once.

    Each slice's projection is that slice's nearest PSD matrix in
    Frobenius norm, to LAPACK tolerance.
    """
    if matrices.ndim != 3 or matrices.shape[-1] != matrices.shape[-2]:
        raise SolverError(
            f"cannot batch-PSD-project shape {matrices.shape}"
        )
    return get_backend().project_psd_batch(matrices)
