"""Gram-vector extraction from PSD matrices.

The Tsirelson construction (games.quantum_value) needs unit vectors whose
Gram matrix is the SDP solution; this module recovers them with a rank
cutoff so downstream observable construction uses as few qubits as
possible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.sdp.projections import symmetrize

__all__ = ["gram_vectors"]


def gram_vectors(
    matrix: np.ndarray, *, tolerance: float = 1e-9, normalize: bool = False
) -> np.ndarray:
    """Return ``V`` (rows are vectors) with ``V V^T ~= matrix``.

    Uses an eigendecomposition and keeps only eigenvalues above
    ``tolerance``, so the vectors live in the numerical rank of the input.

    Args:
        matrix: symmetric PSD matrix.
        tolerance: eigenvalue cutoff.
        normalize: when True, rescale each row to unit norm (valid for
            unit-diagonal Gram matrices where rows are near-unit anyway).
    """
    sym = symmetrize(np.asarray(matrix, dtype=float))
    eigs, vecs = np.linalg.eigh(sym)
    if eigs.min() < -1e-6:
        raise SolverError(f"matrix is not PSD (min eigenvalue {eigs.min()})")
    keep = eigs > tolerance
    if not keep.any():
        raise SolverError("matrix is numerically zero; no Gram vectors")
    vectors = vecs[:, keep] * np.sqrt(eigs[keep].clip(min=0.0))
    if normalize:
        norms = np.linalg.norm(vectors, axis=1, keepdims=True).clip(min=1e-12)
        vectors = vectors / norms
    return vectors

