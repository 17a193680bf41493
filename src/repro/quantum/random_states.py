"""Haar-random states and unitaries for property-based tests.

The hypothesis test suites use random states to check invariants
(normalization preservation, no-signaling, channel positivity).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.quantum.state import DensityMatrix, StateVector

__all__ = [
    "random_state_vector",
    "random_unitary",
    "random_density_matrix",
    "random_pure_density",
]


def random_state_vector(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Sample a Haar-random pure state."""
    dim = _dim(num_qubits)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(vec / np.linalg.norm(vec))


def random_unitary(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a Haar-random unitary via QR of a Ginibre matrix."""
    dim = _dim(num_qubits)
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    # Fix the phase ambiguity so the distribution is exactly Haar.
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density_matrix(
    num_qubits: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Sample a random mixed state (Hilbert-Schmidt-like measure)."""
    dim = _dim(num_qubits)
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise DimensionError(f"rank {rank} outside [1, {dim}]")
    ginibre = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = ginibre @ ginibre.conj().T
    mat /= np.real(np.trace(mat))
    return DensityMatrix(mat, validate=False)


def random_pure_density(num_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Sample a Haar-random pure state as a density matrix."""
    return random_state_vector(num_qubits, rng).to_density_matrix()


def _dim(num_qubits: int) -> int:
    if num_qubits < 1:
        raise DimensionError(f"need at least 1 qubit, got {num_qubits}")
    return 1 << num_qubits
