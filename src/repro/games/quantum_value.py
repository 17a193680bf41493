"""Quantum values of XOR games via Tsirelson's theorem.

Tsirelson proved the quantum bias of an XOR game equals::

    max  sum_xy W_xy <u_x, v_y>   over unit vectors u_x, v_y,

a semidefinite program over the joint Gram matrix. This module computes
it with a fast alternating heuristic (each step is one matrix product)
warm-starting the rigorous ADMM SDP solve, and can convert the optimal
vectors into an explicit quantum strategy — shared maximally entangled
state plus anticommuting-observable measurements (the construction used
in Cleve-Hoyer-Toner-Watrous [18]).

This is the machinery behind Fig 3: a random XOR game has a quantum
advantage iff its quantum bias exceeds its classical bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GameError
from repro.games.batch import alternating_lower_bound_batch, bias_cost_batch
from repro.games.strategies import BinaryObservable, QuantumStrategy
from repro.games.xor import XORGame
from repro.quantum.gates import pauli
from repro.quantum.state import StateVector
from repro.sdp import SDPResult, gram_vectors, solve_diagonal_sdp

__all__ = [
    "XORValue",
    "xor_quantum_bias",
    "xor_quantum_value",
    "has_quantum_advantage",
    "alternating_bias_lower_bound",
    "tsirelson_strategy",
    "anticommuting_observables",
]


@dataclass(frozen=True)
class XORValue:
    """Computed values of an XOR game.

    Attributes:
        classical_bias: exact classical bias (brute force).
        quantum_bias: SDP optimum (primal, feasible → true lower bound).
        quantum_bias_upper: rigorous dual upper bound on the quantum bias.
        sdp: the raw solver result for diagnostics.
    """

    classical_bias: float
    quantum_bias: float
    quantum_bias_upper: float
    sdp: SDPResult

    @property
    def classical_value(self) -> float:
        """Classical win probability."""
        return (1.0 + self.classical_bias) / 2.0

    @property
    def quantum_value(self) -> float:
        """Quantum win probability."""
        return (1.0 + self.quantum_bias) / 2.0

    @property
    def advantage(self) -> float:
        """Quantum-minus-classical win probability gap."""
        return self.quantum_value - self.classical_value


def _bias_cost_matrix(game: XORGame) -> np.ndarray:
    """Block cost matrix whose diagonal-SDP optimum is the quantum bias.

    Vectors are stacked ``[u_1..u_nx, v_1..v_ny]``; the bias
    ``sum W_xy <u_x, v_y>`` equals ``<C, X>`` for the Gram matrix ``X``
    with ``C`` holding ``W/2`` in the off-diagonal blocks.
    """
    return bias_cost_batch(game.cost_matrix()[None])[0]


def alternating_bias_lower_bound(
    game: XORGame,
    *,
    restarts: int = 3,
    iterations: int = 200,
    seed: int = 0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Fast heuristic for the quantum bias (vector strategy ascent).

    Alternates ``u_x <- normalize(sum_y W_xy v_y)`` and the symmetric
    update; monotone in the objective. Returns the best
    ``(bias, U, V)`` over random restarts. A lower bound only — the SDP
    certifies optimality.

    This is the one-game call of
    :func:`repro.games.batch.alternating_lower_bound_batch`: the restarts
    run as one stack, each stops on its own convergence, and the result
    is bit-identical to that game's slice in any batch run with the same
    budget and seed.
    """
    bias, u, v = alternating_lower_bound_batch(
        game.cost_matrix()[None],
        restarts=restarts,
        iterations=iterations,
        seed=seed,
    )
    return float(bias[0]), u[0], v[0]


def xor_quantum_bias(
    game: XORGame, *, tolerance: float = 1e-8
) -> tuple[float, SDPResult]:
    """Quantum bias of an XOR game via the Tsirelson SDP.

    Warm-starts from the alternating heuristic's Gram matrix.
    """
    cost = _bias_cost_matrix(game)
    _, u, v = alternating_bias_lower_bound(game)
    stacked = np.vstack([u, v])
    warm = stacked @ stacked.T
    result = solve_diagonal_sdp(
        cost, tolerance=tolerance, warm_start=warm
    )
    return result.objective, result


def xor_quantum_value(game: XORGame, *, tolerance: float = 1e-8) -> XORValue:
    """Classical and quantum values of an XOR game, with certificates."""
    classical = game.classical_bias()
    quantum, sdp = xor_quantum_bias(game, tolerance=tolerance)
    return XORValue(
        classical_bias=classical,
        quantum_bias=max(quantum, classical),
        quantum_bias_upper=sdp.upper_bound,
        sdp=sdp,
    )


def has_quantum_advantage(
    game: XORGame, *, threshold: float = 1e-5, tolerance: float = 1e-8
) -> bool:
    """True when the quantum bias provably exceeds the classical bias.

    Uses the feasible primal value (a genuine achievable bias), so a True
    answer is a certificate; games within ``threshold`` of the classical
    bias count as no-advantage, matching Fig 3's detection rule.
    """
    value = xor_quantum_value(game, tolerance=tolerance)
    return value.quantum_bias > value.classical_bias + threshold


def anticommuting_observables(count: int) -> list[np.ndarray]:
    """``count`` pairwise-anticommuting binary observables (Jordan-Wigner).

    Uses ``ceil(count / 2)`` qubits: generator ``2j`` is ``Z^j X I...``,
    generator ``2j+1`` is ``Z^j Y I...``. Each squares to identity and
    every pair anticommutes, so ``sum_i c_i G_i`` is a valid binary
    observable for any unit vector ``c``.
    """
    if count < 1:
        raise GameError("need at least one observable")
    num_qubits = (count + 1) // 2
    observables = []
    for index in range(count):
        j = index // 2
        letter = "X" if index % 2 == 0 else "Y"
        label = "Z" * j + letter + "I" * (num_qubits - j - 1)
        observables.append(pauli(label))
    return observables


def tsirelson_strategy(
    game: XORGame,
    *,
    tolerance: float = 1e-8,
    rank_cutoff: float = 1e-6,
) -> QuantumStrategy:
    """Explicit optimal quantum strategy for an XOR game.

    Solves the Tsirelson SDP, extracts Gram vectors, and realizes them as
    binary observables ``A_x = sum_i u_xi G_i`` / ``B_y = sum_i v_yi
    G_i^T`` on a maximally entangled state, which reproduces the SDP
    correlations exactly: ``<psi| A (x) B^T |psi> = <u, v>``.
    """
    _, result = xor_quantum_bias(game, tolerance=tolerance)
    nx = game.num_inputs_a
    vectors = gram_vectors(result.matrix, tolerance=rank_cutoff, normalize=True)
    u, v = vectors[:nx], vectors[nx:]
    rank = vectors.shape[1]
    generators = anticommuting_observables(rank)
    alice = [
        BinaryObservable(_combine(generators, u[x])) for x in range(nx)
    ]
    bob = [
        BinaryObservable(_combine(generators, v[y]).T)
        for y in range(game.num_inputs_b)
    ]
    num_qubits = (rank + 1) // 2
    dim = 1 << num_qubits
    amplitudes = np.zeros(dim * dim, dtype=np.complex128)
    for i in range(dim):
        amplitudes[i * dim + i] = 1.0 / math.sqrt(dim)
    state = StateVector(amplitudes)
    return QuantumStrategy(state, alice=alice, bob=bob)


def _combine(generators: list[np.ndarray], coefficients: np.ndarray) -> np.ndarray:
    out = np.zeros_like(generators[0])
    for coeff, gen in zip(coefficients, generators):
        out = out + coeff * gen
    return out
