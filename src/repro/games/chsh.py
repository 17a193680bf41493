"""The CHSH game and its optimal strategies (paper §2).

Win condition: ``a XOR b == x AND y`` with uniformly random input bits.
The best classical strategy outputs ``a = b = 0`` and wins with
probability 3/4; sharing a Bell pair and measuring at the paper's angles
wins with probability ``cos^2(pi/8) ~= 0.8536`` (Tsirelson's bound).

The load-balancing variant (§4.1) flips one party's output so the pair
implements ``a XOR b == NOT (x AND y)``: same-type-C tasks colocate, all
other combinations anti-colocate.

Both games are :class:`~repro.games.nonlocal_games.NonlocalGame` values,
imported when a game is built: the Fig 4 policies need only the
strategies here, not the general-game layer.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.games.strategies import (
    DeterministicStrategy,
    QuantumStrategy,
)
from repro.quantum.bases import chsh_alice_basis, chsh_bob_basis, rotation_basis
from repro.quantum.entangle import bell_pair
from repro.quantum.state import DensityMatrix, StateVector

if TYPE_CHECKING:
    from repro.games.nonlocal_games import NonlocalGame

__all__ = [
    "CHSH_QUANTUM_VALUE",
    "CHSH_CLASSICAL_VALUE",
    "chsh_game",
    "chsh_nonlocal_game",
    "chsh_colocation_game",
    "optimal_quantum_strategy",
    "optimal_classical_strategy",
    "colocation_quantum_strategy",
    "colocation_classical_strategy",
    "chsh_win_probability_for_state",
]

#: Tsirelson's bound, the optimal quantum win probability.
CHSH_QUANTUM_VALUE = math.cos(math.pi / 8) ** 2

#: The optimal classical win probability.
CHSH_CLASSICAL_VALUE = 0.75


def chsh_game() -> NonlocalGame:
    """The standard CHSH game: win iff ``a ^ b == x & y``."""
    from repro.games.nonlocal_games import NonlocalGame

    return NonlocalGame.from_predicate(
        "chsh",
        np.full((2, 2), 0.25),
        lambda x, y, a, b: (a ^ b) == (x & y),
    )


#: Alias of :func:`chsh_game`; the benchmark suite imports this name.
chsh_nonlocal_game = chsh_game


def chsh_colocation_game() -> NonlocalGame:
    """The load-balancing variant: win iff ``a ^ b == NOT (x & y)``.

    Inputs are 1 for type-C tasks; outputs pick one of two servers. A win
    means: both type-C (x = y = 1) -> same server (a ^ b = 0); any other
    input pair -> different servers (a ^ b = 1). The quantum value equals
    the CHSH value, achieved by flipping one party's output of the
    standard strategy.
    """
    from repro.games.nonlocal_games import NonlocalGame

    return NonlocalGame.from_predicate(
        "chsh-colocation",
        np.full((2, 2), 0.25),
        lambda x, y, a, b: (a ^ b) == 1 - (x & y),
    )


def optimal_quantum_strategy(
    state: StateVector | DensityMatrix | None = None,
) -> QuantumStrategy:
    """The paper's optimal CHSH strategy.

    Alice measures at angles ``0`` and ``pi/4``; Bob at ``pi/8`` and
    ``-pi/8``; both on a shared Bell pair (or the supplied, possibly
    noisy, two-qubit state).
    """
    if state is None:
        state = bell_pair()
    return QuantumStrategy(
        state,
        alice=[chsh_alice_basis(0), chsh_alice_basis(1)],
        bob=[chsh_bob_basis(0), chsh_bob_basis(1)],
    )


def optimal_classical_strategy() -> DeterministicStrategy:
    """Always answer ``a = b = 0``; wins 3 of 4 input pairs."""
    return DeterministicStrategy(outputs_a=(0, 0), outputs_b=(0, 0))


def colocation_classical_strategy() -> DeterministicStrategy:
    """The classical strategy of the paired Fig 4 balancers.

    Alice always answers 0 and Bob always 1, so the pair always splits:
    it wins the three input pairs that are not both type-C, 3/4 of the
    colocation game, its classical value.
    """
    return DeterministicStrategy(outputs_a=(0, 0), outputs_b=(1, 1))


def colocation_quantum_strategy(
    state: StateVector | DensityMatrix | None = None,
) -> QuantumStrategy:
    """Optimal strategy for :func:`chsh_colocation_game`.

    Identical to :func:`optimal_quantum_strategy` with Bob's output
    flipped, implemented by measuring the orthogonal-direction bases
    (swap the two basis vectors = add pi/2 to the angle).
    """
    if state is None:
        state = bell_pair()
    flipped_bob = [
        rotation_basis(math.pi / 8 + math.pi / 2, label="bob0-flip"),
        rotation_basis(-math.pi / 8 + math.pi / 2, label="bob1-flip"),
    ]
    return QuantumStrategy(
        state,
        alice=[chsh_alice_basis(0), chsh_alice_basis(1)],
        bob=flipped_bob,
    )


def chsh_win_probability_for_state(
    state: StateVector | DensityMatrix,
) -> float:
    """Exact CHSH win probability of the paper's angles on ``state``.

    Used by the hardware/noise ablations: e.g. on a Werner state of
    fidelity F this degrades linearly toward 1/2.
    """
    return chsh_game().value_of_strategy(optimal_quantum_strategy(state))
