"""Mermin games and k-party qubit strategies (paper §4.1: "extended to
more than two players").

The ``n``-player Mermin parity game draws an even-weight input string;
each player answers a bit and the team wins when the XOR of all answers
equals ``(weight / 2) mod 2``. It is a dense
:class:`~repro.games.nonlocal_games.MultipartyNonlocalGame`, so its
classical value comes from the one k-party brute force and its
see-saw from :func:`~repro.games.seesaw.seesaw_lower_bound`. A GHZ
state wins it with certainty — the multiparty analogue the paper cites
for larger-than-CHSH advantages [12, 31].
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import GameError, StrategyError
from repro.games.nonlocal_games import (
    MultipartyNonlocalGame,
    multiplayer_behavior,
)
from repro.quantum.bases import MeasurementBasis
from repro.quantum.entangle import ghz_state
from repro.quantum.state import DensityMatrix, StateVector

__all__ = [
    "MultiplayerQuantumStrategy",
    "mermin_game",
    "mermin_optimal_strategy",
    "mermin_classical_value",
]


class MultiplayerQuantumStrategy:
    """Shared state + one single-qubit basis per player per input symbol."""

    def __init__(
        self,
        state: StateVector | DensityMatrix,
        bases: Sequence[dict[int, MeasurementBasis]],
    ) -> None:
        if state.num_qubits != len(bases):
            raise StrategyError(
                f"state has {state.num_qubits} qubits for {len(bases)} players"
            )
        for table in bases:
            for basis in table.values():
                if basis.num_qubits != 1:
                    raise StrategyError("per-player bases must be single-qubit")
        self._state = state
        self._bases = [dict(table) for table in bases]
        # Row o of a readout is <v_o|: it maps one qubit's amplitudes to
        # its outcome amplitudes in that basis.
        self._readouts = [
            {
                symbol: np.conj(np.stack(basis.vectors))
                for symbol, basis in table.items()
            }
            for table in self._bases
        ]

    @property
    def num_players(self) -> int:
        """Number of players (= qubits of the shared state)."""
        return len(self._bases)

    def joint_distribution(self, inputs: Sequence[int]) -> np.ndarray:
        """Exact distribution over output tuples for the given inputs,
        shape ``(2,) * num_players``.

        Each player's basis acts on its own axis of the state: a pure
        state stays an amplitude tensor, a density matrix is read out on
        both sides, so no ``2^n x 2^n`` projector is ever formed.
        """
        n = self.num_players
        if len(inputs) != n:
            raise StrategyError("one input per player required")
        readouts = []
        for player, symbol in enumerate(inputs):
            try:
                readouts.append(self._readouts[player][symbol])
            except KeyError as exc:
                raise StrategyError(
                    f"player {player} has no basis for input {symbol!r}"
                ) from exc
        if isinstance(self._state, StateVector):
            amplitudes = self._state.vector.reshape((2,) * n)
            for player, readout in enumerate(readouts):
                amplitudes = _read_axis(readout, amplitudes, player)
            out = np.abs(amplitudes) ** 2
        else:
            rho = self._state.matrix.reshape((2,) * (2 * n))
            for player, readout in enumerate(readouts):
                rho = _read_axis(readout, rho, player)
                rho = _read_axis(readout.conj(), rho, n + player)
            out = np.real(rho.reshape(2**n, 2**n).diagonal()).reshape(
                (2,) * n
            )
        out = out.clip(min=0.0)
        total = float(out.sum())
        if abs(total - 1.0) > 1e-8:
            raise StrategyError(
                f"joint distribution sums to {total!r}, not 1: the "
                "measurement projectors are not complete for this state"
            )
        return out / total

    def behavior(self, alphabets: Sequence[int] | None = None) -> np.ndarray:
        """Dense behavior tensor over integer inputs ``0..n_p - 1``.

        ``alphabets`` gives each player's input alphabet size (default:
        inferred as ``max(symbol) + 1`` from the basis tables, which
        therefore must be keyed by contiguous non-negative integers).
        The result has shape ``tuple(alphabets) + (2,) * k`` — inputs
        first, then one binary output axis per player — the layout
        :func:`repro.lb.policies.behavior_sampling_tables` consumes.
        """
        if alphabets is None:
            alphabets = [max(table) + 1 for table in self._bases]
        return multiplayer_behavior(self, alphabets)

    def play(
        self, inputs: Sequence[int], rng: np.random.Generator
    ) -> tuple[int, ...]:
        """Sample an output tuple for the given inputs."""
        dist = self.joint_distribution(inputs)
        flat = dist.reshape(-1)
        idx = int(rng.choice(flat.size, p=flat))
        return tuple(
            (idx >> (self.num_players - 1 - p)) & 1
            for p in range(self.num_players)
        )


def _read_axis(readout: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    """Apply a single-qubit ``readout`` matrix to one axis of ``tensor``."""
    return np.moveaxis(np.tensordot(readout, tensor, axes=(1, axis)), 0, axis)


def mermin_game(num_players: int) -> MultipartyNonlocalGame:
    """The ``n``-player Mermin parity game.

    Inputs are drawn uniformly from bit strings of even Hamming weight;
    the team wins when the XOR of all answers equals
    ``(weight / 2) mod 2``. For ``n = 3`` this is the GHZ game: inputs
    ``{000, 011, 101, 110}``, target ``OR(inputs)``. A GHZ state wins
    with certainty for every ``n``, while the classical value is
    ``1/2 + 2^(-ceil(n/2))`` — the multipartite advantage the paper
    cites grows with the player count. Odd-weight input strings carry
    zero probability and never win.
    """
    if num_players < 2:
        raise GameError("Mermin game needs at least two players")
    bits = (2,) * num_players
    MultipartyNonlocalGame.check_size(bits, bits)
    weight = np.indices(bits).sum(axis=0)
    support = weight % 2 == 0
    # Parity of the outputs (leading axes) against the target bit of
    # the inputs (trailing axes).
    parity = (weight % 2).reshape(bits + (1,) * num_players)
    pred = support & (parity == (weight // 2) % 2)
    prob = np.where(support, 1.0 / 2 ** (num_players - 1), 0.0)
    return MultipartyNonlocalGame(
        name=f"mermin-{num_players}", prob_tensor=prob, pred_tensor=pred
    )


def mermin_classical_value(num_players: int) -> float:
    """Closed-form classical value ``1/2 + 2^(-ceil(n/2))`` (Mermin)."""
    if num_players < 2:
        raise GameError("Mermin game needs at least two players")
    return 0.5 + 2.0 ** (-math.ceil(num_players / 2))


def mermin_optimal_strategy(num_players: int) -> MultiplayerQuantumStrategy:
    """Perfect GHZ strategy for :func:`mermin_game`: X on input 0, Y on 1.

    Measuring ``X`` is the rotated computational basis at ``pi/4``;
    measuring ``Y`` uses the circular basis ``(|0> ± i|1>)/sqrt2``.
    """
    sqrt2 = math.sqrt(2.0)
    x_basis = MeasurementBasis(
        (
            np.array([1, 1], dtype=np.complex128) / sqrt2,
            np.array([1, -1], dtype=np.complex128) / sqrt2,
        ),
        label="X",
    )
    y_basis = MeasurementBasis(
        (
            np.array([1, 1j], dtype=np.complex128) / sqrt2,
            np.array([1, -1j], dtype=np.complex128) / sqrt2,
        ),
        label="Y",
    )
    tables = [{0: x_basis, 1: y_basis} for _ in range(num_players)]
    return MultiplayerQuantumStrategy(ghz_state(num_players), tables)
