"""Monte-Carlo referee: play games end-to-end against the simulator.

The exact values in :mod:`repro.games.quantum_value` verify strategies
analytically; the referee instead *runs* them — sampling inputs, letting
each strategy measure simulated qubits, and scoring wins — which is what
the integration tests and examples use to show the whole pipeline works.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from repro.errors import GameError
from repro.games.nonlocal_games import NonlocalGame
from repro.games.strategies import Strategy

__all__ = ["GameRecord", "play_rounds"]


@dataclass(frozen=True)
class GameRecord:
    """Outcome of a referee session.

    Attributes:
        rounds: number of rounds played.
        wins: rounds won.
        input_counts: observed input-pair counts, shape ``(nx, ny)``.
    """

    rounds: int
    wins: int
    input_counts: np.ndarray

    @property
    def win_rate(self) -> float:
        """Empirical win probability."""
        return self.wins / self.rounds if self.rounds else 0.0

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI for the win probability."""
        p = self.win_rate
        if self.rounds == 0:
            return (0.0, 1.0)
        half = z * math.sqrt(max(p * (1 - p), 1e-12) / self.rounds)
        return (max(0.0, p - half), min(1.0, p + half))


def play_rounds(
    game: NonlocalGame,
    strategy: Strategy,
    rounds: int,
    rng: np.random.Generator,
) -> GameRecord:
    """Play ``rounds`` independent rounds and tally wins.

    Inputs are sampled from the game's joint distribution; each round the
    strategy is executed fresh (for quantum strategies this consumes a
    fresh entangled state, matching the architecture's one-pair-per-
    decision usage). A round is won when ``pred_mat[a, b, x, y] == 1``,
    so the game's predicate must be 0/1.
    """
    if rounds < 1:
        raise GameError("must play at least one round")
    if not np.isin(game.pred_mat, (0.0, 1.0)).all():
        raise GameError(
            f"game {game.name!r} has a fractional predicate; a referee "
            "scores 0/1 wins"
        )
    flat = game.prob_mat.reshape(-1)
    nx, ny = game.num_inputs
    counts = np.zeros((nx, ny), dtype=int)
    wins = 0
    pair_indices = rng.choice(flat.size, size=rounds, p=flat)
    for idx in pair_indices:
        x, y = divmod(int(idx), ny)
        counts[x, y] += 1
        a, b = strategy.play(x, y, rng)
        if game.pred_mat[a, b, x, y] == 1.0:
            wins += 1
    return GameRecord(rounds=rounds, wins=wins, input_counts=counts)
