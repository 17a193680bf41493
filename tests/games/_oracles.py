"""Loop reference forms that the two-player game values are checked against.

:func:`classical_value_loops` is the deterministic-table brute force as
plain loops over ``(prob_mat, pred_mat)``: each of Alice's tables, then
Bob's best response per input ``y``. :func:`win_probability_loops` sums
a behavior's win probability one cell at a time. Both add in another
order than the vectorized forms of :class:`~repro.games.NonlocalGame`
and :class:`~repro.games.XORGame`, so tests compare them to rounding.
"""

from __future__ import annotations

import itertools

import numpy as np


def classical_value_loops(game) -> float:
    """Exact classical value of a two-player game, one table at a time."""
    (nx, ny), (na, nb) = game.num_inputs, game.num_outputs
    best = 0.0
    for alice in itertools.product(range(na), repeat=nx):
        value = 0.0
        for y in range(ny):
            value += max(
                sum(
                    game.prob_mat[x, y] * game.pred_mat[alice[x], b, x, y]
                    for x in range(nx)
                )
                for b in range(nb)
            )
        best = max(best, value)
    return best


def win_probability_loops(game, behavior: np.ndarray) -> float:
    """Win probability of a behavior ``p(a, b | x, y)``, one cell at a time."""
    (nx, ny), (na, nb) = game.num_inputs, game.num_outputs
    total = 0.0
    for x, y, a, b in itertools.product(
        range(nx), range(ny), range(na), range(nb)
    ):
        total += game.prob_mat[x, y] * game.pred_mat[a, b, x, y] * behavior[
            x, y, a, b
        ]
    return total
