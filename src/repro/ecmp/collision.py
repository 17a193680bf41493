"""The ECMP collision game family (§4.2) as dense k-party games.

``num_parties`` switches each learn only whether they are *active*
(input 1) or not (input 0). The active ones — a uniformly random subset
of fixed size ``num_active`` — each output a path index, and the team
wins when no two active switches chose the same path. Inactive parties'
outputs are ignored — precisely the structural property the paper's
impossibility argument exploits ("the quality of the outcome depends
only on a subset of the parties").

A collision game is a :class:`~repro.games.nonlocal_games.MultipartyNonlocalGame`,
so its classical value comes from the one k-party brute force and its
quantum lower bound from :func:`~repro.games.seesaw.seesaw_lower_bound`.
For binary paths the canonical instance is ``collision_game(3, 2, 2)``:
three switches, two active, two paths. Its classical value is 2/3 (a
triangle cannot be 2-colored), and the repo's evidence for the paper's
conjecture is that neither GHZ states nor see-saw-optimized quantum
strategies beat 2/3.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.errors import GameError
from repro.games.nonlocal_games import MultipartyNonlocalGame

__all__ = ["collision_game", "independent_random_value"]


def collision_game(
    num_parties: int, num_active: int, num_paths: int
) -> MultipartyNonlocalGame:
    """The (num_parties, num_active, num_paths) collision-avoidance game.

    Party ``p``'s input is 1 when it is active; ``prob_tensor`` is
    uniform over the input strings of weight ``num_active``, and
    ``pred_tensor`` is 1 when the active parties' paths are pairwise
    distinct.
    """
    if num_parties < 2:
        raise GameError("need at least two parties")
    if not 1 <= num_active <= num_parties:
        raise GameError(
            f"num_active {num_active} outside [1, {num_parties}]"
        )
    if num_paths < 2:
        raise GameError("need at least two paths")
    inputs = (2,) * num_parties
    outputs = (num_paths,) * num_parties
    MultipartyNonlocalGame.check_size(inputs, outputs)
    active = np.indices(inputs).astype(bool)
    paths = np.indices(outputs)
    pred = np.ones(outputs + inputs, dtype=bool)
    for p, q in itertools.combinations(range(num_parties), 2):
        same_path = (paths[p] == paths[q]).reshape(outputs + (1,) * num_parties)
        pred &= ~(same_path & active[p] & active[q])
    prob = (active.sum(axis=0) == num_active) / math.comb(
        num_parties, num_active
    )
    return MultipartyNonlocalGame(
        name=f"collision-{num_parties}-{num_active}-{num_paths}",
        prob_tensor=prob,
        pred_tensor=pred,
    )


def independent_random_value(game: MultipartyNonlocalGame) -> float:
    """Win probability when every party answers uniformly at random.

    For a collision game with ``k`` active parties on ``M`` paths this
    is the birthday-problem complement ``M! / ((M-k)! * M^k)``.
    """
    shape = game.num_inputs + game.num_outputs
    uniform = np.full(shape, 1.0 / math.prod(game.num_outputs))
    return game.value_of_behavior(uniform)
