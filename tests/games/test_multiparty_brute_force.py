"""Pinned results of the k-party deterministic-table search.

``MultipartyNonlocalGame.classical_value`` and ``best_classical_strategy``
come from one brute force over the leading players' tables. The pinned
values were taken from the per-cell loop the vectorized search replaced,
which stays below as the reference for games with uneven weights; both
the float (to the bit) and the first optimal table must stay the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecmp.collision import collision_game
from repro.games import MultipartyNonlocalGame, mermin_game

PINNED = [
    (mermin_game, (3,), "0x1.8000000000000p-1", ((0, 0), (0, 0), (0, 1))),
    (
        mermin_game,
        (4,),
        "0x1.8000000000000p-1",
        ((0, 0), (0, 0), (0, 0), (1, 1)),
    ),
    (
        mermin_game,
        (5,),
        "0x1.4000000000000p-1",
        ((0, 0), (0, 0), (0, 0), (0, 0), (1, 0)),
    ),
    (
        mermin_game,
        (6,),
        "0x1.4000000000000p-1",
        ((0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0)),
    ),
    (
        collision_game,
        (3, 2, 2),
        "0x1.5555555555555p-1",
        ((0, 0), (0, 0), (0, 1)),
    ),
    (
        collision_game,
        (4, 2, 3),
        "0x1.aaaaaaaaaaaaap-1",
        ((0, 0), (0, 0), (0, 1), (0, 2)),
    ),
    (
        collision_game,
        (4, 3, 3),
        "0x1.0000000000000p-1",
        ((0, 0), (0, 0), (0, 1), (0, 2)),
    ),
    (
        collision_game,
        (5, 3, 3),
        "0x1.999999999999ap-2",
        ((0, 0), (0, 0), (0, 1), (0, 1), (0, 2)),
    ),
    (
        collision_game,
        (5, 2, 2),
        "0x1.3333333333334p-1",
        ((0, 0), (0, 0), (0, 0), (0, 1), (0, 1)),
    ),
]


@pytest.mark.parametrize(
    "make, args, value_hex, tables",
    PINNED,
    ids=[f"{make.__name__}{args}" for make, args, _, _ in PINNED],
)
def test_value_and_strategy_are_pinned(make, args, value_hex, tables):
    game = make(*args)
    assert game.classical_value().hex() == value_hex
    assert game.best_classical_strategy() == tables


def loop_best_tables(game):
    """The per-cell loop the search replaced: the reference it must equal."""
    k = game.num_players
    n_last, m_last = game.num_inputs[-1], game.num_outputs[-1]
    best, best_tables = -1.0, None
    for tables in game._iter_fixed_tables():
        score = np.zeros((n_last, m_last))
        for inp in np.ndindex(*game.num_inputs):
            weight = game.prob_tensor[inp]
            if weight == 0.0:
                continue
            outs = tuple(tables[p][inp[p]] for p in range(k - 1))
            for o in range(m_last):
                win = game.pred_tensor[outs + (o,) + inp]
                score[inp[-1], o] += weight * win
        value = float(score.max(axis=1).sum())
        if value > best:
            best = value
            last = tuple(int(o) for o in score.argmax(axis=1))
            best_tables = tuple(tables) + (last,)
    return best, best_tables


@pytest.mark.parametrize(
    "inputs, outputs", [((2, 3, 2), (2, 2, 3)), ((3, 2, 2, 2), (2, 2, 2, 2))]
)
def test_search_equals_the_loop_on_uneven_weights(inputs, outputs):
    rng = np.random.default_rng(11)
    # Uneven weights with zeros, and a fractional predicate.
    prob = rng.random(inputs) * (rng.random(inputs) > 0.3)
    game = MultipartyNonlocalGame(
        "uneven", prob / prob.sum(), rng.random(outputs + inputs)
    )
    value, tables = loop_best_tables(game)
    assert game.classical_value().hex() == value.hex()
    assert game.best_classical_strategy() == tables
