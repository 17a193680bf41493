"""The see-saw on k-party games: Mermin, collision and random games.

The same optimizer serves two-player and k-party games, because both
keep their predicate outputs first, then inputs. These tests pin what
the two-player property suite pins, on three and four parties: the
value is certified by its own behavior, restarts are a deterministic
prefix, and the known perfect strategies are found.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GameError
from repro.games import (
    MultipartyNonlocalGame,
    chsh_nonlocal_game,
    magic_square_game,
    mermin_game,
    seesaw_lower_bound,
)


def random_multiparty_game(seed: int, inputs, outputs) -> MultipartyNonlocalGame:
    """A random k-party game with fractional predicate values."""
    rng = np.random.default_rng(seed)
    prob = rng.random(inputs) + 0.05
    prob /= prob.sum()
    return MultipartyNonlocalGame(
        name=f"random-{seed}",
        prob_tensor=prob,
        pred_tensor=rng.random(tuple(outputs) + tuple(inputs)),
    )


@pytest.mark.parametrize("n", [3, 4])
def test_mermin_reaches_the_ghz_value(n):
    result = seesaw_lower_bound(mermin_game(n), restarts=3, iterations=100)
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert result.state.shape == (2**n,)
    assert [e.shape for e in result.effects] == [(2, 2, 2, 2)] * n


@pytest.mark.parametrize("seed", range(6))
def test_value_is_certified_by_its_behavior(seed):
    inputs, outputs = (2, 3, 2), (2, 2, 3)
    game = random_multiparty_game(seed, inputs, outputs)
    result = seesaw_lower_bound(game, restarts=2, iterations=60, seed=seed)
    behavior = result.behavior
    assert behavior.shape == inputs + outputs
    assert (behavior >= 0.0).all()
    assert np.allclose(behavior.sum(axis=(3, 4, 5)), 1.0, atol=1e-12)
    assert result.value == float(game.value_of_behavior(behavior))
    if result.converged:
        # The certified value of the final strategy matches the
        # optimizer's own objective.
        assert result.value == pytest.approx(
            max(result.restart_values), abs=1e-8
        )


def test_restarts_are_a_deterministic_prefix():
    game = random_multiparty_game(11, (2, 2, 2), (2, 2, 2))
    few = seesaw_lower_bound(game, restarts=2, iterations=30, seed=4)
    many = seesaw_lower_bound(game, restarts=4, iterations=30, seed=4)
    assert many.restart_values[:2] == few.restart_values
    assert many.value >= few.value - 1e-12


@pytest.mark.parametrize(
    "game, dim", [(chsh_nonlocal_game(), 2), (magic_square_game(), 4)]
)
def test_two_player_game_in_dense_form_is_the_same_optimization(game, dim):
    # A two-player game needs no adapter: its tensors, as a k-party
    # game of two parties, run the identical see-saw.
    dense = MultipartyNonlocalGame(
        name=game.name, prob_tensor=game.prob_mat, pred_tensor=game.pred_mat
    )
    a = seesaw_lower_bound(game, dim=dim, restarts=2, iterations=50)
    b = seesaw_lower_bound(dense, dim=dim, restarts=2, iterations=50)
    assert a.value == b.value
    assert a.restart_values == b.restart_values
    assert np.array_equal(a.behavior, b.behavior)
    assert a.iterations == b.iterations


def test_rejects_an_empty_budget():
    with pytest.raises(GameError):
        seesaw_lower_bound(mermin_game(3), iterations=0)


def test_rejects_operator_stacks_too_large_to_hold():
    # Eight qubit parties: the other seven's Kronecker effects would
    # hold 4^7 x 2^14 entries. Refused before anything is built.
    with pytest.raises(GameError, match="operator stacks"):
        seesaw_lower_bound(mermin_game(8))
