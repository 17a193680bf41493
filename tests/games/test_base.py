"""Tests for the two-player game class, NonlocalGame, on small games."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GameError
from repro.games import (
    MultipartyNonlocalGame,
    NonlocalGame,
    chsh_game,
    optimal_classical_strategy,
)

UNIFORM = np.full((2, 2), 0.25)


class TestGameValidation:
    def test_distribution_shape_checked(self):
        with pytest.raises(GameError):
            NonlocalGame(
                name="bad",
                prob_mat=np.ones((3, 3)) / 9,
                pred_mat=np.ones((2, 2, 2, 2)),
            )

    def test_distribution_normalization_checked(self):
        with pytest.raises(GameError):
            NonlocalGame.from_predicate(
                "bad", np.ones((2, 2)), lambda x, y, a, b: True
            )

    def test_output_alphabet_checked(self):
        for pred in (np.zeros((0, 2, 1, 1)), np.zeros((2, 0, 1, 1))):
            with pytest.raises(GameError, match="output alphabets"):
                NonlocalGame(name="bad", prob_mat=np.ones((1, 1)), pred_mat=pred)
        with pytest.raises(GameError, match="output alphabets"):
            NonlocalGame.from_predicate(
                "bad",
                np.ones((1, 1)),
                lambda x, y, a, b: True,
                num_outputs_a=0,
            )
        with pytest.raises(GameError, match="output alphabets"):
            MultipartyNonlocalGame(
                name="bad",
                prob_tensor=np.ones((1, 1, 1)),
                pred_tensor=np.zeros((2, 0, 2, 1, 1, 1)),
            )

    def test_repr(self):
        assert "chsh" in repr(chsh_game())


class TestValues:
    def test_chsh_classical_value(self):
        assert chsh_game().classical_value() == pytest.approx(0.75)

    def test_chsh_best_strategy_wins_three_quarters(self):
        game = chsh_game()
        alice, bob = game.best_classical_strategy()
        assert game.deterministic_value(alice, bob) == pytest.approx(0.75)

    def test_trivial_game_value_one(self):
        game = NonlocalGame.from_predicate(
            "always-win", UNIFORM, lambda x, y, a, b: True
        )
        assert game.classical_value() == pytest.approx(1.0)

    def test_impossible_game_value_zero(self):
        game = NonlocalGame.from_predicate(
            "never-win", np.ones((1, 1)), lambda x, y, a, b: False
        )
        assert game.classical_value() == pytest.approx(0.0)

    def test_matching_game(self):
        # Win iff outputs equal; trivially winnable classically.
        game = NonlocalGame.from_predicate(
            "match", UNIFORM, lambda x, y, a, b: a == b
        )
        assert game.classical_value() == pytest.approx(1.0)

    def test_deterministic_value_validates_lengths(self):
        game = chsh_game()
        with pytest.raises(GameError):
            game.deterministic_value([0], [0, 0])
        with pytest.raises(GameError):
            game.deterministic_value([0, 0], [0])

    def test_value_of_behavior_chsh_classical(self):
        game = chsh_game()
        behavior = optimal_classical_strategy().behavior()
        assert game.value_of_behavior(behavior) == pytest.approx(0.75)

    def test_value_of_behavior_shape_checked(self):
        with pytest.raises(GameError):
            chsh_game().value_of_behavior(np.zeros((2, 2, 2)))

    def test_nonuniform_distribution(self):
        # Weight all mass on x=y=1; CHSH then requires a XOR b = 1.
        dist = np.zeros((2, 2))
        dist[1, 1] = 1.0
        game = NonlocalGame.from_predicate(
            "chsh-corner", dist, lambda x, y, a, b: (a ^ b) == (x & y)
        )
        # Classical strategy a=0, b=1 wins always.
        assert game.classical_value() == pytest.approx(1.0)
        assert game.classical_value(method="general") == pytest.approx(1.0)
