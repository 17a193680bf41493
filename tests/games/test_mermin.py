"""Tests for the generalized Mermin parity games."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GameError
from repro.games import (
    mermin_classical_value,
    mermin_game,
    mermin_optimal_strategy,
)


def support(game):
    """The input strings the game draws with positive probability."""
    return [tuple(int(b) for b in cell) for cell in np.argwhere(game.prob_tensor)]


class TestGameStructure:
    def test_three_players_is_ghz_game(self):
        # The GHZ game: inputs uniform over {000, 011, 101, 110}, and the
        # team wins when a XOR b XOR c = OR(inputs).
        game = mermin_game(3)
        ghz_inputs = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert support(game) == ghz_inputs
        for inputs in ghz_inputs:
            assert game.prob_tensor[inputs] == 0.25
            for outputs in np.ndindex(2, 2, 2):
                wins = sum(outputs) % 2 == int(any(inputs))
                assert game.pred_tensor[outputs + inputs] == float(wins)

    def test_inputs_have_even_weight(self):
        for bits in support(mermin_game(4)):
            assert sum(bits) % 2 == 0

    def test_input_count(self):
        # Half of all strings have even weight.
        for n in (2, 3, 4, 5):
            assert len(support(mermin_game(n))) == 2 ** (n - 1)

    def test_minimum_players(self):
        with pytest.raises(GameError):
            mermin_game(1)
        with pytest.raises(GameError):
            mermin_classical_value(1)


class TestValues:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_classical_value_matches_formula(self, n):
        assert mermin_game(n).classical_value() == pytest.approx(
            mermin_classical_value(n)
        )

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ghz_strategy_is_perfect(self, n):
        game = mermin_game(n)
        strategy = mermin_optimal_strategy(n)
        assert game.value_of_strategy(strategy) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_dense_size_limit(self):
        # The predicate tensor has 4^n entries: refuse before allocating.
        with pytest.raises(GameError, match="predicate entries"):
            mermin_game(12)

    def test_advantage_grows_with_players(self):
        """The paper: multipartite XOR games have larger advantages."""
        gaps = [
            1.0 - mermin_classical_value(n) for n in (3, 5, 7, 9)
        ]
        assert gaps == sorted(gaps)
        assert gaps[-1] > gaps[0]

    def test_two_players_no_advantage(self):
        # Even-weight promise with 2 players is classically winnable.
        assert mermin_classical_value(2) == 1.0


class TestMonteCarlo:
    def test_sampled_play_never_loses(self):
        game = mermin_game(4)
        strategy = mermin_optimal_strategy(4)
        rng = np.random.default_rng(0)
        inputs = support(game)
        for _ in range(100):
            cell = inputs[int(rng.choice(len(inputs)))]
            outputs = strategy.play(cell, rng)
            assert game.pred_tensor[outputs + cell] == 1.0
