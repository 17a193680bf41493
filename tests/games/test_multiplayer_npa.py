"""Tests for multiplayer XOR games and the NPA-1 bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import GameError, StrategyError
from repro.games import (
    MultiplayerQuantumStrategy,
    MultiplayerXORGame,
    TwoPlayerGame,
    chsh_game,
    ghz_game,
    ghz_optimal_strategy,
    npa_upper_bound,
    uniform_distribution,
)
from repro.quantum import ghz_state
from repro.quantum.bases import computational_basis, hadamard_basis


class TestGHZGame:
    def test_classical_value(self):
        assert ghz_game().classical_value() == pytest.approx(0.75)

    def test_quantum_strategy_perfect(self):
        game = ghz_game()
        strategy = ghz_optimal_strategy()
        assert game.quantum_value_of_strategy(strategy) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_quantum_beats_classical_strictly(self):
        game = ghz_game()
        assert game.quantum_value_of_strategy(
            ghz_optimal_strategy()
        ) > game.classical_value() + 0.2

    def test_input_alphabets(self):
        game = ghz_game()
        for player in range(3):
            assert game.input_alphabet(player) == [0, 1]

    def test_monte_carlo_play(self):
        strategy = ghz_optimal_strategy()
        game = ghz_game()
        wins = 0
        n = 400
        for seed in range(n):
            rng = np.random.default_rng(seed)
            idx = int(rng.choice(4, p=list(game.probabilities)))
            inputs = game.inputs[idx]
            outputs = strategy.play(inputs, rng)
            parity = outputs[0] ^ outputs[1] ^ outputs[2]
            wins += parity == game.targets[idx]
        assert wins == n  # perfect strategy never loses


class TestMultiplayerValidation:
    def test_rejects_single_player(self):
        with pytest.raises(GameError):
            MultiplayerXORGame(
                name="bad",
                num_players=1,
                inputs=((0,),),
                probabilities=(1.0,),
                targets=(0,),
            )

    def test_rejects_tuple_length_mismatch(self):
        with pytest.raises(GameError):
            MultiplayerXORGame(
                name="bad",
                num_players=3,
                inputs=((0, 0),),
                probabilities=(1.0,),
                targets=(0,),
            )

    def test_rejects_bad_probabilities(self):
        with pytest.raises(GameError):
            MultiplayerXORGame(
                name="bad",
                num_players=2,
                inputs=((0, 0), (1, 1)),
                probabilities=(0.7, 0.7),
                targets=(0, 0),
            )

    def test_rejects_non_bit_targets(self):
        with pytest.raises(GameError):
            MultiplayerXORGame(
                name="bad",
                num_players=2,
                inputs=((0, 0),),
                probabilities=(1.0,),
                targets=(2,),
            )


class TestMultiplayerStrategy:
    def test_state_size_checked(self):
        with pytest.raises(StrategyError):
            MultiplayerQuantumStrategy(
                ghz_state(3), [{0: computational_basis(1)}] * 2
            )

    def test_missing_basis_raises(self):
        strategy = MultiplayerQuantumStrategy(
            ghz_state(3), [{0: computational_basis(1)}] * 3
        )
        with pytest.raises(StrategyError):
            strategy.joint_distribution((0, 0, 1))

    def test_joint_distribution_normalized(self):
        strategy = ghz_optimal_strategy()
        dist = strategy.joint_distribution((0, 1, 1))
        assert dist.sum() == pytest.approx(1.0)

    def test_computational_measurement_of_ghz(self):
        strategy = MultiplayerQuantumStrategy(
            ghz_state(3), [{0: computational_basis(1)}] * 3
        )
        dist = strategy.joint_distribution((0, 0, 0))
        assert dist[0, 0, 0] == pytest.approx(0.5)
        assert dist[1, 1, 1] == pytest.approx(0.5)

    def test_parity_probability(self):
        strategy = MultiplayerQuantumStrategy(
            ghz_state(3), [{0: computational_basis(1)}] * 3
        )
        # Outcomes 000 and 111: parity 0 w.p. 1/2 (000), 1 (111) parity 1.
        assert strategy.parity_probability((0, 0, 0), 0) == pytest.approx(0.5)

    def test_x_measurements_have_even_parity(self):
        """GHZ measured in XXX always has even parity — the algebraic
        heart of the Mermin argument."""
        strategy = MultiplayerQuantumStrategy(
            ghz_state(3), [{0: hadamard_basis()}] * 3
        )
        assert strategy.parity_probability((0, 0, 0), 0) == pytest.approx(
            1.0, abs=1e-10
        )


class TestNPA1:
    def test_chsh_bound_is_tsirelson(self):
        bound, result = npa_upper_bound(chsh_game(), level="1")
        assert bound == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-6)
        assert result.converged

    def test_bound_at_least_classical(self):
        game = chsh_game()
        bound, _ = npa_upper_bound(game, level="1")
        assert bound >= game.classical_value() - 1e-9

    def test_trivial_game_bound_one(self):
        game = TwoPlayerGame(
            name="always",
            num_inputs_a=2,
            num_inputs_b=2,
            num_outputs_a=2,
            num_outputs_b=2,
            distribution=uniform_distribution(2, 2),
            predicate=lambda x, y, a, b: True,
        )
        bound, _ = npa_upper_bound(game, level="1")
        assert bound == pytest.approx(1.0, abs=1e-6)

    def test_non_binary_outputs_route_through_general_form(self):
        # Always-win with a ternary output is classically perfect, so
        # the level-1 bound must land at ~1 and not above.
        game = TwoPlayerGame(
            name="ternary",
            num_inputs_a=1,
            num_inputs_b=1,
            num_outputs_a=3,
            num_outputs_b=2,
            distribution=np.ones((1, 1)),
            predicate=lambda x, y, a, b: True,
        )
        bound, _ = npa_upper_bound(game, level="1")
        assert bound == pytest.approx(1.0, abs=1e-6)

    def test_matching_game_bound(self):
        # Win iff a == b irrespective of inputs: classically perfect, so
        # the NPA bound must be ~1 and not more.
        game = TwoPlayerGame(
            name="match",
            num_inputs_a=2,
            num_inputs_b=2,
            num_outputs_a=2,
            num_outputs_b=2,
            distribution=uniform_distribution(2, 2),
            predicate=lambda x, y, a, b: a == b,
        )
        bound, _ = npa_upper_bound(game, level="1")
        assert bound == pytest.approx(1.0, abs=1e-6)
