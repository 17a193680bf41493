"""Tests for behavior-level correlation sets (classical ⊂ quantum ⊂ NS)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GameError
from repro.games import (
    CHSH_QUANTUM_VALUE,
    chsh_game,
    optimal_classical_strategy,
    optimal_quantum_strategy,
)
from tests.games._correlations import (
    alice_marginal,
    behavior_win_probability,
    bob_marginal,
    classical_mixture_behavior,
    is_no_signaling,
    is_valid_behavior,
    pr_box,
)


class TestValidity:
    def test_quantum_behavior_valid(self):
        behavior = optimal_quantum_strategy().behavior()
        assert is_valid_behavior(behavior)

    def test_rejects_negative(self):
        behavior = optimal_classical_strategy().behavior()
        behavior = behavior.copy()
        behavior[0, 0, 0, 0] = -0.1
        assert not is_valid_behavior(behavior)

    def test_rejects_unnormalized(self):
        behavior = np.full((2, 2, 2, 2), 0.3)
        assert not is_valid_behavior(behavior)

    def test_rejects_wrong_rank(self):
        assert not is_valid_behavior(np.zeros((2, 2, 2)))


class TestNoSignaling:
    def test_quantum_strategies_are_no_signaling(self):
        assert is_no_signaling(optimal_quantum_strategy().behavior())

    def test_classical_strategies_are_no_signaling(self):
        assert is_no_signaling(optimal_classical_strategy().behavior())

    def test_pr_box_is_no_signaling(self):
        assert is_no_signaling(pr_box())

    def test_signaling_behavior_detected(self):
        """A behavior where Alice's output copies Bob's input signals."""
        behavior = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                behavior[x, y, y, 0] = 1.0  # a = y : blatant signaling
        assert is_valid_behavior(behavior)
        assert not is_no_signaling(behavior)

    def test_marginals_shapes(self):
        behavior = pr_box()
        assert alice_marginal(behavior).shape == (2, 2, 2)
        assert bob_marginal(behavior).shape == (2, 2, 2)

    def test_pr_box_marginals_uniform(self):
        behavior = pr_box()
        assert np.allclose(alice_marginal(behavior), 0.5)
        assert np.allclose(bob_marginal(behavior), 0.5)


class TestHierarchy:
    """The strict inclusion chain the paper's framing rests on."""

    def test_pr_box_wins_chsh_certainly(self):
        game = chsh_game()
        assert behavior_win_probability(game, pr_box()) == pytest.approx(1.0)

    def test_chain_of_values(self):
        game = chsh_game()
        classical = behavior_win_probability(
            game, optimal_classical_strategy().behavior()
        )
        quantum = behavior_win_probability(
            game, optimal_quantum_strategy().behavior()
        )
        super_quantum = behavior_win_probability(game, pr_box())
        assert classical == pytest.approx(0.75)
        assert quantum == pytest.approx(CHSH_QUANTUM_VALUE, abs=1e-9)
        assert classical < quantum < super_quantum

    def test_invalid_behavior_rejected(self):
        with pytest.raises(GameError):
            behavior_win_probability(chsh_game(), np.zeros((2, 2, 2, 2)))


class TestClassicalMixture:
    def test_point_mass(self):
        behavior = classical_mixture_behavior(
            [((0, 0), (0, 0))], [1.0]
        )
        assert behavior[0, 0, 0, 0] == 1.0
        assert is_no_signaling(behavior)

    def test_mixture_is_convex(self):
        behavior = classical_mixture_behavior(
            [((0, 0), (0, 0)), ((1, 1), (1, 1))], [0.3, 0.7]
        )
        assert behavior[0, 0, 0, 0] == pytest.approx(0.3)
        assert behavior[0, 0, 1, 1] == pytest.approx(0.7)
        assert is_valid_behavior(behavior)

    def test_mixture_never_beats_classical_value(self):
        rng = np.random.default_rng(0)
        game = chsh_game()
        assignments = [
            (tuple(rng.integers(0, 2, 2)), tuple(rng.integers(0, 2, 2)))
            for _ in range(8)
        ]
        weights = list(rng.dirichlet(np.ones(8)))
        behavior = classical_mixture_behavior(assignments, weights)
        assert behavior_win_probability(game, behavior) <= 0.75 + 1e-12

    def test_validation(self):
        with pytest.raises(GameError):
            classical_mixture_behavior([], [])
        with pytest.raises(GameError):
            classical_mixture_behavior([((0,), (0,))], [0.5])
        with pytest.raises(GameError):
            classical_mixture_behavior(
                [((0,), (0,)), ((0, 1), (0,))], [0.5, 0.5]
            )
