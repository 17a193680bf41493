"""Tests for biased CHSH/colocation games (workload-matched strategies)."""

from __future__ import annotations

import math

import pytest

from repro.errors import GameError
from repro.games.biased import (
    biased_chsh_game,
    biased_colocation_game,
    biased_game_values,
    matched_quantum_strategy,
)
from repro.games.chsh import colocation_quantum_strategy


class TestGameConstruction:
    def test_half_is_uniform_chsh(self):
        import numpy as np

        game = biased_chsh_game(0.5)
        assert np.allclose(game.distribution, 0.25)

    def test_bernoulli_product_distribution(self):
        game = biased_chsh_game(0.8)
        assert game.distribution[1, 1] == pytest.approx(0.64)
        assert game.distribution[0, 0] == pytest.approx(0.04)
        assert game.distribution[0, 1] == pytest.approx(0.16)

    def test_degenerate_bias_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(GameError):
                biased_chsh_game(p)
            with pytest.raises(GameError):
                biased_colocation_game(p)

    def test_colocation_targets(self):
        game = biased_colocation_game(0.5)
        assert game.targets[1][1] == 0  # both-C: colocate
        assert game.targets[0][0] == 1  # both-E: separate


class TestValues:
    def test_uniform_matches_chsh(self):
        value = biased_game_values(0.5)
        assert value.classical_value == pytest.approx(0.75)
        assert value.quantum_value == pytest.approx(
            math.cos(math.pi / 8) ** 2, abs=1e-6
        )

    def test_advantage_symmetric_in_bias(self):
        low = biased_game_values(0.4)
        high = biased_game_values(0.6)
        assert low.advantage == pytest.approx(high.advantage, abs=1e-4)

    def test_advantage_peaks_at_half(self):
        mid = biased_game_values(0.5).advantage
        off = biased_game_values(0.4).advantage
        far = biased_game_values(0.3).advantage
        assert mid > off > far
        assert far >= -1e-9

    def test_extreme_bias_classically_easy(self):
        value = biased_game_values(0.2)
        assert value.classical_value == pytest.approx(0.96)
        assert value.advantage == pytest.approx(0.0, abs=1e-4)

    def test_quantum_never_below_classical(self):
        for p in (0.25, 0.45, 0.55, 0.75):
            value = biased_game_values(p)
            assert value.quantum_bias >= value.classical_bias - 1e-9


class TestMatchedStrategy:
    def test_matched_achieves_sdp_value(self):
        for p in (0.4, 0.6):
            value = biased_game_values(p)
            game = biased_colocation_game(p).to_nonlocal_game()
            strategy = matched_quantum_strategy(p)
            win = game.value_of_strategy(strategy)
            assert win == pytest.approx(value.quantum_value, abs=1e-5)

    def test_matched_beats_fixed_angles_under_bias(self):
        """The paper's fixed CHSH angles lose badly to the workload-matched
        operators away from a 50/50 mix."""
        p = 0.75
        game = biased_colocation_game(p).to_nonlocal_game()
        fixed = game.value_of_strategy(colocation_quantum_strategy())
        matched = game.value_of_strategy(matched_quantum_strategy(p))
        assert matched > fixed + 0.05

    def test_matched_equals_fixed_at_half(self):
        game = biased_colocation_game(0.5).to_nonlocal_game()
        fixed = game.value_of_strategy(colocation_quantum_strategy())
        matched = game.value_of_strategy(matched_quantum_strategy(0.5))
        assert matched == pytest.approx(fixed, abs=1e-5)


class TestBiasedPolicy:
    def test_policy_runs_and_colocates(self):
        import numpy as np

        from repro.lb.biased import BiasedCHSHPairedAssignment
        from repro.net.packet import TaskType

        policy = BiasedCHSHPairedAssignment(2, 8, p_colocate=0.6)
        rng = np.random.default_rng(0)
        rounds = 2000
        same = sum(
            a == b
            for a, b in (
                policy.assign([TaskType.COLOCATE, TaskType.COLOCATE], rng)
                for _ in range(rounds)
            )
        )
        # Matched strategy still colocates both-C pairs most of the time.
        assert same / rounds > 0.6

    def test_policy_validates_bias(self):
        from repro.lb.biased import BiasedCHSHPairedAssignment

        with pytest.raises(GameError):
            BiasedCHSHPairedAssignment(4, 4, p_colocate=1.0)
