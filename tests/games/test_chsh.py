"""Tests for the CHSH game and the paper's §2 claims."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import GameError
from repro.games import (
    CHSH_CLASSICAL_VALUE,
    CHSH_QUANTUM_VALUE,
    chsh_colocation_game,
    chsh_game,
    chsh_win_probability_for_state,
    colocation_classical_strategy,
    colocation_quantum_strategy,
    optimal_classical_strategy,
    optimal_quantum_strategy,
    play_rounds,
    tilted_chsh_game,
)
from repro.quantum import DensityMatrix, isotropic_state, werner_state


class TestValuesMatchPaper:
    def test_classical_value_is_three_quarters(self):
        assert chsh_game().classical_value() == pytest.approx(
            CHSH_CLASSICAL_VALUE
        )

    def test_quantum_value_constant(self):
        assert CHSH_QUANTUM_VALUE == pytest.approx(math.cos(math.pi / 8) ** 2)
        assert CHSH_QUANTUM_VALUE == pytest.approx(0.8535533905932737)

    def test_paper_angles_achieve_tsirelson(self):
        strategy = optimal_quantum_strategy()
        win = chsh_game().value_of_strategy(strategy)
        assert win == pytest.approx(CHSH_QUANTUM_VALUE, abs=1e-10)

    def test_classical_strategy_achieves_value(self):
        win = chsh_game().value_of_strategy(optimal_classical_strategy())
        assert win == pytest.approx(CHSH_CLASSICAL_VALUE)

    def test_quantum_beats_classical(self):
        assert CHSH_QUANTUM_VALUE > CHSH_CLASSICAL_VALUE


class TestMarginalsAndCorrelations:
    def test_outputs_uniform_regardless_of_input(self):
        """Paper §2: 'each party still outputs 0 or 1 with equal
        probability' under the optimal quantum strategy."""
        strategy = optimal_quantum_strategy()
        for x in (0, 1):
            for y in (0, 1):
                joint = strategy.joint_distribution(x, y)
                assert joint.sum(axis=1) == pytest.approx([0.5, 0.5])
                assert joint.sum(axis=0) == pytest.approx([0.5, 0.5])

    def test_correlations_at_paper_angles(self):
        """|correlation| = cos(pi/4) for every input pair, with the sign
        flipped only on x = y = 1."""
        strategy = optimal_quantum_strategy()
        expected = math.cos(math.pi / 4)
        for x in (0, 1):
            for y in (0, 1):
                corr = strategy.correlation(x, y)
                sign = -1.0 if (x, y) == (1, 1) else 1.0
                assert corr == pytest.approx(sign * expected, abs=1e-10)

    def test_alice_marginal_independent_of_bob_basis(self):
        """No-signaling at the behavior level."""
        strategy = optimal_quantum_strategy()
        for x in (0, 1):
            marginal_y0 = strategy.joint_distribution(x, 0).sum(axis=1)
            marginal_y1 = strategy.joint_distribution(x, 1).sum(axis=1)
            assert marginal_y0 == pytest.approx(marginal_y1, abs=1e-10)


class TestColocationVariant:
    def test_colocation_classical_value(self):
        assert chsh_colocation_game().classical_value() == pytest.approx(0.75)

    def test_colocation_quantum_strategy_achieves_tsirelson(self):
        win = chsh_colocation_game().value_of_strategy(
            colocation_quantum_strategy()
        )
        assert win == pytest.approx(CHSH_QUANTUM_VALUE, abs=1e-10)

    def test_colocation_semantics(self):
        """Both type-C (x=y=1) wins iff same output; else different."""
        pred = chsh_colocation_game().pred_mat  # indexed [a, b, x, y]
        assert pred[0, 0, 1, 1] == 1.0
        assert pred[1, 1, 1, 1] == 1.0
        assert pred[0, 1, 1, 1] == 0.0
        assert pred[0, 1, 0, 1] == 1.0
        assert pred[1, 1, 0, 0] == 0.0

    def test_classical_strategy_attains_the_classical_value(self):
        """The Fig 4 classical pairs always split, at the game's optimum."""
        game = chsh_colocation_game()
        strategy = colocation_classical_strategy()
        assert (strategy.outputs_a, strategy.outputs_b) == ((0, 0), (1, 1))
        assert game.value_of_strategy(strategy) == game.classical_value()


class TestNoisyStates:
    def test_werner_fidelity_one_is_ideal(self):
        win = chsh_win_probability_for_state(werner_state(1.0))
        assert win == pytest.approx(CHSH_QUANTUM_VALUE, abs=1e-10)

    def test_maximally_mixed_gives_half(self):
        win = chsh_win_probability_for_state(DensityMatrix.maximally_mixed(2))
        assert win == pytest.approx(0.5, abs=1e-10)

    def test_isotropic_visibility_threshold(self):
        """CHSH advantage survives iff visibility > 1/sqrt(2)."""
        eps = 0.01
        above = chsh_win_probability_for_state(
            isotropic_state(1 / math.sqrt(2) + eps)
        )
        below = chsh_win_probability_for_state(
            isotropic_state(1 / math.sqrt(2) - eps)
        )
        assert above > CHSH_CLASSICAL_VALUE
        assert below < CHSH_CLASSICAL_VALUE

    def test_win_probability_linear_in_visibility(self):
        # p_win(v) = 1/2 + v * (p_ideal - 1/2).
        for v in (0.2, 0.5, 0.8):
            win = chsh_win_probability_for_state(isotropic_state(v))
            expected = 0.5 + v * (CHSH_QUANTUM_VALUE - 0.5)
            assert win == pytest.approx(expected, abs=1e-9)


class TestEndToEnd:
    def test_monte_carlo_quantum_matches_exact(self):
        rng = np.random.default_rng(7)
        record = play_rounds(
            chsh_game(), optimal_quantum_strategy(), 4000, rng
        )
        low, high = record.confidence_interval(z=3.5)
        assert low <= CHSH_QUANTUM_VALUE <= high

    def test_monte_carlo_classical_matches_exact(self):
        rng = np.random.default_rng(8)
        record = play_rounds(
            chsh_game(), optimal_classical_strategy(), 4000, rng
        )
        low, high = record.confidence_interval(z=3.5)
        assert low <= CHSH_CLASSICAL_VALUE <= high

    def test_input_counts_recorded(self):
        rng = np.random.default_rng(9)
        record = play_rounds(chsh_game(), optimal_classical_strategy(), 400, rng)
        assert record.input_counts.sum() == 400
        # Uniform inputs: each pair should appear roughly 100 times.
        assert record.input_counts.min() > 50

    def test_referee_rejects_a_fractional_predicate(self):
        rng = np.random.default_rng(10)
        with pytest.raises(GameError, match="fractional predicate"):
            play_rounds(
                tilted_chsh_game(0.5), optimal_quantum_strategy(), 10, rng
            )
