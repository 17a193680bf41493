"""Tests for XOR games and their quantum values."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import GameError
from repro.games import (
    XORGame,
    alternating_bias_lower_bound,
    anticommuting_observables,
    has_quantum_advantage,
    tsirelson_strategy,
    xor_quantum_bias,
    xor_quantum_value,
)
from tests.games._oracles import classical_value_loops


def all_colocate_game(n: int = 3) -> XORGame:
    dist = np.full((n, n), 1.0 / (n * n))
    return XORGame("colocate", dist, np.zeros((n, n), dtype=int))


class TestXORGameConstruction:
    def test_chsh_factory(self):
        game = XORGame.chsh()
        assert game.num_inputs_a == 2
        assert game.num_inputs_b == 2

    def test_rejects_bad_distribution(self):
        with pytest.raises(GameError):
            XORGame("bad", np.ones((2, 2)), np.zeros((2, 2), dtype=int))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GameError):
            XORGame(
                "bad", np.full((2, 2), 0.25), np.zeros((3, 3), dtype=int)
            )

    def test_rejects_non_bit_targets(self):
        with pytest.raises(GameError):
            XORGame("bad", np.full((2, 2), 0.25), np.full((2, 2), 2))

    def test_rejects_1d(self):
        with pytest.raises(GameError):
            XORGame("bad", np.ones(4) / 4, np.zeros(4, dtype=int))

    def test_cost_matrix_signs(self):
        game = XORGame.chsh()
        w = game.cost_matrix()
        assert w[0, 0] == pytest.approx(0.25)
        assert w[1, 1] == pytest.approx(-0.25)

    def test_repr(self):
        assert "chsh" in repr(XORGame.chsh())


class TestClassicalValues:
    def test_chsh_classical_bias(self):
        assert XORGame.chsh().classical_bias() == pytest.approx(0.5)

    def test_chsh_classical_value(self):
        assert XORGame.chsh().classical_value() == pytest.approx(0.75)

    def test_all_colocate_perfect(self):
        game = all_colocate_game()
        assert game.classical_value() == pytest.approx(1.0)

    def test_best_assignment_achieves_bias(self):
        game = XORGame.chsh()
        alice, bob = game.best_classical_assignment()
        w = game.cost_matrix()
        achieved = float(alice @ w @ bob)
        assert achieved == pytest.approx(game.classical_bias())

    def test_matches_generic_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            dist = rng.dirichlet(np.ones(9)).reshape(3, 3)
            targets = rng.integers(0, 2, size=(3, 3))
            game = XORGame("rand", dist, targets)
            generic = classical_value_loops(game.to_nonlocal_game())
            assert game.classical_value() == pytest.approx(generic, abs=1e-10)

    def test_brute_force_guard(self):
        n = 25
        dist = np.full((n, 2), 1.0 / (2 * n))
        with pytest.raises(GameError):
            XORGame("big", dist, np.zeros((n, 2), dtype=int)).classical_bias()

    def test_brute_force_guard_on_assignment(self):
        n = 25
        dist = np.full((n, 2), 1.0 / (2 * n))
        game = XORGame("big", dist, np.zeros((n, 2), dtype=int))
        with pytest.raises(GameError):
            game.best_classical_assignment()

    @staticmethod
    def loop_classical_bias(game: XORGame) -> float:
        """The pre-vectorization per-pattern loop, kept as the oracle."""
        w = game.cost_matrix()
        nx = game.num_inputs_a
        best = -np.inf
        for pattern in range(1 << (nx - 1), 1 << nx):
            signs = np.where((pattern >> np.arange(nx)) & 1, 1.0, -1.0)
            best = max(best, float(np.abs(signs @ w).sum()))
        return best

    def test_vectorized_bias_matches_loop_on_random_games(self):
        rng = np.random.default_rng(17)
        for nx, ny in [(1, 1), (2, 3), (4, 4), (5, 2), (7, 3)]:
            dist = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
            targets = rng.integers(0, 2, size=(nx, ny))
            game = XORGame("rand", dist, targets)
            assert game.classical_bias() == pytest.approx(
                self.loop_classical_bias(game), abs=1e-12
            )

    def test_assignment_consistent_with_bias_on_random_games(self):
        """Regression: both brute forces now enumerate the same
        global-flip-reduced pattern set, so the best assignment always
        achieves classical_bias exactly (and Alice's leading sign is the
        fixed +1 representative)."""
        rng = np.random.default_rng(23)
        for _ in range(10):
            nx, ny = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            dist = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
            targets = rng.integers(0, 2, size=(nx, ny))
            game = XORGame("rand", dist, targets)
            alice, bob = game.best_classical_assignment()
            achieved = float(alice @ game.cost_matrix() @ bob)
            assert achieved == pytest.approx(game.classical_bias(), abs=1e-12)
            assert alice[-1] == 1.0

    def test_win_probability_of_bias(self):
        game = XORGame.chsh()
        assert game.win_probability_of_bias(0.5) == pytest.approx(0.75)


class TestQuantumValues:
    def test_chsh_quantum_bias_is_tsirelson(self):
        bias, result = xor_quantum_bias(XORGame.chsh())
        assert bias == pytest.approx(math.sqrt(2) / 2, abs=1e-6)
        assert result.converged

    def test_chsh_quantum_value(self):
        value = xor_quantum_value(XORGame.chsh())
        assert value.quantum_value == pytest.approx(
            math.cos(math.pi / 8) ** 2, abs=1e-6
        )
        assert value.advantage == pytest.approx(0.1036, abs=1e-3)

    def test_upper_bound_brackets_value(self):
        value = xor_quantum_value(XORGame.chsh())
        assert value.quantum_bias <= value.quantum_bias_upper + 1e-9

    def test_colocate_game_no_advantage(self):
        assert not has_quantum_advantage(all_colocate_game())

    def test_chsh_has_advantage(self):
        assert has_quantum_advantage(XORGame.chsh())

    def test_quantum_at_least_classical(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            dist = rng.dirichlet(np.ones(16)).reshape(4, 4)
            targets = rng.integers(0, 2, size=(4, 4))
            value = xor_quantum_value(XORGame("rand", dist, targets))
            assert value.quantum_bias >= value.classical_bias - 1e-9

    def test_alternating_heuristic_below_sdp(self):
        game = XORGame.chsh()
        heuristic, _, _ = alternating_bias_lower_bound(game)
        sdp_bias, _ = xor_quantum_bias(game)
        assert heuristic <= sdp_bias + 1e-6

    def test_alternating_heuristic_finds_tsirelson_for_chsh(self):
        bias, u, v = alternating_bias_lower_bound(XORGame.chsh())
        assert bias == pytest.approx(math.sqrt(2) / 2, abs=1e-6)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0)


class TestAnticommutingObservables:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_square_to_identity(self, count):
        for gen in anticommuting_observables(count):
            assert np.allclose(gen @ gen, np.eye(gen.shape[0]))

    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    def test_pairwise_anticommute(self, count):
        gens = anticommuting_observables(count)
        for i in range(count):
            for j in range(i + 1, count):
                anti = gens[i] @ gens[j] + gens[j] @ gens[i]
                assert np.allclose(anti, 0.0, atol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(GameError):
            anticommuting_observables(0)

    def test_qubit_count(self):
        assert anticommuting_observables(4)[0].shape == (4, 4)
        assert anticommuting_observables(5)[0].shape == (8, 8)


class TestTsirelsonStrategy:
    def test_chsh_strategy_achieves_quantum_value(self):
        game = XORGame.chsh()
        strategy = tsirelson_strategy(game)
        win = game.to_nonlocal_game().value_of_strategy(strategy)
        assert win == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-6)

    def test_random_game_strategy_matches_sdp(self):
        rng = np.random.default_rng(2)
        dist = rng.dirichlet(np.ones(9)).reshape(3, 3)
        targets = rng.integers(0, 2, size=(3, 3))
        game = XORGame("rand3", dist, targets)
        bias, _ = xor_quantum_bias(game)
        strategy = tsirelson_strategy(game)
        win = game.to_nonlocal_game().value_of_strategy(strategy)
        assert win == pytest.approx((1 + bias) / 2, abs=1e-5)

    def test_strategy_marginals_uniform(self):
        """XOR-game strategies keep outputs uniformly random (paper §2)."""
        strategy = tsirelson_strategy(XORGame.chsh())
        for x in (0, 1):
            for y in (0, 1):
                joint = strategy.joint_distribution(x, y)
                assert joint.sum(axis=1) == pytest.approx([0.5, 0.5], abs=1e-8)
                assert joint.sum(axis=0) == pytest.approx([0.5, 0.5], abs=1e-8)
