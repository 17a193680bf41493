"""Tests for multiplayer games, k-party qubit strategies and the NPA-1
bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import GameError, StrategyError
from repro.games import (
    MultipartyNonlocalGame,
    MultiplayerQuantumStrategy,
    NonlocalGame,
    chsh_game,
    mermin_game,
    mermin_optimal_strategy,
    npa_upper_bound,
)
from repro.quantum import ghz_state
from repro.quantum.bases import (
    MeasurementBasis,
    computational_basis,
    hadamard_basis,
    rotation_basis,
)
from repro.quantum.linalg import expand_operator
from repro.quantum.random_states import (
    random_density_matrix,
    random_state_vector,
)


class TestGHZGame:
    def test_classical_value(self):
        assert mermin_game(3).classical_value() == pytest.approx(0.75)

    def test_quantum_strategy_perfect(self):
        game = mermin_game(3)
        strategy = mermin_optimal_strategy(3)
        assert game.value_of_strategy(strategy) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_quantum_beats_classical_strictly(self):
        game = mermin_game(3)
        assert game.value_of_strategy(
            mermin_optimal_strategy(3)
        ) > game.classical_value() + 0.2

    def test_input_alphabets(self):
        game = mermin_game(3)
        assert game.num_inputs == (2, 2, 2)
        for player in range(3):
            # Each player sees both symbols with positive probability.
            marginal = game.prob_tensor.sum(
                axis=tuple(p for p in range(3) if p != player)
            )
            assert (marginal > 0).all()

    def test_monte_carlo_play(self):
        strategy = mermin_optimal_strategy(3)
        game = mermin_game(3)
        flat = game.prob_tensor.reshape(-1)
        wins = 0
        n = 400
        for seed in range(n):
            rng = np.random.default_rng(seed)
            cell = int(rng.choice(flat.size, p=flat))
            inputs = tuple(int(i) for i in np.unravel_index(cell, (2, 2, 2)))
            outputs = strategy.play(inputs, rng)
            wins += game.pred_tensor[outputs + inputs] == 1.0
        assert wins == n  # perfect strategy never loses


class TestMultiplayerValidation:
    def test_rejects_single_player(self):
        with pytest.raises(GameError):
            MultipartyNonlocalGame(
                name="bad",
                prob_tensor=np.ones(1),
                pred_tensor=np.ones((2, 1)),
            )

    def test_rejects_tuple_length_mismatch(self):
        with pytest.raises(GameError):
            MultipartyNonlocalGame(
                name="bad",
                prob_tensor=np.full((1, 1, 1), 1.0),
                pred_tensor=np.ones((2, 2, 1, 1)),
            )

    def test_rejects_bad_probabilities(self):
        prob = np.zeros((2, 2))
        prob[0, 0] = prob[1, 1] = 0.7
        with pytest.raises(GameError):
            MultipartyNonlocalGame(
                name="bad", prob_tensor=prob, pred_tensor=np.ones((2, 2, 2, 2))
            )

    def test_rejects_non_bit_targets(self):
        pred = np.zeros((2, 2, 1, 1))
        pred[0, 0] = 2.0
        with pytest.raises(GameError):
            MultipartyNonlocalGame(
                name="bad", prob_tensor=np.ones((1, 1)), pred_tensor=pred
            )


def parity_probability(strategy, inputs, target):
    """Probability that the players' output XOR equals ``target``."""
    dist = strategy.joint_distribution(inputs)
    return sum(
        dist[outcome]
        for outcome in np.ndindex(dist.shape)
        if sum(outcome) % 2 == target
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
        strategy = mermin_optimal_strategy(3)
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
        assert parity_probability(strategy, (0, 0, 0), 0) == pytest.approx(0.5)

    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    def test_joint_distribution_matches_projector_products(self, mixed):
        # Oracle: Tr(rho P_1 ... P_n) with every projector expanded to
        # the full space.
        rng = np.random.default_rng(7)
        n = 3
        if mixed:
            state = random_density_matrix(n, rng)
            rho = state.matrix
        else:
            state = random_state_vector(n, rng)
            rho = state.to_density_matrix().matrix
        circular = MeasurementBasis(
            (np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2))
        )
        bases = [
            {0: rotation_basis(rng.uniform(0, np.pi)), 1: circular}
            for _ in range(n)
        ]
        strategy = MultiplayerQuantumStrategy(state, bases)
        for inputs in np.ndindex(2, 2, 2):
            dist = strategy.joint_distribution(inputs)
            for outcome in np.ndindex(2, 2, 2):
                op = np.eye(2**n, dtype=np.complex128)
                for p in range(n):
                    projector = bases[p][inputs[p]].projectors()[outcome[p]]
                    op = op @ expand_operator(projector, [p], n)
                expected = float(np.real(np.trace(rho @ op)))
                assert dist[outcome] == pytest.approx(expected, abs=1e-12)

    def test_x_measurements_have_even_parity(self):
        """GHZ measured in XXX always has even parity — the algebraic
        heart of the Mermin argument."""
        strategy = MultiplayerQuantumStrategy(
            ghz_state(3), [{0: hadamard_basis()}] * 3
        )
        assert parity_probability(strategy, (0, 0, 0), 0) == pytest.approx(
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
        game = NonlocalGame.from_predicate(
            "always", np.full((2, 2), 0.25), lambda x, y, a, b: True
        )
        bound, _ = npa_upper_bound(game, level="1")
        assert bound == pytest.approx(1.0, abs=1e-6)

    def test_non_binary_outputs_route_through_general_form(self):
        # Always-win with a ternary output is classically perfect, so
        # the level-1 bound must land at ~1 and not above.
        game = NonlocalGame.from_predicate(
            "ternary",
            np.ones((1, 1)),
            lambda x, y, a, b: True,
            num_outputs_a=3,
        )
        bound, _ = npa_upper_bound(game, level="1")
        assert bound == pytest.approx(1.0, abs=1e-6)

    def test_matching_game_bound(self):
        # Win iff a == b irrespective of inputs: classically perfect, so
        # the NPA bound must be ~1 and not more.
        game = NonlocalGame.from_predicate(
            "match", np.full((2, 2), 0.25), lambda x, y, a, b: a == b
        )
        bound, _ = npa_upper_bound(game, level="1")
        assert bound == pytest.approx(1.0, abs=1e-6)
