"""Tests for the general ``(prob_mat, pred_mat)`` nonlocal game layer.

The differential core: every known game value (CHSH, FFL, Magic Square,
Mermin n=2..5, multi-class colocation) must come out exactly, and the
general deterministic-table search must agree with the vectorized XOR
path and the closed forms to 1e-9.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.errors import GameError, StrategyError
from repro.games import (
    CHSH_CLASSICAL_VALUE,
    CHSH_QUANTUM_VALUE,
    DeterministicStrategy,
    FFL_CLASSICAL_VALUE,
    MAGIC_SQUARE_CLASSICAL_VALUE,
    MultipartyNonlocalGame,
    NonlocalGame,
    XORGame,
    chsh_colocation_game,
    chsh_game,
    ffl_game,
    magic_square_game,
    magic_square_optimal_strategy,
    mermin_classical_value,
    mermin_game,
    mermin_optimal_strategy,
    multi_class_colocation_game,
    multiplayer_behavior,
    optimal_quantum_strategy,
)
from tests.games._oracles import classical_value_loops, win_probability_loops

TOL = 1e-9


def _random_game(seed: int, outputs: tuple[int, int]) -> NonlocalGame:
    rng = np.random.default_rng(seed)
    prob = rng.dirichlet(np.ones(9)).reshape(3, 3)
    pred = rng.integers(0, 2, size=outputs + (3, 3)).astype(float)
    return NonlocalGame(name=f"random-{seed}", prob_mat=prob, pred_mat=pred)


def _random_xor_game(seed: int) -> NonlocalGame:
    rng = np.random.default_rng(seed)
    prob = rng.dirichlet(np.ones(12)).reshape(3, 4)
    targets = rng.integers(0, 2, size=(3, 4))
    return XORGame("random-xor", prob, targets).to_nonlocal_game()


#: Games whose vectorized classical values must match the loop brute force.
LOOP_ORACLE_GAMES = {
    "chsh": chsh_game,
    "chsh-colocation": chsh_colocation_game,
    "ffl": ffl_game,
    "magic-square": magic_square_game,
    "colocation-3": lambda: multi_class_colocation_game(3),
    "random-binary": lambda: _random_game(11, (2, 2)),
    "random-ternary": lambda: _random_game(12, (3, 2)),
    "random-xor": lambda: _random_xor_game(13),
}


class TestKnownValues:
    def test_chsh_classical(self):
        game = chsh_game()
        assert game.classical_value() == pytest.approx(
            CHSH_CLASSICAL_VALUE, abs=TOL
        )

    def test_chsh_general_matches_xor_path(self):
        game = chsh_game()
        assert game.classical_value(method="general") == pytest.approx(
            game.classical_value(method="xor"), abs=TOL
        )

    def test_chsh_quantum_value_via_behavior(self):
        game = chsh_game()
        value = game.value_of_strategy(optimal_quantum_strategy())
        assert value == pytest.approx(CHSH_QUANTUM_VALUE, abs=1e-8)

    def test_ffl_classical_two_thirds(self):
        game = ffl_game()
        assert game.classical_value() == pytest.approx(
            FFL_CLASSICAL_VALUE, abs=TOL
        )
        assert game.classical_value(method="general") == pytest.approx(
            FFL_CLASSICAL_VALUE, abs=TOL
        )

    def test_ffl_is_not_xor(self):
        # FFL's win condition (a|x != b|y) does not reduce to a parity
        # of the outputs, so the XOR adapter must decline.
        assert ffl_game().as_xor_game() is None
        with pytest.raises(GameError):
            ffl_game().classical_value(method="xor")

    def test_magic_square_classical_eight_ninths(self):
        game = magic_square_game()
        assert game.classical_value() == pytest.approx(
            MAGIC_SQUARE_CLASSICAL_VALUE, abs=TOL
        )

    def test_magic_square_pseudo_telepathy(self):
        game = magic_square_game()
        value = game.value_of_strategy(magic_square_optimal_strategy())
        assert value == pytest.approx(1.0, abs=TOL)

    def test_magic_square_shapes(self):
        game = magic_square_game()
        assert game.num_inputs == (3, 3)
        assert game.num_outputs == (4, 4)
        assert game.as_xor_game() is None

    @pytest.mark.parametrize("num_classes", [2, 3, 4])
    def test_multi_class_colocation_is_xor(self, num_classes):
        game = multi_class_colocation_game(num_classes)
        xor = game.as_xor_game()
        assert xor is not None
        assert xor.classical_value() == pytest.approx(
            game.classical_value(method="general"), abs=TOL
        )

    def test_multi_class_two_is_chsh_colocation(self):
        ours = multi_class_colocation_game(2)
        reference = chsh_colocation_game()
        assert np.array_equal(ours.pred_mat, reference.pred_mat)
        assert ours.classical_value() == pytest.approx(0.75, abs=TOL)


class TestDeterministicSearch:
    def test_best_strategy_achieves_value(self):
        for game in (chsh_game(), ffl_game(), magic_square_game()):
            alice, bob = game.best_classical_strategy()
            achieved = game.deterministic_value(alice, bob)
            assert achieved == pytest.approx(
                game.classical_value(method="general"), abs=TOL
            )

    @pytest.mark.parametrize("name", sorted(LOOP_ORACLE_GAMES))
    def test_matches_loop_brute_force(self, name):
        game = LOOP_ORACLE_GAMES[name]()
        reference = classical_value_loops(game)
        assert game.classical_value(method="general") == pytest.approx(
            reference, abs=TOL
        )
        if game.as_xor_game() is not None:
            assert game.classical_value(method="xor") == pytest.approx(
                reference, abs=TOL
            )
        alice, bob = game.best_classical_strategy()
        behavior = DeterministicStrategy(
            alice, bob, *game.num_outputs
        ).behavior()
        assert win_probability_loops(game, behavior) == pytest.approx(
            reference, abs=TOL
        )
        (nx, ny), (na, nb) = game.num_inputs, game.num_outputs
        mixed = np.random.default_rng(0).dirichlet(
            np.ones(na * nb), size=(nx, ny)
        ).reshape(nx, ny, na, nb)
        assert game.value_of_behavior(mixed) == pytest.approx(
            win_probability_loops(game, mixed), abs=TOL
        )

    def test_search_limit_guard(self):
        prob = np.full((26, 1), 1.0 / 26.0)
        pred = np.ones((3, 1, 26, 1))
        game = NonlocalGame(name="huge", prob_mat=prob, pred_mat=pred)
        with pytest.raises(GameError, match="not tractable"):
            game.classical_value(method="general")

    def test_unknown_method_rejected(self):
        with pytest.raises(GameError, match="unknown"):
            chsh_game().classical_value(method="sdp")


class TestAdapters:
    def test_xor_round_trip(self):
        game = XORGame.chsh()
        back = game.to_nonlocal_game().as_xor_game()
        assert np.array_equal(back.distribution, game.distribution)
        assert np.array_equal(back.targets, game.targets)

    def test_two_player_round_trip_value(self):
        game = chsh_colocation_game()
        reference = classical_value_loops(game)
        assert game.classical_value() == pytest.approx(reference, abs=TOL)
        xor = game.to_xor_game()
        assert xor.classical_value() == pytest.approx(reference, abs=TOL)
        assert xor.to_nonlocal_game().classical_value(
            method="general"
        ) == pytest.approx(reference, abs=TOL)

    def test_to_xor_game_raises_for_non_xor(self):
        with pytest.raises(GameError, match="not XOR-representable"):
            magic_square_game().to_xor_game()


class TestValidation:
    def test_bad_prob_shape(self):
        with pytest.raises(GameError):
            NonlocalGame(
                name="bad",
                prob_mat=np.ones(4) / 4,
                pred_mat=np.zeros((2, 2, 2, 2)),
            )

    def test_prob_must_normalize(self):
        with pytest.raises(GameError, match="probability"):
            NonlocalGame(
                name="bad",
                prob_mat=np.full((2, 2), 0.3),
                pred_mat=np.zeros((2, 2, 2, 2)),
            )

    def test_pred_input_block_must_match(self):
        with pytest.raises(GameError):
            NonlocalGame(
                name="bad",
                prob_mat=np.full((2, 2), 0.25),
                pred_mat=np.zeros((2, 2, 3, 2)),
            )

    def test_pred_entries_in_unit_interval(self):
        pred = np.zeros((2, 2, 2, 2))
        pred[0, 0, 0, 0] = 1.5
        with pytest.raises(GameError, match=r"\[0, 1\]"):
            NonlocalGame(
                name="bad", prob_mat=np.full((2, 2), 0.25), pred_mat=pred
            )

    def test_behavior_shape_checked(self):
        with pytest.raises(GameError, match="behavior shape"):
            chsh_game().value_of_behavior(np.zeros((3, 3, 4, 4)))


class TestMultiparty:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mermin_brute_force_matches_closed_form(self, n):
        game = mermin_game(n)
        assert game.classical_value() == pytest.approx(
            mermin_classical_value(n), abs=TOL
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mermin_dense_matches_sparse_brute_force(self, n):
        # Oracle: every player's deterministic bit table, scored on the
        # even-weight input list with the parity rule written out.
        inputs = [
            bits for bits in itertools.product((0, 1), repeat=n)
            if sum(bits) % 2 == 0
        ]
        best = 0.0
        for tables in itertools.product(
            itertools.product((0, 1), repeat=2), repeat=n
        ):
            wins = sum(
                sum(tables[p][bits[p]] for p in range(n)) % 2
                == (sum(bits) // 2) % 2
                for bits in inputs
            )
            best = max(best, wins / len(inputs))
        assert mermin_game(n).classical_value() == pytest.approx(
            best, abs=TOL
        )

    def test_ghz_value_via_behavior(self):
        game = mermin_game(3)
        strategy = mermin_optimal_strategy(3)
        assert game.value_of_strategy(strategy) == pytest.approx(1.0, abs=TOL)

    def test_best_strategy_achieves_value(self):
        game = mermin_game(3)
        tables = game.best_classical_strategy()
        assert game.deterministic_value(tables) == pytest.approx(
            game.classical_value(), abs=TOL
        )

    def test_zero_probability_inputs_never_win(self):
        # The GHZ game's support is the four even-parity input triples;
        # off-support cells carry zero probability in the dense form.
        game = mermin_game(3)
        assert game.prob_tensor[0, 0, 1] == 0.0
        assert (game.pred_tensor[..., 0, 0, 1] == 0.0).all()

    def test_validation(self):
        with pytest.raises(GameError, match="parties"):
            MultipartyNonlocalGame(
                name="bad",
                prob_tensor=np.ones(2) / 2,
                pred_tensor=np.zeros((2, 2)),
            )
        with pytest.raises(GameError, match="axes"):
            MultipartyNonlocalGame(
                name="bad",
                prob_tensor=np.full((2, 2), 0.25),
                pred_tensor=np.zeros((2, 2, 2)),
            )


class TestBehaviorHelpers:
    def test_multiplayer_behavior_rows_normalize(self):
        strategy = mermin_optimal_strategy(3)
        behavior = multiplayer_behavior(strategy, [2, 2, 2])
        assert behavior.shape == (2, 2, 2, 2, 2, 2)
        sums = behavior.sum(axis=(3, 4, 5))
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_multiplayer_behavior_wrong_alphabet_count(self):
        with pytest.raises(StrategyError):
            multiplayer_behavior(mermin_optimal_strategy(3), [2, 2])

    def test_strategy_behavior_method_matches_helper(self):
        strategy = mermin_optimal_strategy(3)
        assert np.allclose(
            strategy.behavior(), multiplayer_behavior(strategy, [2, 2, 2])
        )

    def test_ghz_parity_support(self):
        # All-zero inputs measure X on every GHZ qubit: the joint
        # distribution is uniform on even-parity outputs — the
        # correlation the group policies exploit.
        strategy = mermin_optimal_strategy(4)
        dist = strategy.joint_distribution((0, 0, 0, 0))
        for outcome in np.ndindex(2, 2, 2, 2):
            parity = sum(outcome) % 2
            if parity:
                assert dist[outcome] == pytest.approx(0.0, abs=1e-9)
            else:
                assert dist[outcome] == pytest.approx(1.0 / 8.0, abs=1e-9)


class TestJointDistributionCompleteness:
    def test_zero_state_raises_strategy_error(self):
        # A malformed (zero) shared state makes every projector trace
        # vanish; the old code silently renormalized 0/0 into NaNs.
        from types import SimpleNamespace

        strategy = mermin_optimal_strategy(3)
        strategy._state = SimpleNamespace(
            matrix=np.zeros((8, 8), dtype=np.complex128), num_qubits=3
        )
        with pytest.raises(StrategyError, match="not 1"):
            strategy.joint_distribution((0, 0, 0))

    def test_valid_state_unaffected(self):
        dist = mermin_optimal_strategy(3).joint_distribution((0, 0, 0))
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
