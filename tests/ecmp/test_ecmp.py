"""Tests for the ECMP study (§4.2): switches, games, reduction, search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ecmp import (
    EcmpSwitch,
    ab_statistics_invariant_under_c,
    all_pair_statistics_invariant,
    collision_game,
    decompose_after_c_measurement,
    ghz_pairwise_marginal_is_separable,
    independent_random_value,
    joint_ab_distribution,
    measure_collisions,
)
from repro.errors import (
    ConfigurationError,
    GameError,
    NetworkError,
    StrategyError,
)
from repro.games import MultiplayerQuantumStrategy, seesaw_lower_bound
from repro.net.packet import Packet
from repro.quantum import ghz_state, w_state
from repro.quantum.bases import (
    computational_basis,
    hadamard_basis,
    rotation_basis,
)


class TestEcmpSwitch:
    def test_per_flow_deterministic(self, rng):
        switch = EcmpSwitch(0, 4)
        packet = Packet(flow_id=77)
        first = switch.select_path(packet, rng)
        second = switch.select_path(packet, rng)
        assert first == second

    def test_per_flow_spreads_flows(self, rng):
        switch = EcmpSwitch(0, 4)
        paths = {
            switch.select_path(Packet(flow_id=f), rng) for f in range(100)
        }
        assert paths == {0, 1, 2, 3}

    def test_per_packet_randomizes(self):
        rng = np.random.default_rng(0)
        switch = EcmpSwitch(0, 4, mode="per-packet")
        packet = Packet(flow_id=1)
        paths = {switch.select_path(packet, rng) for _ in range(50)}
        assert len(paths) > 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EcmpSwitch(0, 0)
        with pytest.raises(ConfigurationError):
            EcmpSwitch(0, 2, mode="psychic")

    def test_different_switches_hash_differently(self, rng):
        packet = Packet(flow_id=5)
        paths = {
            EcmpSwitch(i, 8).select_path(packet, rng) for i in range(30)
        }
        assert len(paths) > 1


class TestMeasureCollisions:
    def test_collision_probability_matches_birthday(self):
        rng = np.random.default_rng(1)
        switches = [
            EcmpSwitch(i, 2, mode="per-packet") for i in range(3)
        ]
        stats = measure_collisions(switches, num_active=2, trials=4000, rng=rng)
        # Two uniform picks among two paths collide half the time.
        assert stats.collision_probability == pytest.approx(0.5, abs=0.03)

    def test_single_active_never_collides(self, rng):
        switches = [EcmpSwitch(i, 2) for i in range(3)]
        stats = measure_collisions(switches, num_active=1, trials=100, rng=rng)
        assert stats.collision_probability == 0.0

    def test_validation(self, rng):
        with pytest.raises(NetworkError):
            measure_collisions([], 1, 10, rng)
        switches = [EcmpSwitch(i, 2) for i in range(2)]
        with pytest.raises(NetworkError):
            measure_collisions(switches, 3, 10, rng)


class TestCollisionGame:
    def test_validation(self):
        with pytest.raises(GameError):
            collision_game(1, 1, 2)
        with pytest.raises(GameError):
            collision_game(3, 4, 2)
        with pytest.raises(GameError):
            collision_game(3, 2, 1)

    def test_canonical_classical_value(self):
        """Three switches, two active, two paths: the triangle cannot be
        2-colored, so one of three pairs must collide."""
        assert collision_game(3, 2, 2).classical_value() == pytest.approx(2 / 3)

    def test_enough_paths_is_perfect(self):
        # With as many paths as parties, fixed distinct paths always win.
        assert collision_game(3, 2, 3).classical_value() == pytest.approx(1.0)

    def test_random_strategy_value(self):
        # The birthday-problem complement M! / ((M-k)! M^k).
        for parties, active, paths in [(3, 2, 2), (4, 3, 3), (4, 2, 3)]:
            game = collision_game(parties, active, paths)
            closed_form = math.perm(paths, active) / paths**active
            assert independent_random_value(game) == pytest.approx(
                closed_form, abs=1e-12
            )
        assert independent_random_value(collision_game(4, 3, 3)) == (
            pytest.approx(6 / 27)
        )

    def test_classical_beats_random(self):
        game = collision_game(3, 2, 2)
        assert game.classical_value() > independent_random_value(game)

    def test_win_predicate(self):
        # Inputs (1, 1, 0): switches 0 and 1 active, switch 2 ignored.
        pred = collision_game(3, 2, 2).pred_tensor
        assert pred[0, 1, 0, 1, 1, 0] == 1.0
        assert pred[0, 1, 1, 1, 1, 0] == 1.0
        assert pred[1, 1, 0, 1, 1, 0] == 0.0

    def test_active_subsets(self):
        # Six equally likely active pairs among four switches, and no
        # other activity pattern.
        prob = collision_game(4, 2, 2).prob_tensor
        assert np.count_nonzero(prob) == 6
        assert prob[1, 1, 0, 0] == pytest.approx(1 / 6)
        assert prob[1, 1, 1, 0] == 0.0

    def test_monte_carlo_fixed_assignment(self):
        # Sampled rounds of a fixed assignment win 2/3 of the time.
        game = collision_game(3, 2, 2)
        rng = np.random.default_rng(3)
        flat = game.prob_tensor.reshape(-1)
        assignment = (0, 1, 0)
        wins = 0
        trials = 4000
        for cell in rng.choice(flat.size, size=trials, p=flat):
            inputs = np.unravel_index(cell, game.num_inputs)
            wins += game.pred_tensor[assignment + tuple(inputs)]
        assert wins / trials == pytest.approx(2 / 3, abs=0.03)
        tables = [(p, p) for p in assignment]
        assert game.deterministic_value(tables) == pytest.approx(2 / 3)


class TestReduction:
    BASES = [
        computational_basis(1),
        hadamard_basis(),
        rotation_basis(0.7),
        rotation_basis(-1.1),
    ]

    def test_ab_invariant_for_ghz(self):
        assert ab_statistics_invariant_under_c(
            ghz_state(3), hadamard_basis(), rotation_basis(0.3), self.BASES
        )

    def test_ab_invariant_for_w_state(self):
        assert ab_statistics_invariant_under_c(
            w_state(3), computational_basis(1), hadamard_basis(), self.BASES
        )

    def test_all_pairs_invariant_for_ghz(self):
        assert all_pair_statistics_invariant(ghz_state(3), self.BASES)

    def test_distribution_normalized(self):
        dist = joint_ab_distribution(
            ghz_state(3), hadamard_basis(), hadamard_basis(),
            basis_c=rotation_basis(0.5),
        )
        assert dist.sum() == pytest.approx(1.0)

    def test_rejects_wrong_party_count(self):
        from repro.quantum import bell_pair

        with pytest.raises(GameError):
            joint_ab_distribution(
                bell_pair(), hadamard_basis(), hadamard_basis()
            )

    def test_decomposition_is_a_mixture(self):
        parts = decompose_after_c_measurement(ghz_state(3), hadamard_basis())
        probs = [p for p, _ in parts]
        assert sum(probs) == pytest.approx(1.0)
        for _, rho in parts:
            assert rho.num_qubits == 2

    def test_decomposition_recovers_marginal(self):
        """Averaging the conditional A-B states over C's outcomes must
        reproduce Tr_C(rho) — the reduction's WLOG step."""
        for basis in (computational_basis(1), hadamard_basis(),
                      rotation_basis(0.9)):
            parts = decompose_after_c_measurement(ghz_state(3), basis)
            mixed = sum(p * rho.matrix for p, rho in parts)
            marginal = ghz_state(3).to_density_matrix().partial_trace([0, 1])
            assert np.allclose(mixed, marginal.matrix, atol=1e-10)

    def test_ghz_marginal_separable(self):
        assert ghz_pairwise_marginal_is_separable()

    def test_ghz_conditional_states_product_after_z(self):
        """Measuring C's GHZ share computationally leaves A-B in |00> or
        |11> — no entanglement whatsoever survives for the active pair."""
        parts = decompose_after_c_measurement(
            ghz_state(3), computational_basis(1)
        )
        for _, rho in parts:
            assert rho.is_pure()
            # Purity of each single-qubit marginal == 1 => product state.
            assert rho.partial_trace([0]).is_pure(tolerance=1e-8)


class TestSeesaw:
    def test_never_beats_classical_on_canonical_game(self):
        """The §4.2 conjecture's numerical evidence."""
        game = collision_game(3, 2, 2)
        result = seesaw_lower_bound(game, restarts=4, iterations=40, seed=0)
        assert result.value <= game.classical_value() + 1e-9

    def test_reaches_classical_value(self):
        game = collision_game(3, 2, 2)
        result = seesaw_lower_bound(game, restarts=4, iterations=40, seed=0)
        assert result.value == pytest.approx(game.classical_value(), abs=1e-6)

    def test_higher_local_dimension_no_help(self):
        game = collision_game(3, 2, 2)
        result = seesaw_lower_bound(
            game, dim=4, restarts=2, iterations=25, seed=1
        )
        assert result.value <= game.classical_value() + 1e-9

    def test_four_party_game_no_advantage(self):
        game = collision_game(4, 2, 2)
        result = seesaw_lower_bound(game, restarts=3, iterations=30, seed=2)
        assert result.value <= game.classical_value() + 1e-9

    def test_three_path_game_reaches_classical(self):
        # One qutrit per switch hosts all three paths; the optimized
        # strategy reaches the classical value and never beats it.
        game = collision_game(4, 3, 3)
        result = seesaw_lower_bound(game, dim=3, restarts=2, iterations=40)
        assert result.value == pytest.approx(game.classical_value(), abs=1e-6)
        assert result.value <= game.classical_value() + 1e-9
        assert len(result.effects) == 4
        assert result.behavior.shape == (2,) * 4 + (3,) * 4

    def test_rejects_tiny_local_dim(self):
        with pytest.raises(GameError):
            seesaw_lower_bound(collision_game(3, 2, 2), dim=1)


def ghz_strategy(bases):
    """Each party measures its GHZ share in one fixed basis."""
    return MultiplayerQuantumStrategy(
        ghz_state(len(bases)), [{0: basis, 1: basis} for basis in bases]
    )


class TestGHZStrategies:
    def test_never_beats_classical(self):
        game = collision_game(3, 2, 2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            bases = [rotation_basis(rng.uniform(0, math.pi)) for _ in range(3)]
            value = game.value_of_strategy(ghz_strategy(bases))
            assert value <= game.classical_value() + 1e-9

    def test_collision_half_with_equal_bases(self):
        """Identical bases on the GHZ marginal (|00><00|+|11><11|)/2 give
        perfectly correlated outputs — guaranteed collision."""
        game = collision_game(3, 2, 2)
        value = game.value_of_strategy(
            ghz_strategy([computational_basis(1)] * 3)
        )
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_hadamard_bases_are_coin_flips(self):
        game = collision_game(3, 2, 2)
        value = game.value_of_strategy(ghz_strategy([hadamard_basis()] * 3))
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_validation(self):
        # Two bases for a three-qubit GHZ state.
        with pytest.raises(StrategyError):
            MultiplayerQuantumStrategy(
                ghz_state(3), [{0: hadamard_basis(), 1: hadamard_basis()}] * 2
            )
        # Qubit measurements give two outcomes, not three paths.
        with pytest.raises(GameError):
            collision_game(4, 3, 3).value_of_strategy(
                ghz_strategy([hadamard_basis()] * 4)
            )
