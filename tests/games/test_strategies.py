"""Tests for strategy classes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StrategyError
from repro.games import (
    BinaryObservable,
    DeterministicStrategy,
    QuantumStrategy,
    SharedRandomnessStrategy,
    chsh_game,
    optimal_quantum_strategy,
)
from repro.quantum import bell_pair, computational_basis, hadamard_basis
from repro.quantum.bases import rotation_basis
from repro.quantum import gates


class TestDeterministicStrategy:
    def test_play_returns_table_entries(self, rng):
        strat = DeterministicStrategy(outputs_a=(0, 1), outputs_b=(1, 0))
        assert strat.play(0, 1, rng) == (0, 0)
        assert strat.play(1, 0, rng) == (1, 1)

    def test_behavior_is_point_mass(self):
        strat = DeterministicStrategy(outputs_a=(0, 1), outputs_b=(1, 0))
        behavior = strat.behavior()
        assert behavior.shape == (2, 2, 2, 2)
        assert behavior.sum() == pytest.approx(4.0)
        assert behavior[0, 0, 0, 1] == 1.0

    def test_rejects_out_of_range_outputs(self):
        with pytest.raises(StrategyError):
            DeterministicStrategy(outputs_a=(2,), outputs_b=(0,))

    def test_rejects_empty_table(self):
        with pytest.raises(StrategyError):
            DeterministicStrategy(outputs_a=(), outputs_b=(0,))

    def test_play_outside_table(self, rng):
        strat = DeterministicStrategy(outputs_a=(0,), outputs_b=(0,))
        with pytest.raises(StrategyError):
            strat.play(5, 0, rng)


class TestSharedRandomness:
    def test_mixture_behavior_is_convex_combination(self):
        s1 = DeterministicStrategy(outputs_a=(0, 0), outputs_b=(0, 0))
        s2 = DeterministicStrategy(outputs_a=(1, 1), outputs_b=(1, 1))
        mix = SharedRandomnessStrategy([(0.25, s1), (0.75, s2)])
        behavior = mix.behavior()
        assert behavior[0, 0, 0, 0] == pytest.approx(0.25)
        assert behavior[0, 0, 1, 1] == pytest.approx(0.75)

    def test_cannot_beat_best_deterministic(self):
        """Shared randomness never exceeds the classical value (paper §3)."""
        game = chsh_game()
        rng = np.random.default_rng(3)
        strategies = [
            DeterministicStrategy(
                outputs_a=tuple(rng.integers(0, 2, size=2)),
                outputs_b=tuple(rng.integers(0, 2, size=2)),
            )
            for _ in range(6)
        ]
        weights = rng.dirichlet(np.ones(6))
        mix = SharedRandomnessStrategy(list(zip(weights, strategies)))
        assert game.value_of_strategy(mix) <= 0.75 + 1e-12

    def test_rejects_bad_weights(self):
        s = DeterministicStrategy(outputs_a=(0,), outputs_b=(0,))
        with pytest.raises(StrategyError):
            SharedRandomnessStrategy([(0.5, s)])

    def test_rejects_empty(self):
        with pytest.raises(StrategyError):
            SharedRandomnessStrategy([])

    def test_rejects_mismatched_components(self):
        s1 = DeterministicStrategy(outputs_a=(0,), outputs_b=(0,))
        s2 = DeterministicStrategy(outputs_a=(0, 1), outputs_b=(0,))
        with pytest.raises(StrategyError):
            SharedRandomnessStrategy([(0.5, s1), (0.5, s2)])

    def test_play_samples_components(self, rng):
        s1 = DeterministicStrategy(outputs_a=(0,), outputs_b=(0,))
        s2 = DeterministicStrategy(outputs_a=(1,), outputs_b=(1,))
        mix = SharedRandomnessStrategy([(0.5, s1), (0.5, s2)])
        seen = {mix.play(0, 0, rng) for _ in range(50)}
        assert seen == {(0, 0), (1, 1)}


class TestBinaryObservable:
    def test_from_z(self):
        obs = BinaryObservable(gates.Z)
        p0, p1 = obs.projectors()
        assert np.allclose(p0, np.diag([1.0, 0.0]))
        assert np.allclose(p1, np.diag([0.0, 1.0]))

    def test_rejects_non_involution(self):
        with pytest.raises(StrategyError):
            BinaryObservable(np.diag([1.0, 0.5]))

    def test_rejects_non_hermitian(self):
        from repro.errors import NotHermitianError

        with pytest.raises(NotHermitianError):
            BinaryObservable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_from_basis(self):
        obs = BinaryObservable.from_basis(hadamard_basis())
        assert np.allclose(obs.matrix, gates.X)

    def test_from_basis_rejects_multioutcome(self):
        with pytest.raises(StrategyError):
            BinaryObservable.from_basis(computational_basis(2))

    def test_projectors_sum_to_identity(self):
        obs = BinaryObservable(gates.X)
        p0, p1 = obs.projectors()
        assert np.allclose(p0 + p1, np.eye(2))


class TestQuantumStrategy:
    def test_behavior_normalized(self):
        strategy = optimal_quantum_strategy()
        behavior = strategy.behavior()
        for x in (0, 1):
            for y in (0, 1):
                assert behavior[x, y].sum() == pytest.approx(1.0)

    def test_play_statistics_match_behavior(self):
        strategy = optimal_quantum_strategy()
        counts = np.zeros((2, 2))
        n = 3000
        for seed in range(n):
            rng = np.random.default_rng(seed)
            a, b = strategy.play(1, 1, rng)
            counts[a, b] += 1
        assert np.allclose(
            counts / n, strategy.joint_distribution(1, 1), atol=0.04
        )

    def test_same_basis_on_bell_pair_correlates(self, rng):
        basis = rotation_basis(0.9)
        strategy = QuantumStrategy(bell_pair(), alice=[basis], bob=[basis])
        # (|00>+|11>)/sqrt2 in equal real bases: always... correlation is
        # cos(0)=1 when both rotate by the same real angle.
        assert strategy.correlation(0, 0) == pytest.approx(1.0, abs=1e-9)

    def test_input_sizes(self):
        strategy = optimal_quantum_strategy()
        assert strategy.num_inputs == (2, 2)

    def test_rejects_empty_measurements(self):
        with pytest.raises(StrategyError):
            QuantumStrategy(bell_pair(), alice=[], bob=[hadamard_basis()])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(StrategyError):
            QuantumStrategy(
                bell_pair(),
                alice=[BinaryObservable(np.kron(gates.Z, gates.Z))],
                bob=[hadamard_basis()],
            )

    def test_rejects_wrong_alice_qubits(self):
        with pytest.raises(StrategyError):
            QuantumStrategy(
                bell_pair(),
                alice=[hadamard_basis()],
                bob=[hadamard_basis()],
                alice_qubits=2,
            )

    def test_play_rejects_bad_inputs(self, rng):
        strategy = optimal_quantum_strategy()
        with pytest.raises(StrategyError):
            strategy.play(2, 0, rng)

    def test_rejects_unknown_measurement_type(self):
        with pytest.raises(StrategyError):
            QuantumStrategy(bell_pair(), alice=["Z"], bob=[hadamard_basis()])
