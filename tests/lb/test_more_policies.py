"""Tests for SameTypePairedAssignment, exclusive diagonals, and sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games import (
    AffinityGraph,
    xor_game_from_graph,
)
from repro.errors import GameError
from repro.lb import (
    CHSHPairedAssignment,
    RandomAssignment,
    SameTypePairedAssignment,
    run_timestep_simulation,
)
from repro.net.packet import TaskType

C = TaskType.COLOCATE
E = TaskType.EXCLUSIVE


def tasks_of(*rows):
    """A task matrix with one row of ``TaskType.bit`` values per step."""
    return np.array([[t.bit for t in row] for row in rows], dtype=np.uint8)


class TestSameTypePaired:
    def test_cc_always_colocated(self, rng):
        policy = SameTypePairedAssignment(2, 10)
        choices = policy.assign_batch(tasks_of(*[[C, C]] * 100), rng)
        assert (choices[:, 0] == choices[:, 1]).all()

    def test_ee_always_colocated(self, rng):
        # The documented price: EE pairs collide with certainty.
        policy = SameTypePairedAssignment(2, 10)
        choices = policy.assign_batch(tasks_of(*[[E, E]] * 100), rng)
        assert (choices[:, 0] == choices[:, 1]).all()

    def test_mixed_always_split(self, rng):
        policy = SameTypePairedAssignment(4, 10)
        choices = policy.assign_batch(tasks_of(*[[C, E, E, C]] * 100), rng)
        assert (choices[:, 0] != choices[:, 1]).all()
        assert (choices[:, 2] != choices[:, 3]).all()

    def test_beats_random_in_overload(self):
        n, m = 80, 64  # load 1.25
        random_result = run_timestep_simulation(
            RandomAssignment(n, m), timesteps=600, seed=31
        )
        same_type = run_timestep_simulation(
            SameTypePairedAssignment(n, m), timesteps=600, seed=31
        )
        assert same_type.mean_queue_length < random_result.mean_queue_length

    def test_quantum_beats_same_type_at_moderate_load(self):
        n, m = 100, 91  # load ~1.1
        same_type = run_timestep_simulation(
            SameTypePairedAssignment(n, m), timesteps=700, seed=31
        )
        quantum = run_timestep_simulation(
            CHSHPairedAssignment(n, m), timesteps=700, seed=31
        )
        assert quantum.mean_queue_length < same_type.mean_queue_length


class TestExclusiveDiagonal:
    def test_diagonal_targets(self):
        graph = AffinityGraph.complete(3, {(0, 1)})
        game = xor_game_from_graph(
            graph, include_diagonal=True, exclusive_diagonal={0}
        )
        assert game.targets[0, 0] == 1
        assert game.targets[1, 1] == 0
        assert game.targets[2, 2] == 0

    def test_out_of_range_vertex(self):
        graph = AffinityGraph.complete(3, set())
        with pytest.raises(GameError):
            xor_game_from_graph(
                graph, include_diagonal=True, exclusive_diagonal={5}
            )

    def test_ignored_without_diagonal(self):
        graph = AffinityGraph.complete(3, set())
        game = xor_game_from_graph(
            graph, include_diagonal=False, exclusive_diagonal={0}
        )
        assert game.distribution[0, 0] == 0.0

    def test_exclusive_diagonal_value_landscape(self):
        """All-colocate diagonals frustrate the all-exclusive triangle
        (7/9); making *every* pair exclusive is classically trivial
        (constant opposite outputs win everything)."""
        graph = AffinityGraph.complete(3, {(0, 1), (0, 2), (1, 2)})
        plain = xor_game_from_graph(graph, include_diagonal=True)
        assert plain.classical_value() == pytest.approx(7 / 9)
        all_repel = xor_game_from_graph(
            graph, include_diagonal=True, exclusive_diagonal={0, 1, 2}
        )
        assert all_repel.classical_value() == pytest.approx(1.0)


class TestStickyServerPairs:
    def make_policy(self, sticky):
        from repro.games.chsh import colocation_quantum_strategy
        from repro.lb.policies import GroupAssignment

        return GroupAssignment(
            4, 12, colocation_quantum_strategy(), sticky_servers=sticky
        )

    def test_sticky_pairs_reuse_servers(self, rng):
        policy = self.make_policy(sticky=True)
        policy.assign_batch(tasks_of([C, C, C, C]), rng)
        for again in policy.assign_batch(tasks_of(*[[C, C, C, C]] * 20), rng):
            # Each pair stays inside its original two servers forever.
            assert set(again[0:2]) <= set(policy._sticky_servers[0])
            assert set(again[2:4]) <= set(policy._sticky_servers[1])

    def test_fresh_pairs_roam(self, rng):
        policy = self.make_policy(sticky=False)
        seen = set(
            policy.assign_batch(tasks_of(*[[C, C, C, C]] * 50), rng).ravel()
        )
        assert len(seen) > 4  # visits far more servers than sticky would

    def test_sticky_hurts_queueing(self):
        from repro.games.chsh import colocation_quantum_strategy
        from repro.lb.policies import GroupAssignment

        strategy = colocation_quantum_strategy()
        fresh = run_timestep_simulation(
            GroupAssignment(40, 32, strategy),
            timesteps=400,
            seed=3,
        )
        sticky = run_timestep_simulation(
            GroupAssignment(40, 32, strategy, sticky_servers=True),
            timesteps=400,
            seed=3,
        )
        assert sticky.mean_queue_length > fresh.mean_queue_length * 1.5


class TestDefaultTaskConversion:
    def test_ints_pass_through(self, rng):
        from repro.games.strategies import DeterministicStrategy
        from repro.lb.policies import GroupAssignment

        strategy = DeterministicStrategy(outputs_a=(0, 1), outputs_b=(1, 0))
        policy = GroupAssignment(2, 4, strategy)
        a, b = policy.assign_batch(np.array([[0, 1]]), rng)[0]
        assert 0 <= a < 4 and 0 <= b < 4

    def test_out_of_alphabet_input_rejected(self, rng):
        from repro.errors import StrategyError
        from repro.games.strategies import DeterministicStrategy
        from repro.lb.policies import GroupAssignment

        strategy = DeterministicStrategy(outputs_a=(0, 1), outputs_b=(1, 0))
        policy = GroupAssignment(2, 4, strategy)
        with pytest.raises(StrategyError):
            policy.assign_batch(np.array([[5, 0]]), rng)
