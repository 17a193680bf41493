"""Tests for assignment policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, StrategyError
from repro.games import CHSH_QUANTUM_VALUE
from repro.lb import (
    CHSHPairedAssignment,
    ClassicalPairedAssignment,
    DedicatedPoolAssignment,
    PowerOfTwoAssignment,
    RandomAssignment,
    RoundRobinAssignment,
)
from repro.net.packet import TaskType
from repro.quantum import werner_state

C = TaskType.COLOCATE
E = TaskType.EXCLUSIVE


def tasks_of(*rows):
    """A task matrix with one row of ``TaskType.bit`` values per step."""
    return np.array([[t.bit for t in row] for row in rows], dtype=np.uint8)


class TestBaseValidation:
    def test_rejects_zero_balancers(self):
        with pytest.raises(ConfigurationError):
            RandomAssignment(0, 5)

    def test_rejects_zero_servers(self):
        with pytest.raises(ConfigurationError):
            RandomAssignment(5, 0)

    def test_task_count_checked(self, rng):
        policy = RandomAssignment(4, 2)
        with pytest.raises(ConfigurationError):
            policy.assign_batch(tasks_of([C, E]), rng)


class TestRandomAssignment:
    def test_choices_in_range(self, rng):
        policy = RandomAssignment(50, 7)
        choices = policy.assign_batch(tasks_of([C] * 50), rng)
        assert ((0 <= choices) & (choices < 7)).all()

    def test_roughly_uniform(self):
        rng = np.random.default_rng(0)
        policy = RandomAssignment(10000, 4)
        choices = policy.assign_batch(tasks_of([C] * 10000), rng)
        counts = np.bincount(choices[0], minlength=4)
        assert counts.min() > 2200


class TestRoundRobin:
    def test_each_balancer_cycles(self, rng):
        policy = RoundRobinAssignment(3, 4)
        first, second = policy.assign_batch(tasks_of([C, C, C], [C, C, C]), rng)
        assert ((first + 1) % 4 == second).all()

    def test_random_initial_offsets(self, rng):
        policy = RoundRobinAssignment(100, 10)
        first = policy.assign_batch(tasks_of([C] * 100), rng)[0]
        assert len(set(first)) > 1


class TestPowerOfTwo:
    def test_prefers_shorter_queue(self, rng):
        policy = PowerOfTwoAssignment(200, 2)
        policy.observe_queues([100, 0])
        choices = policy.assign_batch(tasks_of([C] * 200), rng)
        # Server 1 is always at least as short, so every probe pair that
        # includes it picks it; only (0, 0) pairs pick 0.
        assert np.mean(choices) > 0.6

    def test_observation_size_checked(self):
        policy = PowerOfTwoAssignment(5, 3)
        with pytest.raises(ConfigurationError):
            policy.observe_queues([1, 2])


class TestDedicatedPool:
    def test_c_tasks_in_pool(self, rng):
        policy = DedicatedPoolAssignment(100, 10, pool_fraction=0.5)
        choices = policy.assign_batch(tasks_of([C] * 100), rng)
        assert (choices < policy.pool_size).all()

    def test_e_tasks_outside_pool(self, rng):
        policy = DedicatedPoolAssignment(100, 10, pool_fraction=0.5)
        choices = policy.assign_batch(tasks_of([E] * 100), rng)
        assert (choices >= policy.pool_size).all()

    def test_pool_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            DedicatedPoolAssignment(10, 10, pool_fraction=1.0)

    def test_pool_size_bounded(self):
        policy = DedicatedPoolAssignment(10, 2, pool_fraction=0.9)
        assert 1 <= policy.pool_size <= 1

    def test_single_server_rejected(self):
        # Regression: with one server the batched path silently emitted
        # server index 1. The constructor rejects the config instead.
        with pytest.raises(ConfigurationError, match=">= 2 servers"):
            DedicatedPoolAssignment(10, 1)

    def test_two_servers_still_accepted(self, rng):
        policy = DedicatedPoolAssignment(10, 2)
        choices = policy.assign_batch(tasks_of([C, E] * 5), rng)
        assert ((0 <= choices) & (choices < 2)).all()


class TestPairedPolicies:
    def test_needs_two_servers(self):
        with pytest.raises(ConfigurationError):
            CHSHPairedAssignment(10, 1)

    def test_choices_in_range(self, rng):
        policy = CHSHPairedAssignment(10, 5)
        choices = policy.assign_batch(tasks_of([C, E] * 5), rng)
        assert ((0 <= choices) & (choices < 5)).all()

    def test_odd_balancer_count_handled(self, rng):
        policy = CHSHPairedAssignment(7, 4)
        choices = policy.assign_batch(tasks_of([C] * 7), rng)
        assert choices.shape == (1, 7)

    def test_quantum_colocation_rate_matches_chsh_value(self):
        """Pairs win the colocation game at the Tsirelson rate: both-C
        lands on the same server ~85% of rounds, mixed pairs separate
        ~85% of rounds."""
        rng = np.random.default_rng(5)
        policy = CHSHPairedAssignment(4, 10)
        rounds = 4000
        choices = policy.assign_batch(tasks_of(*[[C, C, C, E]] * rounds), rng)
        same_cc = (choices[:, 0] == choices[:, 1]).mean()
        diff_ce = (choices[:, 2] != choices[:, 3]).mean()
        assert same_cc == pytest.approx(CHSH_QUANTUM_VALUE, abs=0.03)
        assert diff_ce == pytest.approx(CHSH_QUANTUM_VALUE, abs=0.03)

    def test_classical_pairs_split_unless_both_c(self):
        """Optimal classical pair strategy: outputs always differ, so
        both-C colocation never happens but all other pairs separate."""
        rng = np.random.default_rng(6)
        policy = ClassicalPairedAssignment(4, 10)
        choices = policy.assign_batch(tasks_of(*[[C, E, C, C]] * 200), rng)
        assert (choices[:, 0] != choices[:, 1]).all()
        # The classical strategy loses the both-C case.
        assert (choices[:, 2] != choices[:, 3]).all()

    def test_noisy_state_degrades_colocation(self):
        rng = np.random.default_rng(7)
        noisy = CHSHPairedAssignment(2, 10, state=werner_state(0.6))
        choices = noisy.assign_batch(tasks_of(*[[C, C]] * 3000), rng)
        rate = (choices[:, 0] == choices[:, 1]).mean()
        assert 0.5 < rate < CHSH_QUANTUM_VALUE - 0.02

    def test_marginal_uniform_over_server_pairs(self):
        """Each balancer's choice alone is uniform over servers — no
        information leaks about the partner's task (no-signaling)."""
        rng = np.random.default_rng(8)
        policy = CHSHPairedAssignment(2, 4)
        choices = policy.assign_batch(tasks_of(*[[C, E]] * 4000), rng)
        counts = np.bincount(choices[:, 0], minlength=4)
        assert (counts / counts.sum() == pytest.approx([0.25] * 4, abs=0.03))
