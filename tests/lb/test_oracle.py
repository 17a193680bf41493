"""Tests for the omniscient coordination bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lb import (
    CHSHPairedAssignment,
    OmniscientAssignment,
    RandomAssignment,
    run_timestep_simulation,
)
from repro.net.packet import TaskType

C = TaskType.COLOCATE
E = TaskType.EXCLUSIVE


def assign_one_step(policy, tasks, rng):
    """The policy's choices for one step of ``TaskType`` tasks."""
    bits = np.array([[t.bit for t in tasks]], dtype=np.uint8)
    return policy.assign_batch(bits, rng)[0].tolist()


class TestOmniscient:
    def test_pairs_of_cs_share_servers(self, rng):
        policy = OmniscientAssignment(4, 8)
        choices = assign_one_step(policy, [C, C, C, C], rng)
        # Two pairs, each pair on one server, pairs on different servers.
        assert choices[0] == choices[1]
        assert choices[2] == choices[3]
        assert choices[0] != choices[2]

    def test_es_spread_out(self, rng):
        policy = OmniscientAssignment(4, 8)
        choices = assign_one_step(policy, [E, E, E, E], rng)
        assert len(set(choices)) == 4

    def test_mixed_never_wastes_slots(self, rng):
        policy = OmniscientAssignment(3, 4)
        choices = assign_one_step(policy, [C, E, C], rng)
        # The two C's batch together; E gets its own server.
        assert choices[0] == choices[2]
        assert choices[1] != choices[0]

    def test_uses_queue_observations(self, rng):
        policy = OmniscientAssignment(1, 3)
        policy.observe_queues([5, 0, 5])
        choices = assign_one_step(policy, [E], rng)
        assert choices == [1]

    def test_integer_task_classes_route_like_task_bits(self, rng):
        """Any nonzero class is type-C, as both engines read it: C
        subtypes 1 and 2 pair up exactly like two ``TaskType`` C's."""
        bits = OmniscientAssignment(6, 8).assign_batch(
            np.array([[1, 0, 1, 1, 0, 0]], dtype=np.uint8), rng
        )
        classes = OmniscientAssignment(6, 8).assign_batch(
            np.array([[2, 0, 1, 2, 0, 0]], dtype=np.int64), rng
        )
        assert np.array_equal(classes, bits)
        assert classes[0, 0] == classes[0, 2]

    def test_integer_task_classes_run_like_task_bits(self):
        """A run on integer classes equals the run on a trace of the
        same tasks as ``TaskType`` members."""
        from repro.net.trace import Trace
        from repro.net.workload import MultiClassTaskMix
        from repro.sim.rng import RandomStreams

        mix = MultiClassTaskMix(12, (0.5, 0.5))
        classes = mix.draw_batch(RandomStreams(4).stream("workload"), 120)
        trace = Trace(
            rounds=[[TaskType.from_bit(c) for c in row] for row in classes]
        )
        kwargs = dict(timesteps=120, seed=4)
        by_class = run_timestep_simulation(
            OmniscientAssignment(12, 10), workload=mix, **kwargs
        )
        by_type = run_timestep_simulation(
            OmniscientAssignment(12, 10), workload=trace.replayer(), **kwargs
        )
        assert by_class == by_type

    def test_observation_size_checked(self):
        policy = OmniscientAssignment(2, 3)
        with pytest.raises(ConfigurationError):
            policy.observe_queues([1, 2])

    def test_dominates_random_and_quantum(self):
        n, m = 60, 48
        kwargs = dict(timesteps=500, seed=7)
        oracle = run_timestep_simulation(OmniscientAssignment(n, m), **kwargs)
        random_result = run_timestep_simulation(RandomAssignment(n, m), **kwargs)
        quantum = run_timestep_simulation(CHSHPairedAssignment(n, m), **kwargs)
        assert oracle.mean_queue_length <= quantum.mean_queue_length
        assert oracle.mean_queue_length <= random_result.mean_queue_length

    def test_stable_below_coordinated_capacity(self):
        # With perfect batching, capacity is ~4/3 load; 1.2 stays bounded.
        n, m = 96, 80
        result = run_timestep_simulation(
            OmniscientAssignment(n, m), timesteps=600, seed=9
        )
        assert result.mean_queue_length < 2.0
