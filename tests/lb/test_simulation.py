"""Tests for the Fig 4 timestep harness, sweeps, and the DES adapter."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lb import (
    CHSHPairedAssignment,
    ClassicalGraphPairedAssignment,
    QuantumPairDecider,
    RandomAssignment,
    XORPairedAssignment,
    knee_load,
    run_des_experiment,
    run_timestep_simulation,
    sweep_load,
)
from repro.lb.simulation import SERVICE_DISCIPLINES
from repro.games import AffinityGraph
from repro.net.packet import TaskType

C = TaskType.COLOCATE
E = TaskType.EXCLUSIVE


class TestServiceDisciplines:
    def run_discipline(self, name, items):
        # Queue entries are (colocate, arrival step).
        queue = deque((t is C, 0) for t in items)
        waits = []
        served = SERVICE_DISCIPLINES[name](queue, 1, waits)
        return served, [C if colocate else E for colocate, _ in queue]

    def test_paper_serves_two_cs(self):
        served, rest = self.run_discipline("paper", [E, C, C, E])
        assert served == 2
        assert rest == [E, E]

    def test_paper_serves_one_c_if_only_one(self):
        served, rest = self.run_discipline("paper", [E, C, E])
        assert served == 1
        assert rest == [E, E]

    def test_paper_serves_one_e_without_cs(self):
        served, rest = self.run_discipline("paper", [E, E])
        assert served == 1
        assert rest == [E]

    def test_paper_empty_queue(self):
        served, rest = self.run_discipline("paper", [])
        assert served == 0

    def test_fifo_head_of_line(self):
        served, rest = self.run_discipline("fifo", [E, C, C])
        assert served == 1
        assert rest == [C, C]

    def test_fifo_pairs_adjacent_cs(self):
        served, rest = self.run_discipline("fifo", [C, C, E])
        assert served == 2
        assert rest == [E]

    def test_fifo_single_c_with_e_behind(self):
        served, rest = self.run_discipline("fifo", [C, E, C])
        assert served == 1
        assert rest == [E, C]

    def test_serial_one_per_step_c_priority(self):
        served, rest = self.run_discipline("serial", [E, C])
        assert served == 1
        assert rest == [E]

    def test_waits_recorded(self):
        queue = deque([(True, 0), (True, 2)])
        waits = []
        SERVICE_DISCIPLINES["paper"](queue, 5, waits)
        assert sorted(waits) == [3, 5]


class TestTimestepSimulation:
    def test_validation(self):
        policy = RandomAssignment(10, 10)
        with pytest.raises(ConfigurationError):
            run_timestep_simulation(policy, timesteps=0)
        with pytest.raises(ConfigurationError):
            run_timestep_simulation(policy, warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            run_timestep_simulation(policy, discipline="nope")

    def test_low_load_stable(self):
        policy = RandomAssignment(20, 40)
        result = run_timestep_simulation(policy, timesteps=400, seed=1)
        assert result.mean_queue_length < 0.5
        assert result.load == pytest.approx(0.5)

    def test_overload_grows(self):
        policy = RandomAssignment(40, 10)
        result = run_timestep_simulation(policy, timesteps=400, seed=1)
        assert result.mean_queue_length > 10.0

    def test_reproducible(self):
        a = run_timestep_simulation(RandomAssignment(20, 20), timesteps=200, seed=9)
        b = run_timestep_simulation(RandomAssignment(20, 20), timesteps=200, seed=9)
        assert a == b

    def test_seed_changes_result(self):
        a = run_timestep_simulation(RandomAssignment(20, 20), timesteps=200, seed=1)
        b = run_timestep_simulation(RandomAssignment(20, 20), timesteps=200, seed=2)
        assert a != b

    def test_quantum_beats_random_at_knee(self):
        """The headline Fig 4 claim, robust across seeds.

        A paired-difference bootstrap over 5 seeds replaces the old
        single-seed check (seed=3 happened to pass; any seed must).
        """
        from tests._stattools import assert_bootstrap_dominates

        n, m = 60, 48  # load 1.25, the knee region
        random_queues, quantum_queues = [], []
        for seed in range(5):
            random_queues.append(
                run_timestep_simulation(
                    RandomAssignment(n, m), timesteps=800, seed=seed
                ).mean_queue_length
            )
            quantum_queues.append(
                run_timestep_simulation(
                    CHSHPairedAssignment(n, m), timesteps=800, seed=seed
                ).mean_queue_length
            )
        assert_bootstrap_dominates(
            quantum_queues,
            random_queues,
            factor=0.85,
            label="quantum vs 0.85x random at the knee",
        )

    def test_served_counts_sane(self):
        result = run_timestep_simulation(
            RandomAssignment(10, 20), timesteps=500, seed=4
        )
        # Stable system: served tracks arrived (warmup backlog may push
        # served slightly above the post-warmup arrival count).
        assert result.served <= result.arrived * 1.05
        assert result.served > 0.8 * result.arrived

    def test_max_total_queue_stops_early(self):
        policy = RandomAssignment(100, 5)
        result = run_timestep_simulation(
            policy, timesteps=5000, seed=5, max_total_queue=500.0
        )
        assert result.timesteps < 4000

    def test_p_colocate_extremes_run(self):
        for p in (0.0, 1.0):
            result = run_timestep_simulation(
                RandomAssignment(10, 10), timesteps=100, seed=6, p_colocate=p
            )
            assert result.mean_queue_length >= 0.0


class TestSweep:
    def test_sweep_produces_points(self):
        points = sweep_load(
            RandomAssignment,
            num_balancers=20,
            loads=(0.5, 1.0),
            timesteps=100,
            seed=1,
        )
        assert len(points) == 2
        assert points[0].load == pytest.approx(0.5)

    def test_sweep_validation(self):
        with pytest.raises(ConfigurationError):
            sweep_load(RandomAssignment, loads=())
        with pytest.raises(ConfigurationError):
            sweep_load(RandomAssignment, loads=(-1.0,))

    def test_knee_detection(self):
        points = sweep_load(
            RandomAssignment,
            num_balancers=40,
            loads=(0.5, 1.0, 1.5, 2.0),
            timesteps=300,
            seed=2,
        )
        knee = knee_load(points, queue_threshold=5.0)
        assert 1.0 <= knee <= 2.0

    def test_requested_load_recorded(self):
        points = sweep_load(
            RandomAssignment,
            num_balancers=100,
            loads=(0.75, 1.1),
            timesteps=50,
            seed=1,
        )
        assert [p.requested_load for p in points] == [0.75, 1.1]
        # actual load is N / round(N / requested), not the request itself
        assert points[1].num_servers == 91
        assert points[1].load == pytest.approx(100 / 91)

    def test_collapsed_loads_deduped_with_warning(self):
        """Regression: at N=100, requested loads 1.0 and 1.02 both round
        to 98..100 servers — 1.02 rounds to 98, 1.0 to 100; but 1.0 and
        1.002 both give 100 servers and used to produce two identical
        points with silently wrong .load values."""
        with pytest.warns(UserWarning, match="round to 100 servers"):
            points = sweep_load(
                RandomAssignment,
                num_balancers=100,
                loads=(1.0, 1.002),
                timesteps=50,
                seed=1,
            )
        assert len(points) == 1
        assert points[0].requested_load == 1.0
        assert points[0].num_servers == 100

    def test_knee_inf_when_stable(self):
        points = sweep_load(
            RandomAssignment,
            num_balancers=10,
            loads=(0.2, 0.4),
            timesteps=200,
            seed=2,
        )
        assert knee_load(points) == float("inf")

    def test_quantum_knee_at_or_after_classical(self):
        loads = (1.0, 1.15, 1.3, 1.45)
        classical = sweep_load(
            RandomAssignment,
            num_balancers=60,
            loads=loads,
            timesteps=500,
            seed=3,
        )
        quantum = sweep_load(
            CHSHPairedAssignment,
            num_balancers=60,
            loads=loads,
            timesteps=500,
            seed=3,
        )
        assert knee_load(quantum, queue_threshold=8.0) >= knee_load(
            classical, queue_threshold=8.0
        )


class TestXORPolicies:
    def make_affinity(self):
        # Vertex 0 = exclusive class; vertices 1, 2 = two C subtypes that
        # must not mix with each other or with E.
        return AffinityGraph.complete(3, {(0, 1), (0, 2), (1, 2)})

    def test_xor_policy_runs(self, rng):
        policy = XORPairedAssignment(10, 6, self.make_affinity())
        # Inputs are vertices: 0 for type-E, 1 + subtype for type-C.
        tasks = np.array([[1 + i % 2 if i % 3 else 0 for i in range(10)]])
        choices = policy.assign_batch(tasks, rng)
        assert choices.shape == (1, 10)
        assert ((0 <= choices) & (choices < 6)).all()

    def test_classical_graph_policy_runs(self, rng):
        policy = ClassicalGraphPairedAssignment(4, 6, self.make_affinity())
        choices = policy.assign_batch(np.zeros((1, 4), dtype=np.uint8), rng)
        assert ((0 <= choices) & (choices < 6)).all()

    def test_integer_inputs_accepted(self, rng):
        policy = XORPairedAssignment(2, 4, self.make_affinity())
        choices = policy.assign_batch(np.array([[0, 2]]), rng)
        assert choices.shape == (1, 2)


class TestDESAdapter:
    def test_random_policy_runs(self):
        result = run_des_experiment(
            num_balancers=8,
            num_servers=8,
            policy="random",
            horizon=50.0,
            arrival_rate=0.5,
            seed=1,
        )
        assert result.completed > 0
        assert result.delay_stats.mean >= 0.0

    def test_quantum_policy_runs(self):
        result = run_des_experiment(
            num_balancers=8,
            num_servers=8,
            policy="quantum",
            horizon=50.0,
            arrival_rate=0.5,
            seed=1,
        )
        assert result.completed > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            run_des_experiment(
                num_balancers=4, num_servers=4, policy="psychic"
            )

    def test_odd_quantum_fleet_rejected(self):
        """An unpaired balancer would silently route at random and
        dilute the quantum curve — refuse loudly instead."""
        with pytest.raises(ConfigurationError, match="even"):
            run_des_experiment(
                num_balancers=7, num_servers=8, policy="quantum"
            )

    def test_odd_fleet_fine_for_classical_policies(self):
        result = run_des_experiment(
            num_balancers=7,
            num_servers=8,
            policy="random",
            horizon=20.0,
            seed=1,
        )
        assert result.completed > 0

    def test_no_arrivals_yields_empty_sentinel(self):
        """A horizon too short for any arrival reports the count=0
        sentinel instead of crashing (the overloaded-cell contract)."""
        result = run_des_experiment(
            num_balancers=4,
            num_servers=4,
            policy="random",
            horizon=0.5,
            arrival_rate=1e-4,
            seed=1,
        )
        assert result.completed == 0
        assert result.delay_stats.is_empty
        assert result.delay_stats.count == 0
        assert math.isnan(result.delay_stats.mean)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ConfigurationError):
            run_des_experiment(
                num_balancers=4,
                num_servers=4,
                policy="coordinated",
                coordination_rtt=-1.0,
            )

    def test_coordinated_policy_runs(self):
        result = run_des_experiment(
            num_balancers=8,
            num_servers=8,
            policy="coordinated",
            horizon=50.0,
            arrival_rate=0.5,
            seed=1,
            coordination_rtt=0.5,
        )
        assert result.completed > 0
        # Every decision pays at least the RTT.
        assert result.delay_stats.mean >= 0.5

    def test_coordinated_wins_for_long_tasks(self):
        kwargs = dict(
            num_balancers=16,
            num_servers=12,
            horizon=120.0,
            arrival_rate=0.2,
            service_time=4.0,
            seed=3,
            coordination_rtt=1.0,
        )
        coordinated = run_des_experiment(policy="coordinated", **kwargs)
        random_result = run_des_experiment(policy="random", **kwargs)
        assert (
            coordinated.delay_stats.mean < random_result.delay_stats.mean
        )

    def test_coordination_rtt_hurts_short_tasks(self):
        kwargs = dict(
            num_balancers=16,
            num_servers=12,
            horizon=80.0,
            arrival_rate=1.0,
            service_time=0.2,
            seed=3,
            coordination_rtt=1.0,
        )
        coordinated = run_des_experiment(policy="coordinated", **kwargs)
        random_result = run_des_experiment(policy="random", **kwargs)
        assert (
            coordinated.delay_stats.mean > random_result.delay_stats.mean
        )

    def test_quantum_improves_delay_under_load(self):
        kwargs = dict(
            num_balancers=20,
            num_servers=16,
            horizon=150.0,
            arrival_rate=0.8,
            seed=2,
        )
        random_result = run_des_experiment(policy="random", **kwargs)
        quantum_result = run_des_experiment(policy="quantum", **kwargs)
        assert (
            quantum_result.delay_stats.mean < random_result.delay_stats.mean
        )


class TestDESNoisyState:
    def test_noisy_state_accepted(self):
        from repro.quantum import werner_state

        result = run_des_experiment(
            num_balancers=8,
            num_servers=8,
            policy="quantum",
            horizon=50.0,
            arrival_rate=0.5,
            seed=1,
            state=werner_state(0.8),
        )
        assert result.completed > 0

    def test_noisy_decider_colocates_less(self):
        from repro.quantum import werner_state

        rng_clean = np.random.default_rng(3)
        rng_noisy = np.random.default_rng(3)
        clean = QuantumPairDecider(8, 1.0, rng_clean)
        noisy = QuantumPairDecider(
            8, 1.0, rng_noisy, state=werner_state(0.5)
        )
        rounds = 1500

        def cc_rate(decider, rng_offset):
            same = 0
            for r in range(rounds):
                now = r + 0.1
                a = decider.decide(0, C, now)
                b = decider.decide(1, C, now + 0.2)
                same += a == b
            return same / rounds

        assert cc_rate(noisy, 1) < cc_rate(clean, 0) - 0.05


class TestQuantumPairDecider:
    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            QuantumPairDecider(1, 1.0, rng)
        with pytest.raises(ConfigurationError):
            QuantumPairDecider(4, 0.0, rng)

    def test_bad_role_rejected(self, rng):
        decider = QuantumPairDecider(4, 1.0, rng)
        with pytest.raises(ConfigurationError):
            decider.decide(7, C, 0.0)

    def test_one_measurement_per_role_per_round(self, rng):
        decider = QuantumPairDecider(4, 1.0, rng)
        first = decider.decide(0, C, 0.1)
        assert 0 <= first < 4
        # Second request in the same round falls back to random but works.
        second = decider.decide(0, C, 0.5)
        assert 0 <= second < 4

    def test_cc_pairs_colocate_at_quantum_rate(self):
        rng = np.random.default_rng(3)
        same = 0
        rounds = 2000
        decider = QuantumPairDecider(8, 1.0, rng)
        for r in range(rounds):
            now = r + 0.1
            a = decider.decide(0, C, now)
            b = decider.decide(1, C, now + 0.2)
            same += a == b
        from repro.games import CHSH_QUANTUM_VALUE

        assert same / rounds == pytest.approx(CHSH_QUANTUM_VALUE, abs=0.03)
