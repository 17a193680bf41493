"""Tests for trace-driven workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lb import RandomAssignment, run_timestep_simulation
from repro.net.packet import TaskType
from repro.net.trace import Trace
from tests._traces import record_bernoulli_trace

C = TaskType.COLOCATE
E = TaskType.EXCLUSIVE


class TestTrace:
    def test_append_and_shape(self):
        trace = Trace()
        trace.append([C, E])
        trace.append([E, E])
        assert trace.num_rounds == 2
        assert trace.num_balancers == 2

    def test_width_mismatch_rejected(self):
        trace = Trace()
        trace.append([C, E])
        with pytest.raises(ConfigurationError):
            trace.append([C])

    def test_constructor_width_check(self):
        with pytest.raises(ConfigurationError):
            Trace(rounds=[[C], [C, E]])

    def test_colocate_fraction(self):
        trace = Trace(rounds=[[C, E], [C, C]])
        assert trace.colocate_fraction() == pytest.approx(0.75)

    def test_colocate_fraction_empty(self):
        with pytest.raises(ConfigurationError):
            Trace().colocate_fraction()


class TestCSV:
    def test_round_trip(self):
        trace = Trace(rounds=[[C, E, E], [E, C, C]])
        loaded = Trace.from_csv(trace.to_csv())
        assert loaded.rounds == trace.rounds

    def test_file_round_trip(self, tmp_path):
        trace = Trace(rounds=[[C, E]])
        path = tmp_path / "trace.csv"
        trace.save(path)
        assert Trace.load(path).rounds == trace.rounds

    def test_missing_header(self):
        with pytest.raises(ConfigurationError):
            Trace.from_csv("tasks\n0,CE\n")

    def test_bad_letter(self):
        with pytest.raises(ConfigurationError):
            Trace.from_csv("round,tasks\n0,CQ\n")

    def test_non_integer_round_index(self):
        with pytest.raises(ConfigurationError, match="non-integer round"):
            Trace.from_csv("round,tasks\nzero,CE\n")

    def test_shuffled_rounds_rejected(self):
        with pytest.raises(ConfigurationError, match="0..n-1 in order"):
            Trace.from_csv("round,tasks\n1,CE\n0,EC\n")

    def test_duplicated_round_rejected(self):
        with pytest.raises(ConfigurationError, match="0..n-1 in order"):
            Trace.from_csv("round,tasks\n0,CE\n0,EC\n")

    def test_gapped_rounds_rejected(self):
        """A truncated copy (rounds 0 and 2, round 1 lost) fails loudly."""
        with pytest.raises(ConfigurationError, match="expected 1, got 2"):
            Trace.from_csv("round,tasks\n0,CE\n2,EC\n")

    def test_offset_start_rejected(self):
        with pytest.raises(ConfigurationError, match="expected 0, got 3"):
            Trace.from_csv("round,tasks\n3,CE\n4,EC\n")


class TestReplayer:
    def test_replays_in_order(self, rng):
        trace = Trace(rounds=[[C, E], [E, E]])
        replayer = trace.replayer()
        assert replayer.draw_batch(rng, 1).tolist() == [[1, 0]]
        assert replayer.draw_batch(rng, 1).tolist() == [[0, 0]]

    def test_exhaustion_raises(self, rng):
        replayer = Trace(rounds=[[C]]).replayer()
        replayer.draw_batch(rng, 1)
        with pytest.raises(ConfigurationError):
            replayer.draw_batch(rng, 1)

    def test_cycle_mode(self, rng):
        replayer = Trace(rounds=[[C], [E]]).replayer(cycle=True)
        seen = [replayer.draw_batch(rng, 1)[0, 0] for _ in range(4)]
        assert seen == [1, 0, 1, 0]

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            Trace().replayer()


class TestRecording:
    def test_record_bernoulli(self, rng):
        trace = record_bernoulli_trace(10, 50, rng, p_colocate=0.5)
        assert trace.num_rounds == 50
        assert trace.num_balancers == 10
        assert 0.3 < trace.colocate_fraction() < 0.7

    def test_record_validation(self, rng):
        with pytest.raises(ConfigurationError):
            record_bernoulli_trace(10, 0, rng)


class TestSimulationIntegration:
    def test_trace_driven_simulation_reproducible(self, rng):
        trace = record_bernoulli_trace(20, 120, rng)
        policy_a = RandomAssignment(20, 20)
        policy_b = RandomAssignment(20, 20)
        a = run_timestep_simulation(
            policy_a, timesteps=100, seed=5, workload=trace.replayer()
        )
        b = run_timestep_simulation(
            policy_b, timesteps=100, seed=5, workload=trace.replayer()
        )
        assert a == b

    def test_same_trace_different_policies_comparable(self, rng):
        """Replaying one trace removes workload variance between
        policies — the §5 'testbed knows the stream' methodology."""
        from repro.lb import CHSHPairedAssignment

        trace = record_bernoulli_trace(60, 700, rng)
        random_result = run_timestep_simulation(
            RandomAssignment(60, 48),
            timesteps=600,
            seed=5,
            workload=trace.replayer(),
        )
        quantum_result = run_timestep_simulation(
            CHSHPairedAssignment(60, 48),
            timesteps=600,
            seed=5,
            workload=trace.replayer(),
        )
        assert (
            quantum_result.mean_queue_length < random_result.mean_queue_length
        )

    def test_balancer_count_checked(self, rng):
        trace = record_bernoulli_trace(5, 10, rng)
        with pytest.raises(ConfigurationError):
            run_timestep_simulation(
                RandomAssignment(10, 10),
                timesteps=5,
                workload=trace.replayer(),
            )
