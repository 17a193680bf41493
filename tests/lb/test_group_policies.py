"""k-party group policies and the multi-class workload.

Both engines draw a group policy through ``assign_batch``, so they agree
per seed (``tests/lb/test_engine.py`` checks every policy); here the
multi-class pairs are run through both engines. The GHZ parity property
(even splits only) is checked directly on the assignment output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, StrategyError
from repro.games import mermin_optimal_strategy
from repro.lb import (
    ClassicalGroupAssignment,
    GHZGroupAssignment,
    GroupAssignment,
    MultiClassPairedAssignment,
    WGroupAssignment,
    run_timestep_simulation,
)
from repro.lb.policies import behavior_sampling_tables
from repro.net.workload import MultiClassTaskMix
from tests._stattools import assert_ci_overlap


def _uniform_behavior(k: int) -> np.ndarray:
    """Outputs uniform over 2**k tuples for every input."""
    return np.full((2,) * (2 * k), 1.0 / (1 << k))


class TestSamplingTables:
    def test_two_party_backward_compatible(self):
        behavior = np.zeros((2, 2, 2, 2))
        behavior[..., 0, 1] = 1.0  # always (a, b) = (0, 1)
        num_inputs, flat = behavior_sampling_tables(behavior)
        assert num_inputs == (2, 2)
        assert flat.shape == (16,)
        # Outcome index 1 == (0, 1) in C order; cumsum jumps there, and
        # input block 1 is offset by 1.
        assert np.allclose(flat[:4], [0.0, 1.0, 1.0, 1.0])
        assert np.allclose(flat[4:8], [1.0, 2.0, 2.0, 2.0])

    def test_three_party_layout(self):
        behavior = _uniform_behavior(3)
        num_inputs, flat = behavior_sampling_tables(behavior)
        assert num_inputs == (2, 2, 2)
        assert flat.shape == (8 * 8,)
        assert np.all(np.diff(flat) >= 0), "flat table must stay sorted"

    def test_odd_axes_rejected(self):
        with pytest.raises(StrategyError, match="k input axes"):
            behavior_sampling_tables(np.full((2, 2, 2), 0.25))

    def test_non_binary_outputs_rejected(self):
        with pytest.raises(StrategyError, match="binary-output"):
            behavior_sampling_tables(np.full((2, 2, 2, 3), 1.0 / 3.0))


class TestConstruction:
    def test_group_needs_two_servers(self):
        with pytest.raises(ConfigurationError, match=">= 2 servers"):
            GroupAssignment(6, 1, _uniform_behavior(3))

    @pytest.mark.parametrize(
        "cls", [GHZGroupAssignment, WGroupAssignment, ClassicalGroupAssignment]
    )
    def test_named_groups_reject_singletons(self, cls):
        with pytest.raises(ConfigurationError, match="at least two"):
            cls(6, 4, group_size=1)

    def test_strategy_object_accepted(self):
        policy = GroupAssignment(9, 4, mermin_optimal_strategy(3))
        assert policy.group_size == 3


class TestAssignment:
    def test_serial_and_batch_ranges(self):
        # One step at a time, then seven at once.
        policy = GHZGroupAssignment(10, 5, group_size=3)
        rng = np.random.default_rng(0)
        tasks = [0, 1, 0, 1, 1, 0, 0, 1, 0, 1]
        serial = policy.assign_batch(np.array([tasks]), rng)
        assert serial.shape == (1, 10)
        assert ((serial >= 0) & (serial < 5)).all()
        batch = policy.assign_batch(
            np.array([tasks] * 7), np.random.default_rng(1)
        )
        assert batch.shape == (7, 10)
        assert ((batch >= 0) & (batch < 5)).all()

    def test_group_members_land_on_two_servers(self):
        # Each group draws one server pair; its members may only use
        # those two servers, whatever the sampled outcome.
        policy = GHZGroupAssignment(12, 8, group_size=4)
        batch = policy.assign_batch(
            np.zeros((50, 12), dtype=np.int64), np.random.default_rng(3)
        )
        for row in batch:
            for g in range(3):
                assert len(set(row[g * 4 : (g + 1) * 4])) <= 2

    def test_ghz_parity_no_odd_splits(self):
        # All-type-E groups of 4 measure X on a GHZ state: joint
        # outputs have even parity, so splits are 4-0 or 2-2, never
        # 3-1 — the coordination classical shared randomness can't buy.
        policy = GHZGroupAssignment(4, 2, group_size=4)
        batch = policy.assign_batch(
            np.zeros((400, 4), dtype=np.int64), np.random.default_rng(7)
        )
        counts = (batch == 0).sum(axis=1)
        assert set(np.unique(counts)) <= {0, 2, 4}

    def test_classical_groups_are_deterministic_given_pair(self):
        # Best deterministic Mermin tables: for fixed inputs the
        # outcome tuple is fixed, so the only randomness is the pair.
        policy = ClassicalGroupAssignment(3, 2, group_size=3)
        batch = policy.assign_batch(
            np.zeros((200, 3), dtype=np.int64), np.random.default_rng(11)
        )
        patterns = {tuple(row) for row in batch}
        # Two servers, one deterministic bit pattern => at most the
        # pattern and its complement.
        assert len(patterns) <= 2

    def test_leftover_balancers_route_uniformly(self):
        policy = GHZGroupAssignment(7, 6, group_size=3)
        batch = policy.assign_batch(
            np.zeros((600, 7), dtype=np.int64), np.random.default_rng(5)
        )
        leftover = batch[:, 6]
        # The leftover column should hit every server, not just pairs.
        assert set(np.unique(leftover)) == set(range(6))

    def test_out_of_alphabet_inputs_raise(self):
        policy = GHZGroupAssignment(6, 4, group_size=3)
        with pytest.raises(StrategyError, match="alphabet"):
            policy.assign_batch(
                np.array([[0, 1, 2, 0, 1, 0]]), np.random.default_rng(0)
            )
        with pytest.raises(StrategyError, match="alphabet"):
            policy.assign_batch(
                np.full((3, 6), 2, dtype=np.int64), np.random.default_rng(0)
            )


class TestEngineParity:
    def test_chunk_size_invariance(self):
        def mean_queues(chunk_steps):
            return [
                run_timestep_simulation(
                    GHZGroupAssignment(12, 6, group_size=3),
                    timesteps=160,
                    seed=seed,
                    engine="vectorized",
                    chunk_steps=chunk_steps,
                ).mean_queue_length
                for seed in range(10)
            ]

        assert_ci_overlap(
            mean_queues(16), mean_queues(128), "chunk 16 vs 128"
        )


class TestMultiClassWorkload:
    def test_draw_batch_matches_serial_draws(self):
        # Five one-step batches draw the same classes as one batch.
        mix = MultiClassTaskMix(9, (0.5, 0.3, 0.2))
        batch = mix.draw_batch(np.random.default_rng(9), 5)
        assert batch.shape == (5, 9)
        rng = np.random.default_rng(9)
        rows = np.concatenate([mix.draw_batch(rng, 1) for _ in range(5)])
        assert np.array_equal(batch, rows)

    def test_class_frequencies(self):
        mix = MultiClassTaskMix(50, (0.5, 0.25, 0.25))
        batch = mix.draw_batch(np.random.default_rng(0), 200)
        freqs = np.bincount(batch.ravel(), minlength=3) / batch.size
        assert np.allclose(freqs, [0.5, 0.25, 0.25], atol=0.02)

    def test_classes_past_255_do_not_wrap(self):
        # 300 equiprobable classes: a uint8 draw would alias class 256
        # to class 0 and never show a class above 255.
        mix = MultiClassTaskMix(50, np.full(300, 1 / 300))
        batch = mix.draw_batch(np.random.default_rng(0), 2000)
        assert (batch >= 256).any()
        assert batch.max() < 300

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="two task classes"):
            MultiClassTaskMix(4, (1.0,))
        with pytest.raises(ConfigurationError, match="distribution"):
            MultiClassTaskMix(4, (0.5, 0.4))
        with pytest.raises(ConfigurationError, match="balancer"):
            MultiClassTaskMix(0)

    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    def test_multi_class_paired_through_both_engines(self, mode):
        def run(engine, seed):
            return run_timestep_simulation(
                MultiClassPairedAssignment(12, 6, mode=mode),
                timesteps=160,
                seed=seed,
                engine=engine,
                workload=MultiClassTaskMix(12),
            )

        for seed in range(2):
            assert run("reference", seed) == run("vectorized", seed)

    def test_mode_validated(self):
        with pytest.raises(ConfigurationError, match="mode"):
            MultiClassPairedAssignment(8, 4, mode="magic")
