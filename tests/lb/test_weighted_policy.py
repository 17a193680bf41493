"""Tests for the utility-weighted quantum policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GameError
from repro.lb import (
    CHSHPairedAssignment,
    SameTypePairedAssignment,
    WeightedCHSHPairedAssignment,
    run_timestep_simulation,
)
from repro.net.packet import TaskType

C = TaskType.COLOCATE
E = TaskType.EXCLUSIVE


class TestWeightedPolicy:
    def test_construction_and_attributes(self):
        policy = WeightedCHSHPairedAssignment(10, 8, cc_weight=4.0)
        assert policy.cc_weight == 4.0
        assert policy.p_colocate == 0.5

    def test_invalid_weight_rejected(self):
        with pytest.raises(GameError):
            WeightedCHSHPairedAssignment(10, 8, cc_weight=-1.0)

    def test_cc_colocation_rate_above_plain_chsh(self):
        """Heavier CC weight buys higher CC colocation accuracy."""
        rng = np.random.default_rng(0)
        rounds = 3000
        rates = {}
        for name, policy in (
            ("plain", CHSHPairedAssignment(2, 10)),
            ("weighted", WeightedCHSHPairedAssignment(2, 10, cc_weight=6.0)),
        ):
            tasks = np.full((rounds, 2), C.bit, dtype=np.uint8)
            choices = policy.assign_batch(tasks, rng)
            rates[name] = (choices[:, 0] == choices[:, 1]).mean()
        assert rates["weighted"] > rates["plain"]

    def test_pays_with_ee_accuracy(self):
        """The trade: EE separation accuracy drops below plain CHSH."""
        rng = np.random.default_rng(1)
        rounds = 3000
        rates = {}
        for name, policy in (
            ("plain", CHSHPairedAssignment(2, 10)),
            ("weighted", WeightedCHSHPairedAssignment(2, 10, cc_weight=6.0)),
        ):
            tasks = np.full((rounds, 2), E.bit, dtype=np.uint8)
            choices = policy.assign_batch(tasks, rng)
            rates[name] = (choices[:, 0] != choices[:, 1]).mean()
        assert rates["weighted"] < rates["plain"]

    def test_beats_plain_chsh_at_knee(self):
        n, m = 80, 64  # load 1.25
        plain = run_timestep_simulation(
            CHSHPairedAssignment(n, m), timesteps=600, seed=31
        )
        weighted = run_timestep_simulation(
            WeightedCHSHPairedAssignment(n, m), timesteps=600, seed=31
        )
        assert weighted.mean_queue_length < plain.mean_queue_length

    def test_beats_same_type_work_maximizer_at_knee(self):
        """The headline: utility-matched quantum reclaims the frontier
        from the deterministic classical strategy."""
        n, m = 80, 64
        same_type = run_timestep_simulation(
            SameTypePairedAssignment(n, m), timesteps=600, seed=31
        )
        weighted = run_timestep_simulation(
            WeightedCHSHPairedAssignment(n, m), timesteps=600, seed=31
        )
        assert weighted.mean_queue_length < same_type.mean_queue_length
