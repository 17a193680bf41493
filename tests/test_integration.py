"""Cross-module integration tests: the full pipelines a user would run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games import (
    CHSH_QUANTUM_VALUE,
    GameRecord,
    chsh_colocation_game,
    chsh_game,
    npa_upper_bound,
    optimal_quantum_strategy,
    play_rounds,
    random_affinity_graph,
    tsirelson_strategy,
    xor_game_from_graph,
    xor_quantum_value,
)
from repro.hardware import (
    QNIC,
    EntanglementDistributor,
    FiberChannel,
    SPDCSource,
    evaluate_budget,
)
from repro.lb import (
    CHSHPairedAssignment,
    GroupAssignment,
    RandomAssignment,
    run_timestep_simulation,
)
from repro.net.packet import TaskType

C = TaskType.COLOCATE
E = TaskType.EXCLUSIVE


class TestGameToSimulationPipeline:
    """Paper's main pipeline: CHSH game -> paired policy -> queueing win."""

    def test_quantum_policy_realizes_game_statistics(self):
        """The policy's colocation rate equals the game strategy's exact
        behavior — the simulation faithfully consumes the quantum layer."""
        game = chsh_colocation_game()
        rng = np.random.default_rng(0)
        policy = CHSHPairedAssignment(2, 6)
        rounds = 3000
        tasks = (rng.random((rounds, 2)) < 0.5).view(np.uint8)
        choices = policy.assign_batch(tasks, rng)
        same = choices[:, 0] == choices[:, 1]
        want_same = (tasks[:, 0] & tasks[:, 1]).astype(bool)
        wins = (same == want_same).mean()
        assert wins == pytest.approx(CHSH_QUANTUM_VALUE, abs=0.025)

    def test_end_to_end_queueing_advantage(self):
        classical = run_timestep_simulation(
            RandomAssignment(60, 48), timesteps=600, seed=21
        )
        quantum = run_timestep_simulation(
            CHSHPairedAssignment(60, 48), timesteps=600, seed=21
        )
        assert quantum.mean_queue_length < classical.mean_queue_length


class TestSDPToPolicyPipeline:
    """Affinity graph -> SDP -> explicit strategy -> policy."""

    def test_random_graph_strategy_matches_sdp_in_deployment(self):
        rng = np.random.default_rng(5)
        graph = random_affinity_graph(4, 0.5, rng)
        game = xor_game_from_graph(graph)
        value = xor_quantum_value(game)
        strategy = tsirelson_strategy(game)
        policy = GroupAssignment(2, 8, strategy)

        # Empirical win rate of the deployed policy against the game's
        # own referee distribution.
        flat = game.distribution.reshape(-1)
        rounds = 3000
        x, y = np.divmod(
            rng.choice(flat.size, size=rounds, p=flat), game.num_inputs_b
        )
        choices = policy.assign_batch(np.stack([x, y], axis=1), rng)
        same = choices[:, 0] == choices[:, 1]
        want_same = game.targets[x, y] == 0
        wins = (same == want_same).mean()
        assert wins == pytest.approx(value.quantum_value, abs=0.03)


class TestHardwareToPolicyPipeline:
    """Hardware budget -> degraded state -> policy performance."""

    def make_distributor(self, fidelity, coherence):
        source = SPDCSource(pair_rate=1e6, fidelity=fidelity)
        fiber = FiberChannel(length_m=1000.0)
        qnic = QNIC(storage_limit=1e-3, coherence_time=coherence)
        return EntanglementDistributor(source, fiber, fiber, qnic, qnic)

    def test_budget_predicts_policy_colocation_rate(self):
        dist = self.make_distributor(0.95, 400e-6)
        storage = 30e-6
        budget = evaluate_budget(dist, storage_a=storage, storage_b=storage)
        state = dist.effective_state(storage, storage)
        policy = CHSHPairedAssignment(2, 8, state=state)
        rng = np.random.default_rng(9)
        rounds = 3000
        tasks = (rng.random((rounds, 2)) < 0.5).view(np.uint8)
        choices = policy.assign_batch(tasks, rng)
        same = choices[:, 0] == choices[:, 1]
        wins = (same == (tasks[:, 0] & tasks[:, 1]).astype(bool)).mean()
        assert wins == pytest.approx(budget.chsh_win_probability, abs=0.03)

    def test_noise_shrinks_but_does_not_erase_queueing_benefit(self):
        """Below the CHSH *game* threshold (F ~ 0.78) the pair no longer
        beats classical at the colocation game — yet the queueing benefit
        over *random* persists, because even 66%-reliable CC colocation
        saves work. The game threshold is about the best classical
        correlated strategy, not about random assignment (see the
        classical-frontier extension bench)."""
        dist = self.make_distributor(0.6, 400e-6)
        budget = evaluate_budget(dist)
        assert not budget.has_advantage  # game-level advantage is gone
        state = dist.effective_state()
        classical = run_timestep_simulation(
            RandomAssignment(60, 48), timesteps=500, seed=23
        )
        degraded = run_timestep_simulation(
            CHSHPairedAssignment(60, 48, state=state), timesteps=500, seed=23
        )
        ideal = run_timestep_simulation(
            CHSHPairedAssignment(60, 48), timesteps=500, seed=23
        )
        # Still better than random, but worse than clean hardware.
        assert degraded.mean_queue_length < classical.mean_queue_length
        assert degraded.mean_queue_length > ideal.mean_queue_length


class TestRefereeAgainstBounds:
    """Monte-Carlo referee results respect the analytic bounds."""

    def test_empirical_rate_below_npa_bound(self):
        game = chsh_game()
        bound, _ = npa_upper_bound(game, level="1")
        rng = np.random.default_rng(3)
        record = play_rounds(game, optimal_quantum_strategy(), 3000, rng)
        assert isinstance(record, GameRecord)
        low, _high = record.confidence_interval(z=3.0)
        assert low <= bound + 1e-9

    def test_empirical_rate_above_classical_value(self):
        game = chsh_game()
        rng = np.random.default_rng(4)
        record = play_rounds(game, optimal_quantum_strategy(), 4000, rng)
        assert record.win_rate > game.classical_value()

