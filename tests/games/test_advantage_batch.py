"""Differential tests: batched Fig 3 pipeline vs the reference path.

The batched cascade is only admissible because it makes the *same*
per-game decisions as the serial reference loop. These tests pin that
down at every layer: sampling consumes the RNG identically, the stacked
ADMM reproduces per-game SDP optima, and the cascade's verdicts equal
``has_quantum_advantage`` game-by-game — including when the screens are
crippled and everything escalates to the SDP stage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GameError
from repro.games import (
    CascadeReport,
    advantage_decisions,
    advantage_probability,
    classical_bias_batch,
    has_quantum_advantage,
    random_affinity_graph,
    sample_game_batch,
    screen_advantage_batch,
    screen_game_batch,
    xor_game_from_graph,
)
from repro.games.batch import (
    STAGES,
    alternating_lower_bound_batch,
    bias_cost_batch,
)
from repro.sdp import solve_diagonal_sdp, solve_diagonal_sdp_batch


def reference_games(num_types, p_exclusive, num_games, rng):
    games = []
    for _ in range(num_games):
        affinity = random_affinity_graph(num_types, p_exclusive, rng)
        games.append(xor_game_from_graph(affinity))
    return games


class TestSamplingParity:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_batch_draws_the_reference_games(self, p):
        batch = sample_game_batch(5, p, 12, np.random.default_rng(42))
        serial = reference_games(5, p, 12, np.random.default_rng(42))
        assert batch.num_games == 12
        for index, game in enumerate(serial):
            assert np.array_equal(batch.targets[index], game.targets)
            assert np.allclose(batch.distribution, game.distribution)

    def test_rng_state_advances_identically(self):
        batched_rng = np.random.default_rng(7)
        serial_rng = np.random.default_rng(7)
        sample_game_batch(4, 0.5, 9, batched_rng)
        reference_games(4, 0.5, 9, serial_rng)
        assert batched_rng.random() == serial_rng.random()

    def test_include_diagonal_matches_reference(self):
        batch = sample_game_batch(
            4, 0.5, 6, np.random.default_rng(3), include_diagonal=True
        )
        serial_rng = np.random.default_rng(3)
        for index in range(6):
            affinity = random_affinity_graph(4, 0.5, serial_rng)
            game = xor_game_from_graph(affinity, include_diagonal=True)
            assert np.allclose(batch.distribution, game.distribution)
            assert np.array_equal(batch.targets[index], game.targets)

    def test_materialized_games_round_trip(self):
        batch = sample_game_batch(5, 0.4, 4, np.random.default_rng(11))
        games = batch.games()
        assert len(games) == 4
        for index, game in enumerate(games):
            assert np.array_equal(game.targets, batch.targets[index])

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GameError):
            sample_game_batch(1, 0.5, 3, rng)
        with pytest.raises(GameError):
            sample_game_batch(4, 1.5, 3, rng)
        with pytest.raises(GameError):
            sample_game_batch(4, 0.5, 0, rng)


class TestClassicalBiasParity:
    def test_matches_per_game_brute_force(self):
        batch = sample_game_batch(5, 0.5, 10, np.random.default_rng(5))
        biases = classical_bias_batch(batch.cost_matrices())
        for index, game in enumerate(batch.games()):
            assert biases[index] == pytest.approx(
                game.classical_bias(), abs=1e-12
            )

    def test_rejects_oversized_input_side(self):
        with pytest.raises(GameError):
            classical_bias_batch(np.ones((1, 25, 25)))


class TestStackedSDPOnGameBlocks:
    def test_optima_match_serial_on_fifty_games(self):
        # ISSUE acceptance: stacked-ADMM optima match the per-game solver
        # within tolerance on >= 50 random games.
        batch = sample_game_batch(5, 0.5, 50, np.random.default_rng(17))
        blocks = bias_cost_batch(batch.cost_matrices())
        batched = solve_diagonal_sdp_batch(blocks, tolerance=1e-8)
        for index in range(50):
            serial = solve_diagonal_sdp(blocks[index], tolerance=1e-8)
            assert batched[index].objective == pytest.approx(
                serial.objective, abs=1e-9
            )
            assert batched[index].upper_bound == pytest.approx(
                serial.upper_bound, abs=1e-9
            )
            assert batched[index].iterations == serial.iterations


class TestDecisionParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p", [0.15, 0.5, 0.85])
    def test_batched_equals_reference_decisions(self, seed, p):
        batched = advantage_decisions(
            5, p, 8, np.random.default_rng(seed), method="batched"
        )
        reference = advantage_decisions(
            5, p, 8, np.random.default_rng(seed), method="reference"
        )
        assert np.array_equal(batched, reference)

    def test_degenerate_points_have_no_advantage(self):
        for p in (0.0, 1.0):
            verdicts = advantage_decisions(5, p, 6, np.random.default_rng(1))
            assert not verdicts.any()

    def test_auto_equals_batched(self):
        auto = advantage_decisions(5, 0.4, 10, np.random.default_rng(2))
        batched = advantage_decisions(
            5, 0.4, 10, np.random.default_rng(2), method="batched"
        )
        assert np.array_equal(auto, batched)

    def test_advantage_probability_methods_agree(self):
        prob_auto = advantage_probability(5, 0.5, 10, np.random.default_rng(4))
        prob_ref = advantage_probability(
            5, 0.5, 10, np.random.default_rng(4), method="reference"
        )
        assert prob_auto == prob_ref

    def test_verdicts_match_has_quantum_advantage_per_game(self):
        rng = np.random.default_rng(23)
        report = screen_advantage_batch(5, 0.5, 10, rng)
        games = reference_games(5, 0.5, 10, np.random.default_rng(23))
        for index, game in enumerate(games):
            assert report.verdicts[index] == has_quantum_advantage(game)

    def test_forced_escalation_keeps_parity(self):
        # Cripple the heuristic so the lower/upper screens barely decide
        # anything; the SDP stage must still reproduce the reference
        # verdicts exactly.
        batch = sample_game_batch(5, 0.5, 12, np.random.default_rng(31))
        report = screen_game_batch(batch, restarts=1, iterations=3)
        assert report.stage_counts()["sdp"] > 0
        for index, game in enumerate(batch.games()):
            assert report.verdicts[index] == has_quantum_advantage(game)

    def test_rejects_unknown_method(self):
        with pytest.raises(GameError):
            advantage_decisions(
                5, 0.5, 4, np.random.default_rng(0), method="bogus"
            )
        with pytest.raises(GameError):
            advantage_decisions(5, 0.5, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("family", ["colocation3", "random-nonlocal"])
    def test_reference_method_is_xor_only(self, family):
        # Only the XOR family has the serial per-game SDP loop.
        with pytest.raises(GameError, match="reference"):
            advantage_decisions(
                3,
                0.5,
                3,
                np.random.default_rng(0),
                method="reference",
                game_family=family,
            )


class TestCascadeReport:
    def test_report_internal_consistency(self):
        report = screen_advantage_batch(5, 0.4, 20, np.random.default_rng(9))
        assert isinstance(report, CascadeReport)
        assert report.num_games == 20
        counts = report.stage_counts()
        assert set(counts) == set(STAGES)
        assert sum(counts.values()) == 20
        assert report.advantage_probability == pytest.approx(
            report.verdicts.mean()
        )
        assert report.escalation_rate == pytest.approx(
            counts["sdp"] / 20
        )

    def test_stage_semantics(self):
        report = screen_advantage_batch(5, 0.5, 24, np.random.default_rng(13))
        perfect = report.stages == STAGES.index("perfect")
        lower = report.stages == STAGES.index("lower")
        upper = report.stages == STAGES.index("upper")
        # The perfect screen only fires when classical play saturates.
        assert not report.verdicts[perfect].any()
        assert (
            report.classical_bias[perfect] + report.threshold >= 1.0
        ).all()
        # The lower screen only ever proves advantage; the upper screen
        # only ever refutes it.
        assert report.verdicts[lower].all()
        assert not report.verdicts[upper].any()
        # Diagnostics are populated exactly where their stage ran.
        assert np.isnan(report.lower_bounds[perfect]).all()
        assert not np.isnan(report.lower_bounds[~perfect]).any()
        assert not np.isnan(report.upper_bounds[upper]).any()

    def test_bounds_bracket_where_computed(self):
        report = screen_advantage_batch(5, 0.5, 24, np.random.default_rng(29))
        computed = ~np.isnan(report.upper_bounds)
        assert (
            report.lower_bounds[computed]
            <= report.upper_bounds[computed] + 1e-7
        ).all()

    def test_cascade_emits_metrics(self):
        from repro.obs import capture

        with capture() as registry:
            screen_advantage_batch(5, 0.5, 10, np.random.default_rng(3))
        counters = registry.snapshot()["counters"]
        assert counters["fig3.cascade.games"] == 10
        assert sum(
            counters.get(f"fig3.cascade.{name}", 0) for name in STAGES
        ) == 10

    def test_ascent_counts_slice_iterations(self):
        from repro.obs import capture

        costs = sample_game_batch(
            5, 0.5, 1, np.random.default_rng(8)
        ).cost_matrices()
        with capture() as registry:
            alternating_lower_bound_batch(costs)
        single = registry.snapshot()["counters"]["fig3.ascent.iterations"]
        assert 0 < single <= 3 * 200
        # Copies of one game run identical trajectories.
        with capture() as registry:
            alternating_lower_bound_batch(np.repeat(costs, 4, axis=0))
        counters = registry.snapshot()["counters"]
        assert counters["fig3.ascent.iterations"] == 4 * single
