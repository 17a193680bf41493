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
    classical_strategy_batch,
    has_quantum_advantage,
    random_affinity_graph,
    sample_game_batch,
    screen_advantage_batch,
    screen_game_batch,
    xor_game_from_graph,
    xor_quantum_value,
)
from repro.games.batch import (
    STAGES,
    alternating_lower_bound_batch,
    bias_cost_batch,
)
from repro.sdp import dual_upper_bound_batch, solve_diagonal_sdp_batch


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

    @pytest.mark.parametrize("include_diagonal", [False, True])
    def test_strategy_attains_the_bias(self, include_diagonal):
        batch = sample_game_batch(
            5, 0.5, 12, np.random.default_rng(6),
            include_diagonal=include_diagonal,
        )
        costs = batch.cost_matrices()
        bias, signs = classical_strategy_batch(costs)
        assert set(np.unique(signs)) <= {-1.0, 1.0}
        attained = np.einsum(
            "bi,bij,bj->b", signs, bias_cost_batch(costs), signs
        )
        assert np.allclose(attained, bias, atol=1e-12, rtol=0.0)
        assert np.array_equal(bias, classical_bias_batch(costs))
        serial = [game.classical_bias() for game in batch.games()]
        assert np.array_equal(bias, serial)


def rank_one_certificates(costs):
    """Classical biases and the dual bound at each game's ``s s^T``."""
    bias, signs = classical_strategy_batch(costs)
    grams = signs[:, :, None] * signs[:, None, :]
    return bias, dual_upper_bound_batch(bias_cost_batch(costs), grams)


class TestClassicalCertificate:
    @pytest.mark.parametrize("n", [4, 5])
    def test_bounds_the_optimum_and_is_exact_at_ties(self, n):
        batch = sample_game_batch(n, 0.5, 16, np.random.default_rng(41))
        classical, cert = rank_one_certificates(batch.cost_matrices())
        ties = 0
        for index, game in enumerate(batch.games()):
            optimum = xor_quantum_value(game).quantum_bias
            assert cert[index] >= optimum - 1e-9
            if abs(optimum - classical[index]) <= 1e-9:
                ties += 1
                assert cert[index] - classical[index] <= 1e-12
        assert ties > 0

    def test_upper_stage_never_refutes_an_advantage(self):
        batch = sample_game_batch(5, 0.5, 24, np.random.default_rng(43))
        report = screen_game_batch(batch)
        refuted = np.flatnonzero(report.stages == STAGES.index("upper"))
        assert refuted.size > 0
        for index in refuted:
            assert not has_quantum_advantage(batch.game(index))
        # A refuted game's lower bound is the classical bias it attains.
        assert np.array_equal(
            report.lower_bounds[refuted], report.classical_bias[refuted]
        )


class TestAscentLine:
    costs = sample_game_batch(
        5, 0.5, 6, np.random.default_rng(8)
    ).cost_matrices()

    def test_no_line_equals_an_infinite_line(self):
        plain = alternating_lower_bound_batch(self.costs)
        infinite = alternating_lower_bound_batch(
            self.costs, stop_above=np.full(6, np.inf)
        )
        for expected, got in zip(plain, infinite):
            assert np.array_equal(expected, got)

    @pytest.mark.parametrize("shape", [(), (5,), (6, 1)])
    def test_rejects_misshapen_line(self, shape):
        with pytest.raises(GameError):
            alternating_lower_bound_batch(
                self.costs, stop_above=np.zeros(shape)
            )

    def test_game_stops_at_its_first_crossing(self):
        from repro.obs import capture

        costs = self.costs[:1]
        line = alternating_lower_bound_batch(costs)[0] - 1e-5
        step = 1
        while alternating_lower_bound_batch(costs, iterations=step)[0] <= line:
            step += 1
        assert step > 1
        with capture() as registry:
            lined = alternating_lower_bound_batch(costs, stop_above=line)
        counters = registry.snapshot()["counters"]
        assert counters["fig3.ascent.iterations"] == 3 * step
        assert lined[0] > line
        # Every restart leaves with its iterate from that iteration.
        truncated = alternating_lower_bound_batch(costs, iterations=step)
        for expected, got in zip(truncated, lined):
            assert np.array_equal(expected, got)


class TestStackedSDPOnGameBlocks:
    def test_optima_match_serial_on_fifty_games(self):
        # Stacked-ADMM optima match the per-game solve (a stack of one)
        # within tolerance on >= 50 random games.
        batch = sample_game_batch(5, 0.5, 50, np.random.default_rng(17))
        blocks = bias_cost_batch(batch.cost_matrices())
        batched = solve_diagonal_sdp_batch(blocks, tolerance=1e-8)
        for index in range(50):
            serial = solve_diagonal_sdp_batch(
                blocks[index : index + 1], tolerance=1e-8
            )[0]
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

    @pytest.mark.parametrize(
        ("n", "iterations"), [(5, 0), (6, 0), (7, 0), (8, 0)]
    )
    def test_forced_escalation_keeps_parity(self, n, iterations):
        # Cripple the heuristic so the lower/upper screens barely decide
        # anything; the SDP stage must still reproduce the reference
        # verdicts exactly, also where its slices stop at a line.
        batch = sample_game_batch(n, 0.5, 12, np.random.default_rng(31))
        report = screen_game_batch(
            batch, restarts=1, iterations=iterations
        )
        assert report.stage_counts()["sdp"] > 0
        for index, game in enumerate(batch.games()):
            assert report.verdicts[index] == has_quantum_advantage(game)

    @pytest.mark.parametrize("margin", [-1e-3, np.nan, np.inf])
    def test_rejects_a_margin_that_breaks_parity(self, margin):
        # A negative margin made the lower screen call every tie an
        # advantage, against the reference verdict.
        batch = sample_game_batch(5, 0.5, 40, np.random.default_rng(3))
        with pytest.raises(GameError, match="margin"):
            screen_game_batch(batch, margin=margin)

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

    def test_sdp_stage_stops_at_its_verdict(self):
        from repro.obs import capture

        batch = sample_game_batch(8, 0.5, 8, np.random.default_rng(5))
        with capture() as registry:
            screen_game_batch(batch, restarts=1, iterations=0)
        counters = registry.snapshot()["counters"]
        stops = counters["sdp.batch.verdict_stops"]
        assert 0 < stops <= counters["admm.escalations"]

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
