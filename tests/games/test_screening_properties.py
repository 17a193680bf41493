"""Property-based tests (hypothesis) for the Fig 3 screening cascade.

Three invariants keep the cascade honest on *every* input, not just the
seeds the differential suite happens to draw:

1. the bound sandwich — the screens' quantities bracket the reference
   quantum bias: ``classical <= quantum``, ``lower <= quantum``,
   ``quantum <= dual upper``, ``quantum <= 1`` (tolerances cover solver
   convergence noise; the heuristic lower bound may sit a hair below the
   classical bias, which is exactly why the cascade keeps a margin);
2. the verdict — whatever path a game takes through the cascade, the
   decision equals ``has_quantum_advantage`` on that game;
3. batch independence — a game's ascent (bias, U and V) is bit-identical
   in any batch, alone, and through the serial heuristic.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import (
    alternating_bias_lower_bound,
    has_quantum_advantage,
    sample_game_batch,
    screen_game_batch,
    xor_quantum_value,
)
from repro.games.batch import (
    alternating_lower_bound_batch,
    bias_cost_batch,
    classical_bias_batch,
)
from repro.sdp import dual_upper_bound_batch

seeds = st.integers(min_value=0, max_value=2**31 - 1)
vertices = st.integers(min_value=3, max_value=5)
probabilities = st.floats(min_value=0.0, max_value=1.0)


def draw_batch(seed: int, num_types: int, p: float, num_games: int = 4):
    rng = np.random.default_rng(seed)
    return sample_game_batch(num_types, p, num_games, rng)


@settings(max_examples=12, deadline=None)
@given(seed=seeds, num_types=vertices, p=probabilities)
def test_bound_sandwich(seed, num_types, p):
    batch = draw_batch(seed, num_types, p)
    costs = batch.cost_matrices()
    classical = classical_bias_batch(costs)
    lower, u, v = alternating_lower_bound_batch(costs)
    stacked = np.concatenate([u, v], axis=1)
    grams = stacked @ np.swapaxes(stacked, 1, 2)
    upper = dual_upper_bound_batch(bias_cost_batch(costs), grams)
    for index, game in enumerate(batch.games()):
        value = xor_quantum_value(game)
        quantum = value.quantum_bias
        assert classical[index] <= quantum + 1e-8
        assert lower[index] <= quantum + 1e-6
        # The ascent is not guaranteed to reach the classical bias, but
        # it must never collapse far below it (the upper screen depends
        # on its Gram matrix being a sensible certificate seed).
        assert lower[index] >= classical[index] - 1e-3
        assert quantum <= upper[index] + 1e-6
        assert quantum <= 1.0 + 1e-6


@settings(max_examples=10, deadline=None)
@given(seed=seeds, num_types=vertices, p=probabilities)
def test_cascade_verdict_equals_reference(seed, num_types, p):
    batch = draw_batch(seed, num_types, p)
    report = screen_game_batch(batch)
    for index, game in enumerate(batch.games()):
        assert report.verdicts[index] == has_quantum_advantage(game)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, num_types=vertices, p=probabilities)
def test_cascade_stages_partition_the_batch(seed, num_types, p):
    batch = draw_batch(seed, num_types, p, num_games=5)
    report = screen_game_batch(batch)
    counts = report.stage_counts()
    assert sum(counts.values()) == report.num_games
    assert 0.0 <= report.advantage_probability <= 1.0
    assert 0.0 <= report.escalation_rate <= 1.0


@settings(max_examples=10, deadline=None)
@given(
    seed=seeds,
    num_types=vertices,
    p=probabilities,
    restarts=st.integers(min_value=1, max_value=3),
    iterations=st.integers(min_value=1, max_value=40),
)
def test_verdicts_invariant_to_heuristic_quality(
    seed, num_types, p, restarts, iterations
):
    """Screens may shift work between stages, never change a verdict."""
    batch = draw_batch(seed, num_types, p)
    full = screen_game_batch(batch)
    crippled = screen_game_batch(
        batch, restarts=restarts, iterations=iterations
    )
    assert np.array_equal(full.verdicts, crippled.verdicts)


@settings(max_examples=10, deadline=None)
@given(
    seed=seeds,
    num_types=st.integers(min_value=3, max_value=6),
    p=probabilities,
    restarts=st.integers(min_value=1, max_value=3),
    iterations=st.integers(min_value=1, max_value=40),
)
def test_ascent_does_not_depend_on_batch_mates(
    seed, num_types, p, restarts, iterations
):
    """Each (restart, game) slice stops on its own convergence."""
    batch = draw_batch(seed, num_types, p, num_games=6)
    costs = batch.cost_matrices()
    budget = {"restarts": restarts, "iterations": iterations}
    bias, u, v = alternating_lower_bound_batch(costs, **budget)
    for index in range(batch.num_games):
        alone = alternating_lower_bound_batch(
            costs[index : index + 1], **budget
        )
        serial = alternating_bias_lower_bound(batch.game(index), **budget)
        for one_bias, one_u, one_v in (
            (alone[0][0], alone[1][0], alone[2][0]),
            serial,
        ):
            assert one_bias == bias[index]
            assert np.array_equal(one_u, u[index])
            assert np.array_equal(one_v, v[index])
