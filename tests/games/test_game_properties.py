"""Property-based tests (hypothesis) for game-theoretic invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import (
    XORGame,
    alternating_bias_lower_bound,
    biased_colocation_game,
    weighted_values,
    xor_quantum_value,
)
from repro.games.strategies import DeterministicStrategy
from tests.games._products import xor_product

seeds = st.integers(min_value=0, max_value=2**31 - 1)
sizes = st.integers(min_value=2, max_value=4)
biases = st.floats(min_value=0.05, max_value=0.95)


def random_xor_game(seed: int, nx: int, ny: int) -> XORGame:
    rng = np.random.default_rng(seed)
    dist = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    targets = rng.integers(0, 2, size=(nx, ny))
    return XORGame(f"rand-{seed}", dist, targets)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, nx=sizes, ny=sizes)
def test_quantum_bias_at_least_classical(seed, nx, ny):
    game = random_xor_game(seed, nx, ny)
    value = xor_quantum_value(game)
    assert value.quantum_bias >= value.classical_bias - 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=seeds, nx=sizes, ny=sizes)
def test_biases_bounded_by_one(seed, nx, ny):
    game = random_xor_game(seed, nx, ny)
    value = xor_quantum_value(game)
    assert -1e-9 <= value.classical_bias <= 1.0 + 1e-9
    assert value.quantum_bias <= 1.0 + 1e-6
    assert value.quantum_bias <= value.quantum_bias_upper + 1e-7


@settings(max_examples=15, deadline=None)
@given(seed=seeds, nx=sizes, ny=sizes)
def test_alternating_heuristic_is_lower_bound(seed, nx, ny):
    game = random_xor_game(seed, nx, ny)
    heuristic, u, v = alternating_bias_lower_bound(game)
    sdp, _ = (lambda r: (r.quantum_bias, r))(xor_quantum_value(game))
    assert heuristic <= sdp + 1e-6
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-9)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-9)


@settings(max_examples=12, deadline=None)
@given(seed=seeds)
def test_flipping_targets_preserves_values(seed):
    """Flipping every target bit only relabels one party's outputs."""
    game = random_xor_game(seed, 3, 3)
    flipped = XORGame("flip", game.distribution, 1 - game.targets)
    assert flipped.classical_bias() == pytest.approx(
        game.classical_bias(), abs=1e-10
    )
    original_q = xor_quantum_value(game).quantum_bias
    flipped_q = xor_quantum_value(flipped).quantum_bias
    assert flipped_q == pytest.approx(original_q, abs=1e-6)


@settings(max_examples=12, deadline=None)
@given(seed=seeds)
def test_transpose_symmetry(seed):
    """Swapping the two players leaves both values unchanged."""
    game = random_xor_game(seed, 2, 4)
    swapped = XORGame("swap", game.distribution.T, game.targets.T)
    assert swapped.classical_bias() == pytest.approx(
        game.classical_bias(), abs=1e-10
    )
    assert xor_quantum_value(swapped).quantum_bias == pytest.approx(
        xor_quantum_value(game).quantum_bias, abs=1e-6
    )


@settings(max_examples=10, deadline=None)
@given(seed=seeds, other_seed=seeds)
def test_product_quantum_bias_multiplicative(seed, other_seed):
    g1 = random_xor_game(seed, 2, 2)
    g2 = random_xor_game(other_seed, 2, 2)
    b1 = xor_quantum_value(g1).quantum_bias
    b2 = xor_quantum_value(g2).quantum_bias
    b12 = xor_quantum_value(xor_product(g1, g2)).quantum_bias
    assert b12 == pytest.approx(b1 * b2, abs=2e-4)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, nx=sizes, ny=sizes)
def test_deterministic_strategies_never_beat_classical_value(seed, nx, ny):
    game = random_xor_game(seed, nx, ny)
    classical = game.classical_value()
    rng = np.random.default_rng(seed)
    dense = game.to_nonlocal_game()
    for _ in range(5):
        strat = DeterministicStrategy(
            outputs_a=tuple(rng.integers(0, 2, size=nx)),
            outputs_b=tuple(rng.integers(0, 2, size=ny)),
        )
        value = dense.value_of_behavior(strat.behavior())
        assert value <= classical + 1e-10


@settings(max_examples=12, deadline=None)
@given(p=biases)
def test_biased_game_symmetry(p):
    """The colocation game treats the two players symmetrically."""
    game = biased_colocation_game(p)
    assert np.allclose(game.distribution, game.distribution.T)
    assert (game.targets == game.targets.T).all()


@settings(max_examples=10, deadline=None)
@given(p=biases)
def test_biased_advantage_nonnegative(p):
    from repro.games import biased_game_values

    value = biased_game_values(p)
    assert value.advantage >= -1e-7


@settings(max_examples=8, deadline=None)
@given(cc=st.floats(min_value=0.1, max_value=10.0))
def test_weighted_values_bracketed(cc):
    value = weighted_values(0.5, cc_weight=cc)
    assert 0.5 <= value.classical_value <= 1.0 + 1e-9
    assert value.classical_value - 1e-7 <= value.quantum_value <= 1.0 + 1e-6
