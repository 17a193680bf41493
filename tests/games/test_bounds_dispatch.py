"""Differential tests for the quantum-value-bounds dispatch.

The acceptance contract of the ``quantum_value_bounds`` front door:
XOR-representable games must route through the pre-existing Tsirelson
machinery **bit-identically** — same SDP trajectory, float-equal
results — so the Fig 3 pipeline's verdicts are untouched by the new
general path riding alongside it. Family sampling must be a pure
function of the generator state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.games import (
    NonlocalGame,
    XORGame,
    advantage_decisions,
    ffl_game,
    magic_square_game,
    npa_upper_bound,
    quantum_value_bounds,
    random_affinity_graph,
    sample_game_family,
    xor_game_from_graph,
    xor_quantum_value,
)


def random_xor_games(seed, count=4, num_types=4, p=0.5):
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        affinity = random_affinity_graph(num_types, p, rng)
        games.append(xor_game_from_graph(affinity))
    return games


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_auto_dispatch_is_float_identical_to_xor_path(seed):
    for xor in random_xor_games(seed):
        game = NonlocalGame.from_xor_game(xor)
        bounds = quantum_value_bounds(game)
        reference = xor_quantum_value(xor)
        assert bounds.method == "xor"
        # Float equality, not approx: the dispatch must call the same
        # solver on the same inputs and forward the results untouched.
        assert bounds.classical_value == reference.classical_value
        assert bounds.lower_bound == reference.quantum_value
        assert bounds.upper_bound == (
            1.0 + reference.quantum_bias_upper
        ) / 2.0
        # Same SDP trajectory, not just the same optimum.
        assert bounds.xor_value.sdp.iterations == reference.sdp.iterations
        assert np.array_equal(
            bounds.xor_value.sdp.matrix, reference.sdp.matrix
        )


def test_xor_method_rejects_non_xor_games():
    from repro.errors import GameError

    with pytest.raises(GameError):
        quantum_value_bounds(ffl_game(), method="xor")


def test_npa1_routes_non_binary_outputs_through_general_form():
    # A two-player game with 4 outputs per player gets a sound bound.
    square = magic_square_game()
    pred = square.pred_mat
    game = NonlocalGame.from_predicate(
        "magic-square-predicate",
        square.prob_mat,
        lambda x, y, a, b: pred[a, b, x, y] > 0.5,
        num_outputs_a=4,
        num_outputs_b=4,
    )
    bound, result = npa_upper_bound(game, level="1")
    assert bound >= 1.0 - 1e-6
    assert result.iterations > 0


def test_chsh_npa1_still_matches_tsirelson():
    xor = XORGame.chsh()
    bound, _ = npa_upper_bound(xor.to_nonlocal_game(), level="1")
    value = xor_quantum_value(xor)
    assert bound == pytest.approx(value.quantum_value, abs=1e-6)


def test_advantage_decisions_xor_family_is_bit_identical():
    """The game_family knob must not perturb the existing XOR pipeline."""
    before = advantage_decisions(
        5, 0.5, 8, np.random.default_rng(42)
    )
    after = advantage_decisions(
        5, 0.5, 8, np.random.default_rng(42), game_family="xor"
    )
    assert np.array_equal(before, after)


@pytest.mark.parametrize("family", ["colocation3", "random-nonlocal"])
def test_family_sampling_is_a_pure_function_of_rng_state(family):
    first = sample_game_family(
        family, 3, 0.6, 3, np.random.default_rng(5)
    )
    second = sample_game_family(
        family, 3, 0.6, 3, np.random.default_rng(5)
    )
    for a, b in zip(first, second):
        assert a.name == b.name
        assert np.array_equal(a.prob_mat, b.prob_mat)
        assert np.array_equal(a.pred_mat, b.pred_mat)


@pytest.mark.parametrize("family", ["colocation3", "random-nonlocal"])
@pytest.mark.parametrize("num_types", [0, -2])
def test_family_sampling_rejects_empty_input_alphabets(family, num_types):
    from repro.errors import GameError

    with pytest.raises(GameError, match="num_types"):
        sample_game_family(
            family, num_types, 0.5, 2, np.random.default_rng(0)
        )
