"""Known-value corpus for the see-saw/NPA quantum-value pipeline.

Every game in the corpus asserts the certified sandwich
``classical <= seesaw <= NPA`` plus its published classical and
quantum values: CHSH (Tsirelson), Magic Square (pseudo-telepathy),
FFL (no quantum advantage), the 3-class colocation game, Mermin
``n = 2`` through the XOR dispatch, and the tilted-CHSH family
(Acín–Massar–Pironio closed forms).
"""

import math

import pytest

from repro.games import (
    XORGame,
    CHSH_CLASSICAL_VALUE,
    CHSH_QUANTUM_VALUE,
    FFL_CLASSICAL_VALUE,
    MAGIC_SQUARE_CLASSICAL_VALUE,
    NonlocalGame,
    chsh_game,
    ffl_game,
    magic_square_game,
    mermin_game,
    multi_class_colocation_game,
    quantum_value_bounds,
    tilted_chsh_classical_value,
    tilted_chsh_game,
    tilted_chsh_quantum_value,
)

FFL_QUANTUM_VALUE = 2.0 / 3.0
COLOCATION3_CLASSICAL_VALUE = 7.0 / 9.0
COLOCATION3_QUANTUM_VALUE = 5.0 / 6.0


def assert_sandwich(bounds, slack=1e-6):
    """The certified chain classical <= lower <= upper must hold."""
    assert bounds.classical_value <= bounds.lower_bound + 1e-9
    assert bounds.lower_bound <= bounds.upper_bound + slack


def test_chsh_via_xor_path():
    bounds = quantum_value_bounds(chsh_game())
    assert bounds.method == "xor"
    assert_sandwich(bounds)
    assert bounds.classical_value == pytest.approx(CHSH_CLASSICAL_VALUE)
    assert bounds.lower_bound == pytest.approx(CHSH_QUANTUM_VALUE, abs=1e-9)
    assert bounds.lower_bound == pytest.approx(
        math.cos(math.pi / 8) ** 2, abs=1e-9
    )
    assert bounds.upper_bound >= CHSH_QUANTUM_VALUE - 1e-7


def test_chsh_general_path_matches_tsirelson():
    bounds = quantum_value_bounds(chsh_game(), method="general")
    assert bounds.method == "general"
    assert_sandwich(bounds)
    assert bounds.lower_bound == pytest.approx(CHSH_QUANTUM_VALUE, abs=1e-7)
    assert bounds.upper_bound == pytest.approx(CHSH_QUANTUM_VALUE, abs=1e-5)


def test_magic_square_pseudo_telepathy():
    bounds = quantum_value_bounds(
        magic_square_game(), method="general", dim=4, restarts=3
    )
    assert_sandwich(bounds)
    assert bounds.classical_value == pytest.approx(
        MAGIC_SQUARE_CLASSICAL_VALUE
    )
    # See-saw on two Bell pairs (dim 4) reaches the perfect strategy...
    assert bounds.lower_bound >= 1.0 - 1e-6
    # ...and the NPA bound cannot cut below the true value 1.
    assert bounds.upper_bound >= 1.0 - 1e-6


def test_ffl_no_quantum_advantage():
    bounds = quantum_value_bounds(ffl_game(), method="general")
    assert_sandwich(bounds)
    assert bounds.classical_value == pytest.approx(FFL_CLASSICAL_VALUE)
    # Bracket the known quantum value 2/3: the 1+AB level is tight here.
    assert bounds.lower_bound <= FFL_QUANTUM_VALUE + 1e-9
    assert bounds.lower_bound >= FFL_QUANTUM_VALUE - 1e-7
    assert bounds.upper_bound >= FFL_QUANTUM_VALUE - 1e-7
    assert bounds.upper_bound <= FFL_QUANTUM_VALUE + 1e-5
    assert not bounds.has_advantage()


def test_colocation3_advantage_bracket():
    bounds = quantum_value_bounds(
        multi_class_colocation_game(3), method="general"
    )
    assert_sandwich(bounds)
    assert bounds.classical_value == pytest.approx(
        COLOCATION3_CLASSICAL_VALUE
    )
    assert bounds.lower_bound == pytest.approx(
        COLOCATION3_QUANTUM_VALUE, abs=1e-7
    )
    assert bounds.upper_bound >= COLOCATION3_QUANTUM_VALUE - 1e-7
    assert bounds.upper_bound <= COLOCATION3_QUANTUM_VALUE + 1e-5
    assert bounds.has_advantage()


def test_mermin_two_party_via_xor_path():
    game = mermin_game(2)
    dist = game.prob_tensor
    # Target 1 where odd-parity outputs win; off-support cells stay 0.
    targets = (game.pred_tensor[0, 1] == 1.0).astype(int)
    xor = XORGame(name="mermin-2", distribution=dist, targets=targets)
    bounds = quantum_value_bounds(NonlocalGame.from_xor_game(xor))
    assert bounds.method == "xor"
    assert_sandwich(bounds)
    # Two-party Mermin is classically perfect: both inputs are winnable
    # by one deterministic table, so classical = quantum = 1.
    assert game.classical_value() == pytest.approx(1.0)
    assert bounds.classical_value == pytest.approx(1.0)
    assert bounds.lower_bound == pytest.approx(1.0, abs=1e-6)
    assert not bounds.has_advantage()


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5])
def test_tilted_chsh_family(beta):
    game = tilted_chsh_game(beta)
    classical = tilted_chsh_classical_value(beta)
    quantum = tilted_chsh_quantum_value(beta)
    assert game.classical_value() == pytest.approx(classical, abs=1e-9)
    bounds = quantum_value_bounds(game, method="general")
    assert_sandwich(bounds)
    assert bounds.classical_value == pytest.approx(classical, abs=1e-9)
    assert bounds.lower_bound == pytest.approx(quantum, abs=1e-7)
    assert bounds.upper_bound >= quantum - 1e-7
    assert bounds.upper_bound <= quantum + 1e-5
    assert bounds.has_advantage()


def test_tilted_chsh_beta_zero_is_xor_chsh():
    # At beta = 0 the predicate is parity-only, so auto dispatch takes
    # the Tsirelson path and recovers plain CHSH.
    bounds = quantum_value_bounds(tilted_chsh_game(0.0))
    assert bounds.method == "xor"
    assert bounds.classical_value == pytest.approx(CHSH_CLASSICAL_VALUE)
    assert bounds.lower_bound == pytest.approx(CHSH_QUANTUM_VALUE, abs=1e-9)
