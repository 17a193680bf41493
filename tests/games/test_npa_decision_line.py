"""The NPA bound at any ADMM iterate, and the decision line that uses it.

The partition solver's repaired dual bound is rigorous at every iterate,
not only at convergence. ``npa_upper_bound(decide_below=...)`` relies on
that: ``screen_nonlocal_games`` stops each NPA solve as soon as the bound
settles the verdict, and a solve whose bound never reaches the line runs
exactly as it would without one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.games import (
    CHSH_CLASSICAL_VALUE,
    FFL_CLASSICAL_VALUE,
    NPA_LEVELS,
    chsh_game,
    ffl_game,
    magic_square_game,
    multi_class_colocation_game,
    npa_upper_bound,
    sample_game_family,
    screen_nonlocal_games,
)
from repro.obs import capture

#: ``(game factory, known quantum value)``.
KNOWN_VALUES = {
    "chsh": (chsh_game, math.cos(math.pi / 8) ** 2),
    "colocation3": (lambda: multi_class_colocation_game(3), 5.0 / 6.0),
    "ffl": (ffl_game, 2.0 / 3.0),
    "magic-square": (magic_square_game, 1.0),
}


@pytest.mark.parametrize("level", NPA_LEVELS)
@pytest.mark.parametrize("name", sorted(KNOWN_VALUES))
def test_bound_is_rigorous_at_every_iterate(name, level):
    # The bound is not monotone in the iteration count (FFL at 1+ab is
    # looser at 10 iterations than at 5), so check each cut-off.
    make_game, quantum = KNOWN_VALUES[name]
    game = make_game()
    for cap in (1, 2, 5, 25, 100):
        bound, result = npa_upper_bound(game, level=level, max_iterations=cap)
        assert result.iterations <= cap
        assert bound >= quantum - 1e-12


def test_decision_line_stops_a_tie_early():
    # FFL has no quantum advantage: at level 1+ab its NPA bound meets the
    # classical value 2/3, and the line sits just above it.
    game = ffl_game()
    line = FFL_CLASSICAL_VALUE + 1e-5
    _, full = npa_upper_bound(game)
    with capture() as registry:
        bound, early = npa_upper_bound(game, decide_below=line)
    assert early.iterations < full.iterations
    assert not early.converged
    assert 2.0 / 3.0 <= bound <= line
    assert registry.counter("npa.verdict_stops").value == 1


def test_unreached_line_leaves_the_solve_unchanged():
    # CHSH's NPA bound converges to cos^2(pi/8), far above this line.
    game = chsh_game()
    plain_bound, plain = npa_upper_bound(game)
    with capture() as registry:
        bound, lined = npa_upper_bound(
            game, decide_below=CHSH_CLASSICAL_VALUE + 1e-5
        )
    assert lined.iterations == plain.iterations
    assert lined.upper_bound == plain.upper_bound
    assert bound == plain_bound
    assert np.array_equal(lined.matrix, plain.matrix)
    assert registry.counter("npa.verdict_stops").value == 0


def test_screen_stages_match_converged_bounds():
    # Level 1 leaves both "upper" and "undecided" games here, so the line
    # is tested on games it settles and on games it cannot.
    rng = np.random.default_rng(5)
    games = sample_game_family("random-nonlocal", 2, 0.3, 100, rng)
    games += sample_game_family("colocation3", 3, 0.2, 20, rng)
    with capture() as registry:
        report = screen_nonlocal_games(games, npa_level="1")
    stops = registry.counter("npa.verdict_stops").value
    counts = report.stage_counts()
    assert counts["upper"] > 0 and counts["undecided"] > 0
    assert 0 < stops <= counts["upper"]
    for game, stage, classical in zip(
        games, report.stages, report.classical_values
    ):
        if stage not in ("upper", "undecided"):
            continue
        converged, _ = npa_upper_bound(game, level="1")
        line = classical + report.threshold
        assert stage == ("upper" if converged <= line else "undecided")
