"""The general-game screen solves its NPA residue as one stack per alphabet.

``screen_nonlocal_games`` first takes every game through the perfect and
lower stages, then hands every game left to ``npa_upper_bounds``, which
groups them by alphabet into stacked partition solves. A game's verdict,
bounds and counters must not depend on the games screened with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GameError
from repro.games import (
    advantage_decisions,
    chsh_nonlocal_game,
    ffl_game,
    magic_square_game,
    multi_class_colocation_game,
    npa_upper_bound,
    npa_upper_bounds,
    sample_game_family,
    screen_nonlocal_games,
)
from repro.obs import capture, clear_spans, finished_spans

COUNTERS = (
    "admm.iterations",
    "bounds.cascade.games",
    "bounds.cascade.lower",
    "bounds.cascade.perfect",
    "bounds.cascade.undecided",
    "bounds.cascade.upper",
    "npa.moment_entries",
    "npa.solves",
    "npa.verdict_stops",
    "seesaw.iterations",
)

#: See-saw budget small enough that games of both alphabets reach NPA.
SCREEN = {"restarts": 1, "iterations": 20}


def mixed_alphabet_games() -> list:
    """Two-type random games (9x9 moment matrices) interleaved with
    colocation-3 games (16x16)."""
    rng = np.random.default_rng(11)
    small = sample_game_family("random-nonlocal", 2, 0.3, 5, rng)
    large = sample_game_family("colocation3", 3, 0.3, 5, rng)
    return [game for pair in zip(small, large) for game in pair]


def test_screen_of_mixed_alphabets_equals_screens_of_one():
    games = mixed_alphabet_games()
    with capture() as registry:
        together = screen_nonlocal_games(games, **SCREEN)
    counters = {name: registry.counter(name).value for name in COUNTERS}
    alone_counters = dict.fromkeys(COUNTERS, 0)
    alone = []
    for game in games:
        with capture() as registry:
            alone.append(screen_nonlocal_games([game], **SCREEN))
        for name in COUNTERS:
            alone_counters[name] += registry.counter(name).value

    npa_sizes = {
        game.num_inputs
        for game, stage in zip(games, together.stages)
        if stage in ("upper", "undecided")
    }
    assert len(npa_sizes) == 2, "both alphabets must reach the NPA stage"
    assert together.stages == tuple(r.stages[0] for r in alone)
    for field in (
        "verdicts",
        "classical_values",
        "lower_bounds",
        "upper_bounds",
    ):
        joined = np.concatenate([getattr(r, field) for r in alone])
        assert getattr(together, field).tobytes() == joined.tobytes(), field
    assert counters == alone_counters


def test_screen_runs_one_npa_solve_per_alphabet():
    games = mixed_alphabet_games()
    clear_spans()
    with capture():
        report = screen_nonlocal_games(games, **SCREEN)
    (cascade,) = [s for s in finished_spans() if s.name == "bounds.cascade"]
    solves = [s for s in cascade.children if s.name == "npa.solve"]
    residue = [
        game
        for game, stage in zip(games, report.stages)
        if stage in ("upper", "undecided")
    ]
    assert sorted(s.attributes["size"] for s in solves) == [9, 16]
    assert sum(s.attributes["games"] for s in solves) == len(residue)
    assert {s.attributes["level"] for s in solves} == {"1+ab"}
    clear_spans()


def test_npa_upper_bounds_equal_single_bounds_in_input_order():
    games = [
        chsh_nonlocal_game(),
        multi_class_colocation_game(3),
        ffl_game(),
        magic_square_game(),
        multi_class_colocation_game(3),
    ]
    lines = [0.8, 0.9, 2.0 / 3.0 + 1e-5, 0.5, 0.8]
    stacked = npa_upper_bounds(games, level="1", decide_below=lines)
    for game, line, (bound, result) in zip(games, lines, stacked):
        alone_bound, alone = npa_upper_bound(
            game, level="1", decide_below=line
        )
        assert bound == alone_bound
        assert result.iterations == alone.iterations
        assert result.matrix.tobytes() == alone.matrix.tobytes()
    assert npa_upper_bounds([]) == []


def test_npa_upper_bounds_check_the_line_count():
    with pytest.raises(GameError, match="decide_below"):
        npa_upper_bounds([ffl_game(), ffl_game()], decide_below=[0.7])


@pytest.mark.parametrize("threshold", [-0.05, np.nan, np.inf, -np.inf])
def test_screen_rejects_a_threshold_outside_the_nonnegative_reals(threshold):
    # A negative threshold let the see-saw "prove" advantage for FFL and
    # for classically perfect games; NaN left every game undecided and
    # inf called every game perfect.
    with pytest.raises(GameError, match="threshold"):
        screen_nonlocal_games([ffl_game()], threshold=threshold)
    with pytest.raises(GameError, match="threshold"):
        advantage_decisions(
            3,
            0.5,
            4,
            np.random.default_rng(0),
            threshold=threshold,
            game_family="colocation3",
        )


def test_screen_accepts_a_zero_threshold():
    report = screen_nonlocal_games([ffl_game()], threshold=0.0)
    assert report.threshold == 0.0
    assert not report.verdicts[0]
