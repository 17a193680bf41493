"""Quantum value bounds for general games: see-saw vs NPA sandwich.

The ISSUE 9 probe: the see-saw lower bound and the level-"1+ab" NPA
upper bound must bracket the known quantum value of every corpus game
(CHSH, the 3-class colocation game, FFL, Magic Square) — the sandwich
``classical <= seesaw <= NPA`` is asserted as a hard gate at every
tier, not just recorded. Restart/iteration budgets and the cascade
batch size come from the shared ``SCALE_LADDER`` (``nonlocal_*``
keys), so the smoke tier in CI and the paper tier in docs name the
same points.

The timed section runs the full screening cascade
(:func:`repro.games.bounds.screen_nonlocal_games`) over a batch of
random general games — the Fig 3 ``--game-family`` hot path. The
trajectory JSON (``BENCH_nonlocal.json``, override via
``REPRO_BENCH_NONLOCAL_JSON``) records every corpus bracket and the
cascade stage counts for trend tracking; CI uploads it next to the
other BENCH artifacts.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from benchmarks._common import ladder, print_block, scale_tier
from repro.analysis import format_table
from repro.games import (
    chsh_game,
    ffl_game,
    magic_square_game,
    multi_class_colocation_game,
    quantum_value_bounds,
    sample_game_family,
    screen_nonlocal_games,
)

SEED = 13

#: (game factory, see-saw Hilbert-space dimension, known quantum value).
CORPUS = (
    (chsh_game, 2, math.cos(math.pi / 8) ** 2),
    (lambda: multi_class_colocation_game(3), 2, 5.0 / 6.0),
    (ffl_game, 2, 2.0 / 3.0),
    (magic_square_game, 4, 1.0),
)


def bench_nonlocal_value(benchmark):
    tier = scale_tier()
    restarts = ladder("nonlocal_restarts")
    iterations = ladder("nonlocal_iterations")
    cascade_games = ladder("nonlocal_cascade_games")

    trajectory = {
        "benchmark": "nonlocal_value",
        "tier": tier,
        "seed": SEED,
        "restarts": restarts,
        "iterations": iterations,
        "cascade_games": cascade_games,
        "corpus": [],
    }

    rows = []
    for factory, dim, known in CORPUS:
        game = factory()
        bounds = quantum_value_bounds(
            game,
            method="general",
            dim=dim,
            restarts=restarts,
            iterations=iterations,
            seed=SEED,
        )
        rows.append(
            [
                game.name,
                bounds.classical_value,
                bounds.lower_bound,
                known,
                bounds.upper_bound,
            ]
        )
        trajectory["corpus"].append(
            {
                "game": game.name,
                "dim": dim,
                "classical_value": bounds.classical_value,
                "seesaw_lower": bounds.lower_bound,
                "known_quantum_value": known,
                "npa_upper": bounds.upper_bound,
            }
        )
        # Hard gates: the sandwich must certify at every tier.
        assert bounds.classical_value <= bounds.lower_bound + 1e-9, (
            f"{game.name}: see-saw lower {bounds.lower_bound:.9f} below "
            f"classical {bounds.classical_value:.9f}"
        )
        assert bounds.lower_bound <= bounds.upper_bound + 1e-6, (
            f"{game.name}: see-saw lower {bounds.lower_bound:.9f} above "
            f"NPA upper {bounds.upper_bound:.9f}"
        )
        assert bounds.lower_bound <= known + 1e-7, (
            f"{game.name}: see-saw lower {bounds.lower_bound:.9f} exceeds "
            f"the known quantum value {known:.9f}"
        )
        assert bounds.upper_bound >= known - 1e-6, (
            f"{game.name}: NPA upper {bounds.upper_bound:.9f} cuts below "
            f"the known quantum value {known:.9f}"
        )

    # Timed section: the Fig 3 --game-family cascade over a fresh batch
    # of random general games each round.
    def run_cascade():
        rng = np.random.default_rng(SEED)
        games = sample_game_family(
            "random-nonlocal", 3, 0.6, cascade_games, rng
        )
        return screen_nonlocal_games(
            games, restarts=restarts, iterations=iterations, seed=SEED
        )

    report = benchmark.pedantic(run_cascade, rounds=3, iterations=1)
    trajectory["cascade_stage_counts"] = report.stage_counts()
    trajectory["cascade_advantage_fraction"] = float(
        report.verdicts.mean()
    )

    body = format_table(
        ["game", "classical", "seesaw lower", "known", "NPA upper"],
        rows,
        float_format="{:.9f}",
    )
    body += (
        f"\n\n{restarts} restarts x {iterations} iterations, seed "
        f"{SEED}, tier '{tier}'; cascade: {cascade_games} "
        f"random-nonlocal games -> stages {report.stage_counts()}"
    )
    print_block("Nonlocal game values — see-saw/NPA sandwich", body)

    out_path = os.environ.get(
        "REPRO_BENCH_NONLOCAL_JSON", "BENCH_nonlocal.json"
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
