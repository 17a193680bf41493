"""§4.2 conjecture evidence: no quantum advantage for ECMP collision games.

The paper conjectures pairwise entanglement offers no advantage for
collision avoidance. Evidence: the k-party see-saw over arbitrary shared
states and measurements (a certified quantum *lower* bound) never
exceeds the classical value, across party counts, path counts and local
dimensions.
"""

from __future__ import annotations

from benchmarks._common import print_block, scaled
from repro.analysis import format_table
from repro.ecmp import collision_game, independent_random_value
from repro.games import seesaw_lower_bound


def bench_conjecture_seesaw(benchmark):
    iterations = scaled(40)
    restarts = scaled(4)
    configs = [
        ((3, 2, 2), 2),
        ((3, 2, 2), 4),
        ((4, 2, 2), 2),
        ((5, 2, 2), 2),
    ]
    rows = []
    for (parties, active, paths), local_dim in configs:
        game = collision_game(parties, active, paths)
        classical = game.classical_value()
        result = seesaw_lower_bound(
            game,
            dim=local_dim,
            restarts=restarts,
            iterations=iterations,
            seed=0,
        )
        gap = result.value - classical
        rows.append(
            [
                f"({parties} parties, {active} active)",
                local_dim,
                classical,
                result.value,
                gap,
            ]
        )
        assert result.value <= classical + 1e-6, (
            f"see-saw exceeded classical for {game} — conjecture violated?"
        )

    body = format_table(
        ["game", "local dim", "classical", "see-saw quantum", "gap"],
        rows,
        title=f"See-saw quantum search vs classical value "
        f"({restarts} restarts, {iterations} iterations)",
        float_format="{:.6f}",
    )
    body += (
        "\npaper conjecture: gap = 0 for all ECMP-style collision games "
        "(supported: see-saw never beats classical)"
    )
    print_block("§4.2 — conjecture evidence", body)

    small = collision_game(3, 2, 2)
    benchmark.pedantic(
        lambda: seesaw_lower_bound(small, restarts=1, iterations=10, seed=3),
        rounds=3,
        iterations=1,
    )


def bench_conjecture_multipath_seesaw(benchmark):
    """The same see-saw on three-path games, one qutrit per switch so
    every path can get its own projector."""
    iterations = scaled(40)
    restarts = scaled(4)
    configs = [(3, 2, 3), (4, 2, 3), (4, 3, 3)]
    rows = []
    for parties, active, paths in configs:
        game = collision_game(parties, active, paths)
        classical = game.classical_value()
        result = seesaw_lower_bound(
            game,
            dim=paths,
            restarts=restarts,
            iterations=iterations,
            seed=0,
        )
        rows.append(
            [
                f"({parties} parties, {active} active, {paths} paths)",
                classical,
                result.value,
            ]
        )
        assert result.value <= classical + 1e-9

    body = format_table(
        ["game", "classical", "see-saw quantum (local dim 3)"],
        rows,
        title=f"Multi-path collision games: see-saw ({restarts} restarts, "
        f"{iterations} iterations)",
        float_format="{:.6f}",
    )
    body += "\nthe optimized quantum strategies reach, but never beat, classical"
    print_block("§4.2 — conjecture evidence, 3 paths", body)

    benchmark.pedantic(
        lambda: seesaw_lower_bound(
            collision_game(3, 2, 3), dim=3, restarts=1, iterations=10, seed=1
        ),
        rounds=3,
        iterations=1,
    )


def bench_classical_collision_table(benchmark):
    """Classical reference table across (N, M) — the structure the paper
    describes: with at most M active switches and M paths, fixed distinct
    assignments are perfect only when parties are few enough."""
    configs = [
        (3, 2, 2),
        (4, 2, 2),
        (5, 2, 2),
        (4, 2, 3),
        (4, 3, 3),
        (5, 3, 3),
    ]
    rows = []
    for parties, active, paths in configs:
        game = collision_game(parties, active, paths)
        rows.append(
            [
                parties,
                active,
                paths,
                independent_random_value(game),
                game.classical_value(),
            ]
        )
    body = format_table(
        ["N switches", "active", "paths", "random", "best classical"],
        rows,
        title="Classical collision-game values",
        float_format="{:.6f}",
    )
    print_block("§4.2 — classical collision landscape", body)

    benchmark(lambda: collision_game(5, 3, 3).classical_value())
