"""§4.1 claim: XOR games "have also been extended to more than two
players, corresponding to scenarios with more than two parties (here,
load balancers), where the advantage is larger than in the two-party
case" [12, 31].

Regenerates the Mermin-game value table: the classical value decays as
``1/2 + 2^(-ceil(n/2))`` while a GHZ state wins with certainty, so the
multipartite advantage grows toward the maximal 1/2 gap.
"""

from __future__ import annotations

from benchmarks._common import print_block
from repro.analysis import format_table
from repro.games import (
    CHSH_QUANTUM_VALUE,
    mermin_classical_value,
    mermin_game,
    mermin_optimal_strategy,
)


def bench_mermin_advantage_growth(benchmark):
    rows = []
    gaps = []
    for n in (3, 4, 5, 6):
        game = mermin_game(n)
        classical_bf = game.classical_value()
        classical_formula = mermin_classical_value(n)
        quantum = game.value_of_strategy(mermin_optimal_strategy(n))
        gap = quantum - classical_bf
        gaps.append(gap)
        rows.append([n, classical_bf, classical_formula, quantum, gap])

    chsh_gap = CHSH_QUANTUM_VALUE - 0.75
    body = format_table(
        ["players", "classical (brute force)", "classical (formula)",
         "GHZ quantum", "advantage"],
        rows,
        title="Mermin parity games: multipartite advantage",
        float_format="{:.6f}",
    )
    body += (
        f"\ntwo-party CHSH advantage for reference: {chsh_gap:.6f}; the "
        "3-player game already beats it and the gap grows with n"
    )
    print_block("§4.1 — multiplayer XOR-game advantage", body)

    assert all(g >= gaps[0] - 1e-12 for g in gaps)
    assert gaps[0] > chsh_gap  # 0.25 vs ~0.1036
    assert gaps[-1] >= gaps[0]

    game5 = mermin_game(5)
    benchmark(game5.classical_value)
