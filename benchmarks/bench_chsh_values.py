"""§2 reproduction: CHSH game values and marginal uniformity.

Paper claims: the best classical strategy wins with probability 0.75;
sharing a Bell pair and measuring at the stated angles wins with
probability cos^2(pi/8) ~= 0.85 (optimal); in the optimal quantum
strategy each party still outputs 0/1 with equal probability.
"""

from __future__ import annotations

import math

import numpy as np

from benchmarks._common import print_block, scaled
from repro.analysis import format_table
from repro.games import (
    CHSH_CLASSICAL_VALUE,
    CHSH_QUANTUM_VALUE,
    chsh_game,
    optimal_classical_strategy,
    optimal_quantum_strategy,
    play_rounds,
)


def bench_chsh_values(benchmark):
    game = chsh_game()
    quantum = optimal_quantum_strategy()
    classical = optimal_classical_strategy()

    exact_quantum = game.value_of_strategy(quantum)
    exact_classical = game.value_of_strategy(classical)
    brute_force = game.classical_value()

    rng = np.random.default_rng(0)
    # At least 2,500 rounds at every scale: the 0.03 tolerance below is
    # then 4.2 standard errors of the quantum win rate (1.2 at 200).
    rounds = scaled(4000, minimum=2500)
    mc_quantum = play_rounds(game, quantum, rounds, rng).win_rate
    mc_classical = play_rounds(game, classical, rounds, rng).win_rate

    marginals = []
    for x in (0, 1):
        for y in (0, 1):
            joint = quantum.joint_distribution(x, y)
            marginals.append(float(joint.sum(axis=1)[0]))

    rows = [
        ["classical (paper)", CHSH_CLASSICAL_VALUE, "0.75"],
        ["classical (brute force)", brute_force, "exact"],
        ["classical (strategy, exact)", exact_classical, "exact"],
        [f"classical (Monte Carlo, n={rounds})", mc_classical, "sampled"],
        ["quantum (paper)", CHSH_QUANTUM_VALUE, "cos^2(pi/8)"],
        ["quantum (paper angles, exact)", exact_quantum, "exact"],
        [f"quantum (Monte Carlo, n={rounds})", mc_quantum, "sampled"],
    ]
    table = format_table(
        ["strategy", "win probability", "method"],
        rows,
        title="CHSH game values (paper §2)",
        float_format="{:.6f}",
    )
    table += (
        f"\nAlice P(a=0) across inputs: "
        f"{', '.join(f'{m:.4f}' for m in marginals)} (paper: all 0.5)"
    )
    print_block("§2 CHSH values", table)

    assert abs(exact_quantum - CHSH_QUANTUM_VALUE) < 1e-9
    assert abs(exact_classical - 0.75) < 1e-12
    assert abs(mc_quantum - CHSH_QUANTUM_VALUE) < 0.03

    # Timed kernel: one exact quantum win-probability evaluation.
    benchmark(lambda: game.value_of_strategy(quantum))


def bench_chsh_optimality_margin(benchmark):
    """Quantum beats every deterministic classical strategy by >= 10 pts."""
    game = chsh_game()
    quantum_value = game.value_of_strategy(optimal_quantum_strategy())
    import itertools

    values = []
    for a in itertools.product((0, 1), repeat=2):
        for b in itertools.product((0, 1), repeat=2):
            values.append(game.deterministic_value(a, b))
    best_classical = max(values)

    table = format_table(
        ["quantity", "value"],
        [
            ["best deterministic classical", best_classical],
            ["quantum (Tsirelson)", quantum_value],
            ["advantage", quantum_value - best_classical],
            ["advantage (paper)", math.cos(math.pi / 8) ** 2 - 0.75],
        ],
        title="Quantum advantage margin over all 16 deterministic strategies",
        float_format="{:.6f}",
    )
    print_block("§2 CHSH optimality margin", table)
    assert quantum_value > best_classical

    benchmark(game.classical_value)
