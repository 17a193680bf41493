#!/usr/bin/env python3
"""Quickstart: play the CHSH game classically and quantumly.

Reproduces the paper's §2 numbers in a few lines of the public API:
the classical optimum (0.75), the quantum optimum at the paper's
measurement angles (cos^2(pi/8) ~= 0.8536), and a Monte-Carlo run where
every round measures a fresh simulated Bell pair.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.games import (
    CHSH_CLASSICAL_VALUE,
    CHSH_QUANTUM_VALUE,
    chsh_game,
    optimal_classical_strategy,
    optimal_quantum_strategy,
    play_rounds,
)


def main() -> None:
    game = chsh_game()

    classical = optimal_classical_strategy()
    quantum = optimal_quantum_strategy()

    print("CHSH game: win iff (a XOR b) == (x AND y)\n")
    print(f"classical value (paper):        {CHSH_CLASSICAL_VALUE:.6f}")
    print(f"classical value (brute force):  {game.classical_value():.6f}")
    print(
        "classical strategy, exact:      "
        f"{game.value_of_strategy(classical):.6f}"
    )
    print(f"quantum value (paper):          {CHSH_QUANTUM_VALUE:.6f}")
    print(
        "quantum strategy, exact:        "
        f"{game.value_of_strategy(quantum):.6f}"
    )

    rng = np.random.default_rng(0)
    rounds = 5000
    record = play_rounds(game, quantum, rounds, rng)
    low, high = record.confidence_interval()
    print(
        f"\nMonte-Carlo with {rounds} fresh Bell pairs: "
        f"win rate {record.win_rate:.4f} (95% CI [{low:.4f}, {high:.4f}])"
    )

    print("\nCorrelation without communication:")
    for x in (0, 1):
        for y in (0, 1):
            joint = quantum.joint_distribution(x, y)
            print(
                f"  inputs (x={x}, y={y}): P(a=b) = {joint[0,0] + joint[1,1]:.4f}, "
                f"Alice marginal P(a=0) = {joint.sum(axis=1)[0]:.4f}"
            )
    print(
        "\nEach party's marginal stays uniform — the correlation carries no"
        "\nsignal, so decisions are instant (Fig 2) yet coordinated."
    )


if __name__ == "__main__":
    main()
