"""§4.2 reproduction: the N-way-entanglement-is-useless reduction.

Paper claims: (1) by no-signaling, the joint statistics of the active
parties cannot depend on anything an inactive party does, so the
inactive party may WLOG measure first; (2) that measurement reduces the
shared state to a mixture of pairwise-entangled states; (3) for GHZ in
particular the active pair is left with *no* entanglement.
"""

from __future__ import annotations

import numpy as np

from benchmarks._common import print_block, scaled
from repro.analysis import format_table
from repro.ecmp import (
    all_pair_statistics_invariant,
    collision_game,
    decompose_after_c_measurement,
    ghz_pairwise_marginal_is_separable,
    independent_random_value,
    joint_ab_distribution,
)
from repro.games import MultiplayerQuantumStrategy
from repro.quantum import ghz_state, w_state
from repro.quantum.bases import computational_basis, hadamard_basis, rotation_basis


def bench_reduction_invariance(benchmark):
    bases = [
        computational_basis(1),
        hadamard_basis(),
        rotation_basis(0.37),
        rotation_basis(-0.9),
        rotation_basis(1.8),
    ]
    rows = []
    for name, state in (("GHZ(3)", ghz_state(3)), ("W(3)", w_state(3))):
        invariant = all_pair_statistics_invariant(state, bases)
        rows.append([name, len(bases), "yes" if invariant else "NO"])
        assert invariant, f"no-signaling invariance failed for {name}"

    parts = decompose_after_c_measurement(ghz_state(3), hadamard_basis())
    mixture_desc = ", ".join(f"p={p:.3f}" for p, _ in parts)
    body = format_table(
        ["state", "bases checked", "A-B stats invariant under C"],
        rows,
        title="§4.2 reduction: inactive party cannot influence active pair",
    )
    body += (
        f"\nC's Hadamard measurement decomposes GHZ into bipartite mixture: "
        f"[{mixture_desc}]"
        f"\nGHZ pairwise marginal separable: "
        f"{ghz_pairwise_marginal_is_separable()}"
    )
    print_block("§4.2 — no-signaling reduction", body)
    assert ghz_pairwise_marginal_is_separable()

    benchmark(
        lambda: joint_ab_distribution(
            ghz_state(3),
            hadamard_basis(),
            rotation_basis(0.37),
            basis_c=rotation_basis(1.1),
        )
    )


def bench_nway_vs_mway_collision(benchmark):
    """Collision probabilities: 3-way GHZ strategies are no better than
    classical shared randomness (and typically worse)."""
    game = collision_game(3, 2, 2)
    classical = game.classical_value()
    random_value = independent_random_value(game)

    def ghz_value(bases):
        # Each switch measures its GHZ share in one fixed basis.
        strategy = MultiplayerQuantumStrategy(
            ghz_state(3), [{0: b, 1: b} for b in bases]
        )
        return game.value_of_strategy(strategy)

    rng = np.random.default_rng(1)
    trials = scaled(200)
    best_ghz = -np.inf
    for _ in range(trials):
        bases = [rotation_basis(rng.uniform(0, np.pi)) for _ in range(3)]
        best_ghz = max(best_ghz, ghz_value(bases))

    rows = [
        ["independent random paths", random_value],
        ["best classical (shared randomness)", classical],
        [f"best GHZ strategy ({trials} random basis triples)", best_ghz],
    ]
    body = format_table(
        ["strategy", "win probability"],
        rows,
        title="Collision game (3 switches, 2 active, 2 paths): "
        "win = active pair picks distinct paths",
        float_format="{:.6f}",
    )
    body += "\npaper: global entanglement offers no advantage over M-way"
    print_block("§4.2 — N-way vs M-way entanglement", body)

    assert best_ghz <= classical + 1e-9

    benchmark(
        lambda: ghz_value(
            [rotation_basis(0.1), rotation_basis(0.9), rotation_basis(2.0)]
        )
    )
