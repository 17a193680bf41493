"""Constant policies build their strategy once per process.

CHSH pairs on the default Bell pair, the classical and same-type pairs,
the multi-class pairs and the GHZ, W and classical Mermin groups sample
from a read-only behavior tensor that every construction shares. Each
must give, per seed and on both engines, what a policy built from a
fresh strategy gives.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.games.chsh import (
    colocation_classical_strategy,
    colocation_quantum_strategy,
)
from repro.games.multiplayer import (
    MultiplayerQuantumStrategy,
    mermin_optimal_strategy,
)
from repro.games.nonlocal_games import multi_class_colocation_game
from repro.games.quantum_value import tsirelson_strategy
from repro.games.strategies import DeterministicStrategy
from repro.lb import (
    CHSHPairedAssignment,
    ClassicalGroupAssignment,
    ClassicalPairedAssignment,
    GHZGroupAssignment,
    GroupAssignment,
    MultiClassPairedAssignment,
    SameTypePairedAssignment,
    WGroupAssignment,
    run_timestep_simulation,
)
from repro.lb.policies import _mermin_classical_behavior
from repro.net.workload import BernoulliTaskMix, MultiClassTaskMix
from repro.quantum.entangle import w_state


def _fresh_classical_pairs(n, m):
    return GroupAssignment(n, m, colocation_classical_strategy())


def _fresh_multi_class(n, m, mode):
    game = multi_class_colocation_game(3)
    if mode == "quantum":
        strategy = tsirelson_strategy(game.to_xor_game())
    else:
        strategy = DeterministicStrategy(*game.best_classical_strategy())
    return GroupAssignment(n, m, strategy)


def _fresh_w(n, m, k):
    bases = mermin_optimal_strategy(k)._bases
    return GroupAssignment(n, m, MultiplayerQuantumStrategy(w_state(k), bases))


def _multi_class_workload(n):
    return MultiClassTaskMix(n, class_probabilities=(0.4, 0.3, 0.3))


#: name -> (cached policy (N, M), fresh policy (N, M), workload (N)).
CASES = {
    "chsh": (
        CHSHPairedAssignment,
        lambda n, m: GroupAssignment(n, m, colocation_quantum_strategy()),
        BernoulliTaskMix,
    ),
    "classical_pairs": (
        ClassicalPairedAssignment, _fresh_classical_pairs, BernoulliTaskMix
    ),
    "same_type_pairs": (
        SameTypePairedAssignment,
        lambda n, m: GroupAssignment(
            n, m, DeterministicStrategy((1, 0), (1, 0))
        ),
        BernoulliTaskMix,
    ),
    "multi_class3_quantum": (
        partial(MultiClassPairedAssignment, num_classes=3, mode="quantum"),
        partial(_fresh_multi_class, mode="quantum"),
        _multi_class_workload,
    ),
    "multi_class3_classical": (
        partial(MultiClassPairedAssignment, num_classes=3, mode="classical"),
        partial(_fresh_multi_class, mode="classical"),
        _multi_class_workload,
    ),
    "ghz4": (
        partial(GHZGroupAssignment, group_size=4),
        lambda n, m: GroupAssignment(n, m, mermin_optimal_strategy(4)),
        BernoulliTaskMix,
    ),
    "w3": (partial(WGroupAssignment, group_size=3), partial(_fresh_w, k=3),
           BernoulliTaskMix),
    "classical_group4": (
        partial(ClassicalGroupAssignment, group_size=4),
        lambda n, m: GroupAssignment(n, m, _mermin_classical_behavior(4)),
        BernoulliTaskMix,
    ),
}


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cached_policy_equals_fresh_per_seed(name, engine):
    cached, fresh, workload = CASES[name]
    n, m = 17, 12
    for seed in (3, 4):
        runs = [
            run_timestep_simulation(
                make(n, m),
                timesteps=30,
                seed=seed,
                workload=workload(n),
                engine=engine,
            )
            for make in (cached, fresh)
        ]
        assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "make",
    [
        partial(CHSHPairedAssignment, 20, 16),
        partial(ClassicalGroupAssignment, 20, 16, group_size=4),
    ],
    ids=["chsh", "classical_group4"],
)
def test_constructions_share_read_only_tables(make):
    first, second = make(), make()
    assert first._behavior is second._behavior
    with pytest.raises(ValueError, match="read-only"):
        first._behavior[(0,) * first._behavior.ndim] = 0.5
    assert np.array_equal(first._flat_cumulative, second._flat_cumulative)


def test_noisy_chsh_builds_its_own_behavior():
    from repro.quantum.entangle import werner_state

    noisy = CHSHPairedAssignment(20, 16, state=werner_state(0.8))
    assert noisy._behavior is not CHSHPairedAssignment(20, 16)._behavior
    assert noisy._behavior.flags.writeable
