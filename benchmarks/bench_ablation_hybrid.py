"""§4.1 caveat ablation: classical/hybrid dedicated-server strategies
"would not work if there are multiple subtypes of type-C tasks that do
not like being mixed".

Per-round metrics over same-server task pairs:

- *good* — same-subtype type-C pairs sharing a server (cache wins);
- *bad mix* — cross-subtype type-C pairs sharing a server;
- *other* — any shared pair involving a type-E task.

With one subtype the dedicated pool is excellent (every CC colocation is
good). With two incompatible subtypes the subtype-blind pool and random
routing colocate indiscriminately (good:bad ~ 1). The paired policies
see subtypes: each request's game input is 0 for type-E and ``1 +
subtype`` for type-C. The quantum XOR pairs play the Tsirelson strategy
of the frustrated-triangle affinity game and skew their colocations
toward compatible pairs. So do the classical graph pairs: their
7/9-optimal table colocates same-subtype C pairs and splits the others,
winning every C-C input and losing two E-C inputs instead.

The 7/9-vs-5/6 quantum advantage holds for the game's uniform input
distribution only. On this workload's mix (E 1/2, C1 1/4, C2 1/4) the
affinity game has none: its classical and quantum values are both 7/8.
So the bench asserts that no pair policy, quantum or classical, wins
the mix-weighted game above 7/8 (measured per balancer pair), rather
than which of the two is more selective; that order depends on which
optimal classical table the brute force returns.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from benchmarks._common import print_block, scaled
from repro.analysis import format_table
from repro.games import AffinityGraph, xor_quantum_value
from repro.games.xor import XORGame
from repro.lb import (
    DedicatedPoolAssignment,
    RandomAssignment,
    XORPairedAssignment,
)
from repro.lb.xor_lb import ClassicalGraphPairedAssignment
from repro.net.packet import TaskType
from repro.net.workload import SubtypedTaskMix


def _round_scores(requests, choices):
    """(good colocations, bad subtype mixes, other conflicts)."""
    by_server: dict[int, list] = {}
    for request, server in zip(requests, choices):
        by_server.setdefault(server, []).append(request)
    good = bad_mix = other = 0
    for members in by_server.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                both_c = (
                    a.task_type is TaskType.COLOCATE
                    and b.task_type is TaskType.COLOCATE
                )
                if both_c and a.subtype == b.subtype:
                    good += 1
                elif both_c:
                    bad_mix += 1
                else:
                    other += 1
    return good, bad_mix, other


def _pair_wins(requests, choices, targets):
    """Balancer pairs ``(2g, 2g + 1)`` that win the affinity game: they
    share a server exactly when their inputs' target is 0 (colocate)."""
    x = _game_inputs(requests)
    return sum(
        (choices[i] == choices[i + 1]) == (targets[x[i], x[i + 1]] == 0)
        for i in range(0, len(requests) - 1, 2)
    )


def _evaluate(policy, to_inputs, targets, num_balancers, rounds, seed,
              num_subtypes):
    """Per-round (good, bad mix, other) colocations, and the fraction of
    balancer pairs that win the affinity game with ``targets``."""
    rng_tasks = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rng_policy = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    mix = SubtypedTaskMix(num_balancers, num_subtypes=num_subtypes)
    totals = Counter()
    for _ in range(rounds):
        requests = mix.draw_requests(rng_tasks)
        tasks = np.array([to_inputs(requests)])
        choices = policy.assign_batch(tasks, rng_policy)[0]
        good, bad, other = _round_scores(requests, choices)
        totals["good"] += good
        totals["bad"] += bad
        totals["other"] += other
        totals["wins"] += _pair_wins(requests, choices, targets)
    return (
        totals["good"] / rounds,
        totals["bad"] / rounds,
        totals["other"] / rounds,
        totals["wins"] / (rounds * (num_balancers // 2)),
    )


def _task_bits(requests):
    """Subtype-blind tasks: the TaskType bit (1 = type-C)."""
    return [r.task_type.bit for r in requests]


def _game_inputs(requests):
    """Affinity-game inputs: 0 for type-E, ``1 + subtype`` for type-C."""
    return [
        0 if r.task_type is TaskType.EXCLUSIVE else 1 + r.subtype
        for r in requests
    ]


def bench_hybrid_breaks_with_subtypes(benchmark):
    num_balancers, num_servers = 40, 20
    rounds = scaled(300)
    # Vertex 0 = type-E; vertices 1, 2 = incompatible C subtypes. All
    # cross pairs exclusive; same-subtype colocates; E-E exclusive.
    affinity = AffinityGraph.complete(3, {(0, 1), (0, 2), (1, 2)})

    classical_pairs = ClassicalGraphPairedAssignment(
        num_balancers, num_servers, affinity
    )
    # The game on the workload's own input mix: type-E w.p. 1/2 and each
    # C subtype w.p. 1/4, drawn independently per balancer.
    targets = classical_pairs.game.targets
    weights = np.array([0.5, 0.25, 0.25])
    mix_value = xor_quantum_value(
        XORGame(
            name="affinity-mix",
            distribution=np.outer(weights, weights),
            targets=targets,
        )
    )

    single_pool_good, _, _, _ = _evaluate(
        DedicatedPoolAssignment(num_balancers, num_servers, pool_fraction=0.5),
        _task_bits,
        targets,
        num_balancers,
        rounds,
        seed=19,
        num_subtypes=1,
    )

    policies = [
        (
            "dedicated C-pool (subtype-blind)",
            DedicatedPoolAssignment(
                num_balancers, num_servers, pool_fraction=0.5
            ),
            _task_bits,
        ),
        ("classical random", RandomAssignment(num_balancers, num_servers),
         _task_bits),
        ("classical graph pairs", classical_pairs, _game_inputs),
        (
            "quantum XOR pairs",
            XORPairedAssignment(num_balancers, num_servers, affinity),
            _game_inputs,
        ),
    ]
    rows = []
    ratios = {}
    win_rates = {}
    for name, policy, to_inputs in policies:
        good, bad, other, win_rates[name] = _evaluate(
            policy, to_inputs, targets, num_balancers, rounds, seed=19,
            num_subtypes=2,
        )
        ratio = good / max(bad, 1e-9)
        ratios[name] = ratio
        rows.append([name, good, bad, other, ratio, win_rates[name]])

    body = format_table(
        ["policy", "good/round", "bad mix/round", "other/round", "good:bad",
         "pair win rate"],
        rows,
        title=f"2 incompatible C subtypes, N={num_balancers}, "
        f"M={num_servers}, {rounds} rounds",
        float_format="{:.2f}",
    )
    body += (
        f"\nsingle-subtype reference: pool achieves {single_pool_good:.2f} "
        "good colocations/round (all of them compatible — hybrid works there)"
        "\npaper §4.1: pools break with multiple C subtypes; pairs that see "
        "subtypes colocate selectively (good:bad > 1)"
        f"\naffinity game on this mix: classical "
        f"{mix_value.classical_value:.4f}, quantum "
        f"{mix_value.quantum_value:.4f} (no quantum advantage; the 7/9 vs "
        "5/6 gap is the uniform game's)"
    )
    print_block("Ablation — hybrid dedicated-pool strategies", body)

    # The subtype-blind strategies cannot tell subtypes apart: ~1.0 ratio.
    assert ratios["dedicated C-pool (subtype-blind)"] < 1.15
    assert ratios["classical random"] < 1.15
    # The quantum XOR pairs skew colocation toward compatible subtypes.
    assert ratios["quantum XOR pairs"] > 1.25
    # On the workload's mix the game has no quantum advantage, so no
    # pair policy wins it above the classical value (4 standard errors
    # of tolerance at the default 300 rounds).
    assert abs(mix_value.quantum_value - mix_value.classical_value) < 1e-6
    for name in ("classical graph pairs", "quantum XOR pairs"):
        assert win_rates[name] < mix_value.classical_value + 0.02, (
            name, win_rates[name]
        )

    small = RandomAssignment(10, 5)
    mix = SubtypedTaskMix(10, num_subtypes=2)
    rng = np.random.default_rng(0)
    benchmark(
        lambda: _round_scores(
            mix.draw_requests(rng),
            small.assign_batch(np.ones((1, 10), dtype=np.uint8), rng)[0],
        )
    )
