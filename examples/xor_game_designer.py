#!/usr/bin/env python3
"""Design an affinity-aware load balancer from an XOR game (paper §4.1).

Workflow a systems designer would follow:

1. Describe task-type affinities as a labeled graph (colocate/exclusive).
2. Derive the induced XOR game and compute its classical and quantum
   values (the Tsirelson SDP says exactly how much entanglement buys).
3. Extract the explicit optimal quantum strategy (measurement operators
   on a maximally entangled state).
4. Drive paired load balancers with it and watch the colocation
   selectivity beat every classical baseline.

Run:  python examples/xor_game_designer.py
"""

import numpy as np

from repro.analysis import format_table
from repro.games import (
    AffinityGraph,
    tsirelson_strategy,
    xor_game_from_graph,
    xor_quantum_value,
)
from repro.lb import XORPairedAssignment
from repro.lb.xor_lb import ClassicalGraphPairedAssignment
from repro.net.packet import Request, TaskType
from repro.net.workload import SubtypedTaskMix


def main() -> None:
    # Task types: vertex 0 is the exclusive class; vertices 1 and 2 are
    # two cache-sharing subtypes that must not mix with each other.
    affinity = AffinityGraph.complete(3, {(0, 1), (0, 2), (1, 2)})
    print(f"affinity graph: {affinity}\n")

    game = xor_game_from_graph(
        affinity, include_diagonal=True, exclusive_diagonal={0}
    )
    value = xor_quantum_value(game)
    print(
        format_table(
            ["quantity", "value"],
            [
                ["classical value (exact brute force)", value.classical_value],
                ["quantum value (Tsirelson SDP)", value.quantum_value],
                ["rigorous quantum upper bound",
                 (1 + value.quantum_bias_upper) / 2],
                ["advantage", value.advantage],
            ],
            title="Induced XOR game",
            float_format="{:.6f}",
        )
    )

    strategy = tsirelson_strategy(game)
    achieved = game.to_nonlocal_game().value_of_strategy(strategy)
    print(
        f"\nexplicit quantum strategy achieves {achieved:.6f} "
        f"(SDP optimum {value.quantum_value:.6f})"
    )

    # Deploy: paired balancers route a multi-subtype workload.
    num_balancers, num_servers, rounds = 40, 20, 400
    quantum_policy = XORPairedAssignment(num_balancers, num_servers, affinity)
    classical_policy = ClassicalGraphPairedAssignment(
        num_balancers, num_servers, affinity
    )
    mix = SubtypedTaskMix(num_balancers, num_subtypes=2)
    rng_tasks = np.random.default_rng(1)
    rng_policy = np.random.default_rng(2)

    def colocation_stats(policy, uses_requests):
        good = bad = 0
        for _ in range(rounds):
            requests = mix.draw_requests(rng_tasks)
            if uses_requests:
                choices = policy.assign(requests, rng_policy)
            else:
                choices = policy.assign(
                    [r.task_type for r in requests], rng_policy
                )
            by_server: dict[int, list[Request]] = {}
            for request, server in zip(requests, choices):
                by_server.setdefault(server, []).append(request)
            for members in by_server.values():
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        a, b = members[i], members[j]
                        if (
                            a.task_type is TaskType.COLOCATE
                            and b.task_type is TaskType.COLOCATE
                            and a.subtype == b.subtype
                        ):
                            good += 1
                        else:
                            bad += 1
        return good / rounds, bad / rounds

    rows = []
    for name, policy in (
        ("classical graph pairs", classical_policy),
        ("quantum XOR pairs", quantum_policy),
    ):
        good, bad = colocation_stats(policy, uses_requests=True)
        rows.append([name, good, bad, good / max(bad, 1e-9)])
    print()
    print(
        format_table(
            ["policy", "good colocations/round", "conflicts/round", "ratio"],
            rows,
            title=f"Deployment: N={num_balancers}, M={num_servers}, "
            f"{rounds} rounds",
            float_format="{:.3f}",
        )
    )
    print(
        "\nThe quantum pairs extract more compatible colocations per"
        "\nconflict than any classical pairing — with zero communication"
        "\nbetween balancers."
    )


if __name__ == "__main__":
    main()
