"""Group policies: GHZ k-party groups vs Bell pairs vs classical groups.

The §4.2 probe from the load-balancing side. Fleet sizes, group sizes,
timesteps, and the load grid come from the shared ``SCALE_LADDER``
(``group_*`` keys), so the smoke tier in CI and the paper tier in docs
name the same points. For each group size ``k`` the bench sweeps four
policies over the load grid through the chunked streaming engine:

- classical random (the paper's baseline),
- quantum CHSH pairs (the paper's policy — disjoint Bell pairs),
- GHZ groups of ``k`` (perfect Mermin strategy on shared GHZ states),
- classical groups of ``k`` (best deterministic Mermin tables, same
  grouping and shared-randomness server draws).

The headline table reports the knee load per policy (first load whose
mean queue crosses 5) plus per-load mean queue lengths; the trajectory
JSON (``BENCH_groups.json``, override via ``REPRO_BENCH_GROUPS_JSON``)
records every point for trend tracking. CI uploads it next to the other
BENCH artifacts.

Gate: at non-smoke tiers the GHZ-group policy must not queue worse than
the classical-group policy at the top load for any swept ``k`` — the
parity-coordination payoff (even-parity joint outputs eliminate the
worst splits) must survive the full queueing pipeline, not just the
game-value table.
"""

from __future__ import annotations

import json
import os

import numpy as np

from benchmarks._common import (
    ladder,
    print_block,
    scale_tier,
    sweep_cache,
    sweep_jobs,
)
from repro.analysis import format_table
from repro.lb import (
    CHSHPairedAssignment,
    ClassicalGroupAssignment,
    GHZGroupAssignment,
    RandomAssignment,
    knee_load,
    sweep_load,
)

SEED = 11


def _sweep(factory, *, n, loads, timesteps, policy_kwargs=None):
    points = sweep_load(
        factory,
        num_balancers=n,
        loads=loads,
        timesteps=timesteps,
        seed=SEED,
        jobs=sweep_jobs(),
        cache=sweep_cache(),
        policy_kwargs=policy_kwargs,
    )
    return points


def bench_group_policies(benchmark):
    tier = scale_tier()
    n = ladder("group_balancers")
    timesteps = ladder("group_timesteps")
    sizes = ladder("group_sizes")
    loads = ladder("group_loads")

    trajectory = {
        "benchmark": "group_policies",
        "tier": tier,
        "num_balancers": n,
        "timesteps": timesteps,
        "seed": SEED,
        "group_sizes": list(sizes),
        "loads": list(loads),
        "series": [],
    }

    # The pair-based rows are group-size independent; run them once.
    baselines = [
        ("classical random", RandomAssignment, None),
        ("quantum CHSH pairs", CHSHPairedAssignment, None),
    ]
    rows = []
    queues_by_name = {}
    for name, factory, kwargs in baselines:
        points = _sweep(
            factory, n=n, loads=loads, timesteps=timesteps, policy_kwargs=kwargs
        )
        queues = [p.result.mean_queue_length for p in points]
        queues_by_name[name] = queues
        rows.append([name, knee_load(points), *queues])
        trajectory["series"].append(
            {
                "policy": name,
                "group_size": None,
                "knee_load": knee_load(points),
                "loads": [p.load for p in points],
                "mean_queue_lengths": queues,
            }
        )

    for k in sizes:
        for name, factory in (
            (f"GHZ groups (k={k})", GHZGroupAssignment),
            (f"classical groups (k={k})", ClassicalGroupAssignment),
        ):
            points = _sweep(
                factory,
                n=n,
                loads=loads,
                timesteps=timesteps,
                policy_kwargs={"group_size": k},
            )
            queues = [p.result.mean_queue_length for p in points]
            queues_by_name[name] = queues
            rows.append([name, knee_load(points), *queues])
            trajectory["series"].append(
                {
                    "policy": name,
                    "group_size": k,
                    "knee_load": knee_load(points),
                    "loads": [p.load for p in points],
                    "mean_queue_lengths": queues,
                }
            )

    body = format_table(
        ["policy", "knee", *(f"q@{load:g}" for load in loads)],
        rows,
        float_format="{:.3f}",
    )
    body += (
        f"\n\nN={n} balancers, {timesteps} steps, seed {SEED}, tier "
        f"'{tier}'; q@L = mean queue length at load L, knee = first "
        "load with q >= 5"
    )
    print_block("Group policies — GHZ groups vs Bell pairs vs classical", body)

    out_path = os.environ.get("REPRO_BENCH_GROUPS_JSON", "BENCH_groups.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")

    for queues in queues_by_name.values():
        assert all(q >= 0.0 for q in queues), "negative queue length"
    if tier != "smoke":
        for k in sizes:
            ghz_top = queues_by_name[f"GHZ groups (k={k})"][-1]
            classical_top = queues_by_name[f"classical groups (k={k})"][-1]
            assert ghz_top <= classical_top * 1.05, (
                f"GHZ groups (k={k}) queued {ghz_top:.2f} at the top load "
                f"vs classical groups' {classical_top:.2f}"
            )

    smallest = sizes[0]
    policy = GHZGroupAssignment(
        max(2 * smallest, 8), max(smallest, 4), group_size=smallest
    )
    tasks = np.random.default_rng(0).integers(
        0, 2, size=(200, policy.num_balancers)
    )
    benchmark.pedantic(
        lambda: policy.assign_batch(tasks, np.random.default_rng(1)),
        rounds=3,
        iterations=1,
    )
