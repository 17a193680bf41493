"""Fig 3 reproduction: probability a random 5-vertex XOR game has a
quantum advantage, vs the probability that an edge is exclusive.

Paper claims (Fig 3 + §4.1): the curve vanishes at the extremes, most
randomly labeled graphs in the middle exhibit a quantum advantage, and
the advantage probability increases with the number of vertices.

Each curve point is an independent (config, seed) sweep point executed
through :class:`repro.exec.SweepRunner`: its RNG derives from the root
seed and the point's parameters via :class:`repro.sim.RandomStreams`,
so points are order-independent and parallel runs match serial ones
bit-for-bit.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from benchmarks._common import (
    scale_tier,
    ladder,
    print_block,
    scaled,
    sweep_cache,
    sweep_jobs,
)
from repro.analysis import FigureData, format_figure, format_table
from repro.exec import SweepRunner
from repro.games import (
    advantage_decisions,
    advantage_probability,
    random_affinity_graph,
    sample_game_batch,
    screen_advantage_batch,
    screen_game_batch,
    xor_game_from_graph,
    xor_quantum_value,
)
from repro.sim import RandomStreams


def _advantage_point(config, seed):
    """One Fig 3 point: advantage probability at one (vertices, p)."""
    rng = RandomStreams(seed).stream(
        f"fig3:v={config['vertices']}:p={config['p']}"
    )
    return advantage_probability(
        config["vertices"], config["p"], config["games"], rng
    )


def bench_fig3_advantage_curve(benchmark):
    games_per_point = scaled(40, 5)
    p_values = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    runner = SweepRunner(
        _advantage_point,
        jobs=sweep_jobs(),
        cache=sweep_cache(),
        label="fig3-advantage",
    )
    report = runner.run(
        [
            ({"vertices": 5, "p": p, "games": games_per_point}, 42)
            for p in p_values
        ]
    )
    probabilities = report.values()

    figure = FigureData(
        title=f"Fig 3: P(quantum advantage), 5-vertex graphs, "
        f"{games_per_point} games/point",
        x_label="P(edge exclusive)",
        y_label="P(quantum advantage)",
    )
    figure.add("5 vertices", p_values, probabilities)
    body = format_figure(figure) + "\n\n" + report.summary()
    print_block("Fig 3 — XOR-game advantage probability", body)

    # Shape assertions from the paper's figure.
    assert probabilities[0] == 0.0, "all-colocate games are classical-perfect"
    assert max(probabilities[3:8]) > 0.4, "most mid-range graphs show advantage"

    # Timed kernel: one full classical+quantum value computation.
    kernel_rng = np.random.default_rng(7)
    graph = random_affinity_graph(5, 0.5, kernel_rng)
    game = xor_game_from_graph(graph)
    benchmark(lambda: xor_quantum_value(game))


def bench_fig3_vertex_scaling(benchmark):
    """Paper: 'the probability of achieving a quantum advantage increases
    with the number of vertices'."""
    games_per_point = scaled(30, 5)
    p_exclusive = 0.5
    sizes = [3, 4, 5, 6]
    runner = SweepRunner(
        _advantage_point,
        jobs=sweep_jobs(),
        cache=sweep_cache(),
        label="fig3-vertex-scaling",
    )
    report = runner.run(
        [
            ({"vertices": n, "p": p_exclusive, "games": games_per_point}, 11)
            for n in sizes
        ]
    )
    probabilities = report.values()
    figure = FigureData(
        title=f"Fig 3 inset: advantage probability vs vertex count "
        f"(p_exclusive={p_exclusive}, {games_per_point} games/point)",
        x_label="vertices",
        y_label="P(quantum advantage)",
    )
    figure.add(f"p={p_exclusive}", [float(n) for n in sizes], probabilities)
    body = format_figure(figure) + "\n\n" + report.summary()
    print_block("Fig 3 — vertex-count scaling", body)

    assert probabilities[-1] >= probabilities[0], (
        "advantage probability should not shrink with more vertices"
    )

    kernel_rng = np.random.default_rng(13)
    benchmark(
        lambda: advantage_probability(4, 0.5, 2, kernel_rng)
    )


def bench_fig3_batched_cascade(benchmark):
    """Race the screening cascade against the per-game reference loop.

    Every point samples identical games for both methods (same
    :class:`RandomStreams` substream) and the per-game verdict arrays
    must match exactly — the speedup only counts if the decisions are
    bit-identical. At full scale (200 games/point) the cascade must win
    by >=10x; at smoke scale the gate degrades to "not slower".

    A trajectory file (``BENCH_fig3.json``, override via
    ``REPRO_BENCH_FIG3_JSON``) records per-point times, speedups, and
    cascade-stage hit counts; CI uploads it next to
    ``BENCH_engine.json``.
    """
    games = scaled(200, 10)
    full_scale = games >= 200
    p_values = [0.0, 0.15, 0.3, 0.5, 0.7, 0.85, 1.0]

    def point_rng(p):
        return RandomStreams(42).stream(f"fig3:v=5:p={p}")

    rows = []
    trajectory = {
        "benchmark": "fig3_batched_cascade",
        "vertices": 5,
        "games_per_point": games,
        "full_scale": full_scale,
        "points": [],
    }
    stage_totals = {"perfect": 0, "lower": 0, "upper": 0, "sdp": 0}
    total_reference = 0.0
    total_batched = 0.0
    for p in p_values:
        start = time.perf_counter()
        reference = advantage_decisions(
            5, p, games, point_rng(p), method="reference"
        )
        reference_seconds = time.perf_counter() - start

        start = time.perf_counter()
        report = screen_advantage_batch(5, p, games, point_rng(p))
        batched_seconds = time.perf_counter() - start

        assert np.array_equal(report.verdicts, reference), (
            f"batched cascade changed a verdict at p={p}"
        )
        speedup = reference_seconds / batched_seconds
        total_reference += reference_seconds
        total_batched += batched_seconds
        counts = report.stage_counts()
        for stage, count in counts.items():
            stage_totals[stage] += count
        rows.append(
            [
                p,
                report.advantage_probability,
                reference_seconds,
                batched_seconds,
                speedup,
                counts["sdp"],
            ]
        )
        trajectory["points"].append(
            {
                "p_exclusive": p,
                "advantage_probability": report.advantage_probability,
                "reference_seconds": reference_seconds,
                "batched_seconds": batched_seconds,
                "speedup": speedup,
                "stage_counts": counts,
            }
        )

    total_games = games * len(p_values)
    overall_speedup = total_reference / total_batched
    screened = total_games - stage_totals["sdp"]
    cascade_efficiency = screened / total_games
    trajectory["total_reference_seconds"] = total_reference
    trajectory["total_batched_seconds"] = total_batched
    trajectory["speedup"] = overall_speedup
    trajectory["stage_totals"] = stage_totals
    trajectory["cascade_efficiency"] = cascade_efficiency

    # --- scale-up: n=6..8 -------------------------------------------
    # No reference race here — the per-game loop would pay a full SDP
    # per game at n=8. The default screens now decide every game here
    # (its ties fall to the classical dual certificate), so to keep the
    # batched ADMM stage exercised the same games are screened again
    # with the ascent off: that forced screen must escalate games and
    # reach the default screen's verdicts.
    tier = scale_tier()
    scale_sizes = ladder("fig3_sizes")
    scale_games = ladder("fig3_games")
    scale_rows = []
    scale_points = []
    for vertices in scale_sizes:
        rng = RandomStreams(42).stream(f"fig3:v={vertices}:p=0.5")
        start = time.perf_counter()
        batch = sample_game_batch(vertices, 0.5, scale_games, rng)
        report = screen_game_batch(batch)
        seconds = time.perf_counter() - start
        counts = report.stage_counts()
        start = time.perf_counter()
        forced = screen_game_batch(batch, restarts=1, iterations=0)
        forced_seconds = time.perf_counter() - start
        forced_counts = forced.stage_counts()
        scale_rows.append(
            [
                vertices,
                report.advantage_probability,
                seconds,
                scale_games / seconds,
                counts["sdp"],
                forced_seconds,
                forced_counts["sdp"],
            ]
        )
        scale_points.append(
            {
                "vertices": vertices,
                "p_exclusive": 0.5,
                "games": scale_games,
                "advantage_probability": report.advantage_probability,
                "seconds": seconds,
                "stage_counts": counts,
                "sdp_escalations": counts["sdp"],
                "forced_seconds": forced_seconds,
                "forced_stage_counts": forced_counts,
            }
        )
        assert forced_counts["sdp"] > 0, (
            f"no SDP escalations at n={vertices} with the ascent off, "
            "so the scale-up point no longer exercises the hot kernel"
        )
        assert np.array_equal(forced.verdicts, report.verdicts), (
            f"forced escalation changed a verdict at n={vertices}"
        )
    trajectory["scale_up"] = {"tier": tier, "points": scale_points}

    body = format_table(
        ["p", "P(adv)", "reference s", "batched s", "speedup", "to SDP"],
        rows,
        float_format="{:.4f}",
    )
    body += (
        f"\n\n{games} games/point (REPRO_BENCH_SCALE); overall speedup "
        f"{overall_speedup:.1f}x, target >=10x at full scale"
        f"\ncascade efficiency: {cascade_efficiency:.1%} decided without "
        f"an SDP ({stage_totals['sdp']}/{total_games} escalated); stages "
        f"perfect={stage_totals['perfect']} lower={stage_totals['lower']} "
        f"upper={stage_totals['upper']} sdp={stage_totals['sdp']}"
        f"\nper-game decisions: bit-identical to the reference on all "
        f"{total_games} games"
    )
    body += f"\n\nscale-up at p=0.5 (tier '{tier}'):\n"
    body += format_table(
        [
            "n",
            "P(adv)",
            "seconds",
            "games/s",
            "to SDP",
            "forced s",
            "forced to SDP",
        ],
        scale_rows,
        float_format="{:.4f}",
    )
    print_block("Fig 3 — batched cascade vs reference pipeline", body)

    out_path = os.environ.get("REPRO_BENCH_FIG3_JSON", "BENCH_fig3.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")

    required = 10.0 if full_scale else 1.0
    assert overall_speedup >= required, (
        f"cascade speedup {overall_speedup:.2f}x below the "
        f"{required:.0f}x gate"
    )

    # Timed kernel: one mid-curve batched screen.
    benchmark(
        lambda: screen_advantage_batch(
            5, 0.5, 10, np.random.default_rng(5)
        )
    )
