"""Command-line interface: reproduce the paper's results from a shell.

Usage::

    python -m repro chsh
    python -m repro fig3 --games 20 --points 0 0.5 1.0
    python -m repro fig4 --steps 400 --loads 1.0 1.25
    python -m repro ecmp
    python -m repro budget --source-fidelity 0.97 --fiber-km 1.0 \
        --storage-us 50
    python -m repro values --p-exclusive 0.5 --vertices 5 --seed 7
    python -m repro regime --deadlines-ms 0.3 0.7 2.5 --distances-km 50 100
    python -m repro resume              # list interrupted journaled sweeps
    python -m repro resume <run key>    # restart one where it left off

Each subcommand prints the same tables the benchmark harness produces.
"""

from __future__ import annotations

import argparse
import json
import time
from collections.abc import Sequence

import numpy as np

from repro._version import __version__

__all__ = ["main", "build_parser"]


def _parse_telemetry(value: str) -> str:
    """Validate ``--telemetry``: off, summary, or ``json:PATH``."""
    if value in ("off", "summary"):
        return value
    if value.startswith("json:") and len(value) > len("json:"):
        return value
    raise argparse.ArgumentTypeError(
        f"expected 'off', 'summary', or 'json:PATH', got {value!r}"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantum non-local games for networked systems "
        "(HotNets '25 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    # Shared by every subcommand so it can follow the command name
    # (``repro fig4 --telemetry json:run.json``).
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--telemetry",
        type=_parse_telemetry,
        default="off",
        metavar="{off,summary,json:PATH}",
        help="run observability: 'summary' prints the run manifest and "
        "span tree, 'json:PATH' writes {manifest, spans} to PATH "
        "(default: off; see docs/observability.md)",
    )
    telemetry.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the crash-safe sweep checkpoint journal "
        "(<cache dir>/journal/<run_key>.jsonl) for commands that sweep "
        "through SweepRunner; journaled sweeps resume with "
        "'python -m repro resume' after an interruption",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "chsh", help="CHSH game values (paper §2)", parents=[telemetry]
    )

    fig3 = sub.add_parser(
        "fig3", help="Fig 3: XOR-game advantage curve", parents=[telemetry]
    )
    fig3.add_argument("--games", type=int, default=20,
                      help="games per point (default 20)")
    fig3.add_argument("--points", type=float, nargs="+",
                      default=[0.0, 0.25, 0.5, 0.75, 1.0],
                      help="P(edge exclusive) grid")
    fig3.add_argument("--vertices", type=int, default=5)
    fig3.add_argument("--seed", type=int, default=0)
    fig3.add_argument("--jobs", type=int, default=None,
                      help="worker processes for the sweep (default: "
                      "REPRO_JOBS, then CPU count; results are "
                      "bit-identical to a serial run)")
    fig3.add_argument("--method", choices=("auto", "reference", "batched"),
                      default="auto",
                      help="per-point pipeline: 'batched' runs the "
                      "screening cascade + stacked ADMM, 'reference' the "
                      "serial per-game SDP loop (xor family only), "
                      "'auto' the cascade "
                      "(per-game decisions are identical either way; "
                      "see docs/reproducing.md)")
    fig3.add_argument("--game-family",
                      choices=("xor", "colocation3", "random-nonlocal"),
                      default="xor",
                      help="game family per point: 'xor' (default) runs "
                      "the original affinity-graph pipeline; "
                      "'colocation3' and 'random-nonlocal' sample "
                      "general games (p becomes the family parameter) "
                      "and decide them with the see-saw/NPA cascade")
    fig3.add_argument("--no-cache", action="store_true",
                      help="skip the content-addressed result cache "
                      "(REPRO_CACHE_DIR, default .repro_cache)")

    fig4 = sub.add_parser(
        "fig4", help="Fig 4: queue length vs load", parents=[telemetry]
    )
    fig4.add_argument("--balancers", type=int, default=100)
    fig4.add_argument("--steps", type=int, default=600)
    fig4.add_argument("--loads", type=float, nargs="+",
                      default=[0.75, 1.0, 1.25, 1.5])
    fig4.add_argument("--seed", type=int, default=0)
    fig4.add_argument("--jobs", type=int, default=None,
                      help="worker processes for the sweep (default: "
                      "REPRO_JOBS, then CPU count; results are "
                      "bit-identical to a serial run)")
    fig4.add_argument("--engine", choices=("auto", "reference", "vectorized"),
                      default="auto",
                      help="simulation engine: 'vectorized' forces the "
                      "batched numpy engine, 'reference' the deque loop, "
                      "'auto' picks per point (see docs/reproducing.md)")
    fig4.add_argument("--fidelity", type=float, default=1.0,
                      help="Werner fidelity of the shared pairs "
                      "(default 1.0 = perfect Bell pairs)")
    fig4.add_argument("--availability", type=float, default=1.0,
                      help="probability a decision finds a live pair "
                      "(default 1.0 = never degraded)")
    fig4.add_argument("--outage", type=float, default=0.0,
                      help="mean outage-burst length in timesteps; 0 "
                      "(default) draws pair losses independently, > 0 "
                      "switches to correlated Gilbert-Elliott bursts at "
                      "the same availability")
    fig4.add_argument("--measurement-error", type=float, default=0.0,
                      help="per-QNIC detector flip probability applied "
                      "to both parties (default 0.0)")
    fig4.add_argument("--fallback", choices=("classical", "random"),
                      default="classical",
                      help="strategy a pair uses when its entangled pair "
                      "is lost: best classical paired strategy (default) "
                      "or uniform random routing")

    sub.add_parser(
        "ecmp",
        help="§4.2 collision games and reduction",
        parents=[telemetry],
    )

    budget = sub.add_parser(
        "budget", help="§3 hardware advantage budget", parents=[telemetry]
    )
    budget.add_argument("--source-fidelity", type=float, default=0.97)
    budget.add_argument("--fiber-km", type=float, default=1.0)
    budget.add_argument("--storage-us", type=float, default=50.0)
    budget.add_argument("--coherence-us", type=float, default=400.0)
    budget.add_argument("--pair-rate", type=float, default=1e6)

    values = sub.add_parser(
        "values",
        help="classical/quantum values of one random graph game",
        parents=[telemetry],
    )
    values.add_argument("--p-exclusive", type=float, default=0.5)
    values.add_argument("--vertices", type=int, default=5)
    values.add_argument("--seed", type=int, default=0)

    regime = sub.add_parser(
        "regime",
        help="latency-constrained advantage regime map "
        "(quantum / shared randomness / coordination)",
        parents=[telemetry],
    )
    regime.add_argument("--deadlines-ms", type=float, nargs="+",
                        default=[0.3, 0.7, 2.5],
                        help="decision deadlines in milliseconds")
    regime.add_argument("--distances-km", type=float, nargs="+",
                        default=[50.0, 100.0],
                        help="site separations in kilometers")
    regime.add_argument("--loads", type=float, nargs="+",
                        default=[0.7, 1.2],
                        help="offered load per server")
    regime.add_argument("--fidelities", type=float, nargs="+",
                        default=[0.7, 0.95],
                        help="Werner fidelities of the delivered pairs")
    regime.add_argument("--balancers", type=int, default=8,
                        help="DES fleet size (even; default 8)")
    regime.add_argument("--service-time-ms", type=float, default=1.0,
                        help="task execution time in milliseconds "
                        "(default 1.0; pick it near the RTT scale)")
    regime.add_argument("--horizon-services", type=float, default=120.0,
                        help="DES horizon in units of the service time")
    regime.add_argument("--pair-rate", type=float, default=5e3,
                        help="delivered Bell pairs per second per pair "
                        "of balancers (default 5000)")
    regime.add_argument("--storage-us", type=float, default=200.0,
                        help="QNIC pair-buffering window in microseconds")
    regime.add_argument("--seed", type=int, default=0)
    regime.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep (default: "
                        "REPRO_JOBS, then CPU count; verdicts are "
                        "bit-identical to a serial run)")
    regime.add_argument("--no-cache", action="store_true",
                        help="skip the content-addressed result cache "
                        "(REPRO_CACHE_DIR, default .repro_cache)")
    regime.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full cell records to PATH")

    resume = sub.add_parser(
        "resume",
        help="list interrupted journaled sweeps, or resume one by run key",
        parents=[telemetry],
    )
    resume.add_argument(
        "run_key",
        nargs="?",
        default=None,
        help="journal run key (or unique prefix) to resume; omit to "
        "list every journaled sweep under the cache directory",
    )
    resume.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the resumed sweep "
                        "(resume is bit-identical at any jobs count)")

    mermin = sub.add_parser(
        "mermin",
        help="multiplayer Mermin game value table",
        parents=[telemetry],
    )
    mermin.add_argument("--max-players", type=int, default=5)

    groups = sub.add_parser(
        "groups",
        help="Fig 4 with k-party balancer groups: GHZ vs Bell pairs vs "
        "classical groups (§4.2 probe)",
        parents=[telemetry],
    )
    groups.add_argument("--balancers", type=int, default=96,
                        help="fleet size (pick a multiple of the group "
                        "size; leftovers route uniformly)")
    groups.add_argument("--steps", type=int, default=600)
    groups.add_argument("--loads", type=float, nargs="+",
                        default=[0.75, 1.0, 1.25, 1.5])
    groups.add_argument("--group-size", type=int, default=4,
                        help="balancers per entangled group (default 4)")
    groups.add_argument("--seed", type=int, default=0)
    groups.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep (default: "
                        "REPRO_JOBS, then CPU count; results are "
                        "bit-identical to a serial run)")
    groups.add_argument("--engine", choices=("auto", "reference", "vectorized"),
                        default="auto",
                        help="simulation engine (see docs/reproducing.md)")

    calibrate = sub.add_parser(
        "calibrate",
        help="finite-sample CHSH calibration of a Werner state",
        parents=[telemetry],
    )
    calibrate.add_argument("--fidelity", type=float, default=0.95)
    calibrate.add_argument("--samples", type=int, default=5000)
    calibrate.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_chsh() -> None:
    from repro.analysis import format_table
    from repro.games import (
        CHSH_CLASSICAL_VALUE,
        CHSH_QUANTUM_VALUE,
        chsh_game,
        optimal_quantum_strategy,
    )

    game = chsh_game()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["classical value (brute force)", game.classical_value()],
                ["classical value (paper)", CHSH_CLASSICAL_VALUE],
                [
                    "quantum value (paper angles)",
                    game.value_of_strategy(optimal_quantum_strategy()),
                ],
                ["quantum value (paper)", CHSH_QUANTUM_VALUE],
            ],
            title="CHSH game (win iff a^b == x&y)",
            float_format="{:.6f}",
        )
    )


def _fig3_point(config: dict, seed: int) -> float:
    """One Fig 3 sweep point: advantage probability at one (vertices, p).

    The point's RNG derives from the root seed and the point's own
    parameters through :class:`~repro.sim.RandomStreams`, so every point
    is a pure function of (config, seed): values do not depend on point
    order or on which other points run (regression-tested), and the
    stream name matches the Fig 3 benchmark's derivation.
    """
    from repro.games import advantage_probability
    from repro.sim import RandomStreams

    family = config.get("family", "xor")
    if family == "xor":
        stream_name = f"fig3:v={config['vertices']}:p={config['p']}"
    else:
        stream_name = (
            f"fig3:{family}:v={config['vertices']}:p={config['p']}"
        )
    rng = RandomStreams(seed).stream(stream_name)
    return advantage_probability(
        config["vertices"],
        config["p"],
        config["games"],
        rng,
        method=config["method"],
        game_family=family,
    )


def _fig3_argv(args: argparse.Namespace) -> list[str]:
    """Rebuild a ``fig3`` argv from parsed args (journaled for resume)."""
    argv = [
        "fig3",
        "--games", str(args.games),
        "--points", *(str(p) for p in args.points),
        "--vertices", str(args.vertices),
        "--seed", str(args.seed),
        "--method", args.method,
        "--game-family", args.game_family,
    ]
    if args.no_cache:
        argv.append("--no-cache")
    return argv


def _check_fig3_args(args: argparse.Namespace) -> None:
    """Raise :class:`GameError` for fig3 arguments no sweep point accepts.

    The library checks the arguments itself: each point's family sampler
    draws one game (or ``--games`` of them when that is below one, so the
    sampler rejects the count), and the classical brute force runs on one
    drawn game, which enforces its size limit.
    """
    from repro.games.batch import classical_bias_batch, sample_game_batch
    from repro.games.bounds import sample_game_family

    rng = np.random.default_rng(0)
    num_games = min(args.games, 1)
    for p in args.points:
        if args.game_family == "xor":
            sample = sample_game_batch(args.vertices, p, num_games, rng)
        else:
            sample = sample_game_family(
                args.game_family, args.vertices, p, num_games, rng
            )
    if args.game_family == "xor":
        classical_bias_batch(sample.cost_matrices())
    else:
        sample[0].classical_value()


def _cmd_fig3(args: argparse.Namespace) -> None:
    from repro.analysis import format_table
    from repro.exec import SweepRunner

    runner = SweepRunner(
        _fig3_point,
        jobs=args.jobs,
        cache=not args.no_cache,
        label="fig3",
        journal=not getattr(args, "no_journal", False),
        journal_meta={"argv": _fig3_argv(args)},
    )
    report = runner.run(
        [
            (
                {
                    "vertices": args.vertices,
                    "p": float(p),
                    "games": args.games,
                    "method": args.method,
                    "family": args.game_family,
                },
                args.seed,
            )
            for p in args.points
        ]
    )
    rows = [
        [p, prob] for p, prob in zip(args.points, report.values())
    ]
    if args.game_family == "xor":
        parameter_label = "P(edge exclusive)"
        title = (
            f"Fig 3: {args.vertices}-vertex graphs, "
            f"{args.games} games/point"
        )
    else:
        parameter_label = "family parameter p"
        title = (
            f"Fig 3 ({args.game_family} family): "
            f"{args.games} games/point"
        )
    print(
        format_table(
            [parameter_label, "P(quantum advantage)"],
            rows,
            title=title,
        )
    )


def _fig4_runs(args: argparse.Namespace) -> list[tuple[str, object, dict | None]]:
    """The ``(name, policy factory, policy_kwargs)`` of each fig4 curve."""
    from repro.lb import (
        CHSHPairedAssignment,
        RandomAssignment,
        make_degraded_chsh,
    )

    degraded = (
        args.fidelity != 1.0
        or args.availability != 1.0
        or args.outage > 0.0
        or args.measurement_error != 0.0
    )
    runs: list[tuple[str, object, dict | None]] = [
        ("classical random", RandomAssignment, None)
    ]
    if degraded:
        runs.append(
            (
                "quantum CHSH (degraded)",
                make_degraded_chsh,
                {
                    "fidelity": args.fidelity,
                    "availability": args.availability,
                    "mean_outage_steps": args.outage,
                    "fallback": args.fallback,
                    "measurement_error": args.measurement_error,
                },
            )
        )
    else:
        runs.append(("quantum CHSH", CHSHPairedAssignment, None))
    return runs


def _check_fig4_args(args: argparse.Namespace) -> None:
    """Raise :class:`ReproError` for fig4 arguments no sweep point accepts.

    The library checks the arguments itself: every curve's policy is
    built with the sweep's own factory and ``policy_kwargs`` at each
    load's server count, and the simulation's own argument check sees
    ``--steps``. Nothing runs, so telemetry records only the sweep.
    """
    from repro.lb.simulation import check_run_arguments
    from repro.lb.sweep import servers_for_load

    check_run_arguments(timesteps=args.steps)
    for _, factory, policy_kwargs in _fig4_runs(args):
        for load in args.loads:
            num_servers = servers_for_load(args.balancers, load)
            factory(args.balancers, num_servers, **(policy_kwargs or {}))


def _cmd_fig4(args: argparse.Namespace) -> None:
    from repro.analysis import FigureData, format_figure, format_table
    from repro.lb import sweep_load

    runs = _fig4_runs(args)
    figure = FigureData(
        title=f"Fig 4: N={args.balancers}, {args.steps} steps",
        x_label="load N/M",
        y_label="mean queue length",
    )
    degradation_rows = []
    for name, factory, policy_kwargs in runs:
        points = sweep_load(
            factory,
            num_balancers=args.balancers,
            loads=args.loads,
            timesteps=args.steps,
            seed=args.seed,
            jobs=args.jobs,
            engine=args.engine,
            policy_kwargs=policy_kwargs,
        )
        figure.add(
            name,
            [p.load for p in points],
            [p.result.mean_queue_length for p in points],
        )
        for p in points:
            report = p.result.degradation
            if report is not None:
                degradation_rows.append(
                    [
                        p.load,
                        report.quantum_decision_rate,
                        report.fallback_fraction,
                        report.quantum_win_probability,
                        report.fallback_win_probability,
                        report.effective_win_probability,
                    ]
                )
    print(format_figure(figure))
    if degradation_rows:
        print()
        print(
            format_table(
                [
                    "load N/M",
                    "quantum rate",
                    "fallback frac",
                    "P(win|quantum)",
                    "P(win|fallback)",
                    "P(win) effective",
                ],
                degradation_rows,
                title="Degradation report "
                f"(fidelity={args.fidelity}, "
                f"availability={args.availability}, "
                f"outage={args.outage}, "
                f"meas. error={args.measurement_error}, "
                f"fallback={args.fallback})",
                float_format="{:.4f}",
            )
        )


def _cmd_ecmp() -> None:
    from repro.analysis import format_table
    from repro.ecmp import collision_game, independent_random_value
    from repro.games import seesaw_lower_bound

    game = collision_game(3, 2, 2)
    seesaw = seesaw_lower_bound(game, restarts=3, iterations=30, seed=0)
    print(
        format_table(
            ["strategy", "win probability"],
            [
                ["independent random", independent_random_value(game)],
                ["best classical", game.classical_value()],
                ["see-saw quantum search", seesaw.value],
            ],
            title="Collision game (3 switches, 2 active, 2 paths)",
            float_format="{:.6f}",
        )
    )
    print(
        "\nno quantum advantage found — consistent with the paper's "
        "§4.2 conjecture"
    )


def _cmd_budget(args: argparse.Namespace) -> None:
    from repro.analysis import format_table
    from repro.hardware import (
        QNIC,
        EntanglementDistributor,
        FiberChannel,
        SPDCSource,
        evaluate_budget,
    )

    source = SPDCSource(
        pair_rate=args.pair_rate, fidelity=args.source_fidelity
    )
    fiber = FiberChannel(length_m=args.fiber_km * 1000.0)
    qnic = QNIC(
        storage_limit=max(args.storage_us, 1.0) * 1e-6 * 2,
        coherence_time=args.coherence_us * 1e-6,
    )
    dist = EntanglementDistributor(source, fiber, fiber, qnic, qnic)
    budget = evaluate_budget(
        dist,
        storage_a=args.storage_us * 1e-6,
        storage_b=args.storage_us * 1e-6,
    )
    print(
        format_table(
            ["quantity", "value"],
            [
                ["delivered Bell fidelity", budget.bell_fidelity],
                ["CHSH win probability", budget.chsh_win_probability],
                ["advantage vs classical", budget.advantage],
                ["quantum advantage?", "yes" if budget.has_advantage else "NO"],
                ["delivered pairs/s", budget.delivered_pair_rate],
            ],
            title="End-to-end hardware budget",
            float_format="{:.6f}",
        )
    )


def _cmd_values(args: argparse.Namespace) -> None:
    from repro.analysis import format_table
    from repro.games import (
        random_affinity_graph,
        xor_game_from_graph,
        xor_quantum_value,
    )

    rng = np.random.default_rng(args.seed)
    graph = random_affinity_graph(args.vertices, args.p_exclusive, rng)
    game = xor_game_from_graph(graph)
    value = xor_quantum_value(game)
    print(f"graph: {graph}")
    print(
        format_table(
            ["quantity", "value"],
            [
                ["classical value", value.classical_value],
                ["quantum value (SDP)", value.quantum_value],
                ["rigorous upper bound", (1 + value.quantum_bias_upper) / 2],
                ["advantage", value.advantage],
            ],
            title="Induced XOR game",
            float_format="{:.6f}",
        )
    )


def _regime_grid(args: argparse.Namespace) -> dict:
    """The regime map's grid and fleet arguments, in SI units."""
    return {
        "deadlines": [d * 1e-3 for d in args.deadlines_ms],
        "distances_m": [km * 1000.0 for km in args.distances_km],
        "loads": args.loads,
        "fidelities": args.fidelities,
        "num_balancers": args.balancers,
        "service_time": args.service_time_ms * 1e-3,
        "horizon_services": args.horizon_services,
    }


def _cmd_regime(args: argparse.Namespace) -> None:
    from repro.analysis import format_table
    from repro.lb.regime import VERDICT_LETTERS, regime_map

    result = regime_map(
        **_regime_grid(args),
        pair_rate=args.pair_rate,
        storage_limit=args.storage_us * 1e-6,
        seed=args.seed,
        jobs=args.jobs,
        cache=not args.no_cache,
    )
    for distance, fidelity, grid in result.slices():
        rows = [
            [f"{deadline * 1e3:g} ms", *row]
            for deadline, row in zip(result.deadlines, grid)
        ]
        print(
            format_table(
                ["deadline", *(f"load {load:g}" for load in result.loads)],
                rows,
                title=f"Regime map: distance {distance / 1000:g} km, "
                f"fidelity {fidelity:g}",
            )
        )
        print()
    legend = ", ".join(
        f"{letter} = {verdict}" for verdict, letter in VERDICT_LETTERS.items()
    )
    print(f"legend: {legend}")
    counts = result.counts()
    print(
        "cells: "
        + ", ".join(f"{verdict} {n}" for verdict, n in counts.items())
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"cell records written to {args.json}")


def _cmd_resume(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    from repro.analysis import format_table
    from repro.exec import list_journals

    states = list_journals()
    if args.run_key is None:
        if not states:
            print("no journaled sweeps found (nothing to resume)")
            return
        rows = []
        for state in states:
            header = state.header or {}
            total = state.total
            done = state.completed
            status = (
                "complete"
                if total is not None and done >= total
                else "interrupted"
            )
            meta = header.get("meta") or {}
            command = " ".join(meta.get("argv", [])) or "-"
            mean = state.mean_compute_seconds
            remaining = state.remaining_compute_seconds
            rows.append(
                [
                    header.get("run_key", "?"),
                    header.get("label", "?"),
                    f"{done}/{total if total is not None else '?'}",
                    state.failed,
                    "-" if mean is None else f"{mean:.3f}",
                    "?" if remaining is None else f"{remaining:.1f}",
                    status,
                    command,
                ]
            )
        print(
            format_table(
                [
                    "run key",
                    "label",
                    "points",
                    "failed",
                    "s/point",
                    "left (worker-s)",
                    "status",
                    "command",
                ],
                rows,
                title="Journaled sweeps (python -m repro resume <run key>)",
            )
        )
        return
    matches = [
        state
        for state in states
        if state.header is not None
        and str(state.header.get("run_key", "")).startswith(args.run_key)
    ]
    if not matches:
        raise SystemExit(
            f"no journaled sweep matches run key {args.run_key!r} "
            "(run 'python -m repro resume' to list them)"
        )
    if len(matches) > 1:
        keys = ", ".join(m.header["run_key"] for m in matches)
        raise SystemExit(
            f"run key prefix {args.run_key!r} is ambiguous: {keys}"
        )
    header = matches[0].header
    meta = header.get("meta") or {}
    argv = meta.get("argv")
    if not argv:
        raise SystemExit(
            f"journal {header.get('run_key')} has no recorded command "
            "(it was not started from the CLI); resume it by re-running "
            "the original sweep — journaled points replay automatically"
        )
    if args.jobs is not None:
        argv = [*argv, "--jobs", str(args.jobs)]
    done = matches[0].completed
    total = matches[0].total
    print(
        f"resuming [{header.get('label')}] {header.get('run_key')}: "
        f"{done}/{total} points journaled; re-running: {' '.join(argv)}"
    )
    _dispatch(parser, parser.parse_args(argv))


def _cmd_mermin(args: argparse.Namespace) -> None:
    from repro.analysis import format_table
    from repro.games import (
        mermin_classical_value,
        mermin_game,
        mermin_optimal_strategy,
    )

    rows = []
    for n in range(3, args.max_players + 1):
        game = mermin_game(n)
        quantum = game.value_of_strategy(mermin_optimal_strategy(n))
        rows.append([n, mermin_classical_value(n), quantum])
    print(
        format_table(
            ["players", "classical value", "GHZ quantum value"],
            rows,
            title="Mermin parity games",
            float_format="{:.6f}",
        )
    )


def _groups_runs(args: argparse.Namespace) -> list[tuple[str, object, dict | None]]:
    """The ``(name, policy factory, policy_kwargs)`` of each groups curve."""
    from repro.lb import (
        CHSHPairedAssignment,
        ClassicalGroupAssignment,
        GHZGroupAssignment,
        RandomAssignment,
    )

    k = args.group_size
    return [
        ("classical random", RandomAssignment, None),
        ("quantum CHSH pairs", CHSHPairedAssignment, None),
        (f"GHZ groups (k={k})", GHZGroupAssignment, {"group_size": k}),
        (
            f"classical groups (k={k})",
            ClassicalGroupAssignment,
            {"group_size": k},
        ),
    ]


def _check_groups_args(args: argparse.Namespace) -> None:
    """Raise :class:`ReproError` for groups arguments no sweep point
    accepts, as :func:`_check_fig4_args` does for fig4."""
    from repro.errors import ConfigurationError
    from repro.lb.simulation import check_run_arguments
    from repro.lb.sweep import servers_for_load

    if args.group_size < 2:
        raise ConfigurationError("--group-size must be at least 2")
    check_run_arguments(timesteps=args.steps)
    for _, factory, policy_kwargs in _groups_runs(args):
        for load in args.loads:
            num_servers = servers_for_load(args.balancers, load)
            factory(args.balancers, num_servers, **(policy_kwargs or {}))


def _cmd_groups(args: argparse.Namespace) -> None:
    from repro.analysis import FigureData, format_figure, format_table
    from repro.lb import knee_load, sweep_load

    k = args.group_size
    runs = _groups_runs(args)
    figure = FigureData(
        title=f"Group policies: N={args.balancers}, k={k}, "
        f"{args.steps} steps",
        x_label="load N/M",
        y_label="mean queue length",
    )
    knee_rows = []
    for name, factory, policy_kwargs in runs:
        points = sweep_load(
            factory,
            num_balancers=args.balancers,
            loads=args.loads,
            timesteps=args.steps,
            seed=args.seed,
            jobs=args.jobs,
            engine=args.engine,
            policy_kwargs=policy_kwargs,
        )
        figure.add(
            name,
            [p.load for p in points],
            [p.result.mean_queue_length for p in points],
        )
        knee_rows.append([name, knee_load(points)])
    print(format_figure(figure))
    print()
    print(
        format_table(
            ["policy", "knee load"],
            knee_rows,
            title="Knee loads (first load with mean queue >= 5)",
            float_format="{:.4f}",
        )
    )


def _cmd_calibrate(args: argparse.Namespace) -> None:
    from repro.analysis import format_table
    from repro.hardware import estimate_chsh
    from repro.hardware.calibration import S_CLASSICAL, S_TSIRELSON
    from repro.quantum import werner_state

    rng = np.random.default_rng(args.seed)
    estimate = estimate_chsh(
        werner_state(args.fidelity), args.samples, rng
    )
    print(
        format_table(
            ["quantity", "value"],
            [
                ["true Werner fidelity", args.fidelity],
                ["estimated S", estimate.s_value],
                ["S stderr", estimate.s_stderr],
                ["classical bound", S_CLASSICAL],
                ["Tsirelson bound", S_TSIRELSON],
                ["estimated fidelity", estimate.estimated_fidelity()],
                [
                    "certified non-classical?",
                    "yes" if estimate.certifies_nonclassicality else "NO",
                ],
            ],
            title=f"CHSH calibration ({args.samples} samples/setting)",
            float_format="{:.6f}",
        )
    )


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.command == "chsh":
        _cmd_chsh()
    elif args.command == "fig3":
        if args.method == "reference" and args.game_family != "xor":
            parser.error(
                "fig3: --method reference runs only --game-family xor"
            )
        from repro.errors import GameError

        try:
            _check_fig3_args(args)
        except GameError as exc:
            parser.error(f"fig3: invalid arguments: {exc}")
        _cmd_fig3(args)
    elif args.command == "fig4":
        from repro.errors import ReproError

        try:
            _check_fig4_args(args)
        except ReproError as exc:
            parser.error(f"fig4: invalid arguments: {exc}")
        _cmd_fig4(args)
    elif args.command == "ecmp":
        _cmd_ecmp()
    elif args.command == "budget":
        from repro.errors import ReproError

        try:
            _cmd_budget(args)
        except ReproError as exc:
            parser.error(f"budget: invalid arguments: {exc}")
    elif args.command == "values":
        from repro.errors import GameError

        try:
            _cmd_values(args)
        except GameError as exc:
            parser.error(f"values: invalid arguments: {exc}")
    elif args.command == "regime":
        from repro.errors import ReproError
        from repro.lb.regime import check_regime_arguments

        try:
            check_regime_arguments(**_regime_grid(args))
        except ReproError as exc:
            parser.error(f"regime: invalid arguments: {exc}")
        _cmd_regime(args)
    elif args.command == "resume":
        _cmd_resume(parser, args)
    elif args.command == "mermin":
        from repro.errors import GameError
        from repro.games import mermin_game

        if args.max_players < 3:
            parser.error("mermin: --max-players must be at least 3")
        try:
            mermin_game(args.max_players)
        except GameError as exc:
            parser.error(f"mermin: invalid arguments: {exc}")
        _cmd_mermin(args)
    elif args.command == "groups":
        from repro.errors import ReproError

        try:
            _check_groups_args(args)
        except ReproError as exc:
            parser.error(f"groups: invalid arguments: {exc}")
        _cmd_groups(args)
    elif args.command == "calibrate":
        from repro.errors import ReproError

        try:
            _cmd_calibrate(args)
        except ReproError as exc:
            parser.error(f"calibrate: invalid arguments: {exc}")
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")


def _cli_manifest(args, registry, wall: float):
    """Build the command-level RunManifest from the captured registry."""
    from repro.obs import RunManifest

    snapshot = registry.snapshot()
    counters = snapshot.get("counters", {})
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "telemetry")
    }
    seed = getattr(args, "seed", None)
    return RunManifest.collect(
        "cli",
        seeds=() if seed is None else (int(seed),),
        engine=getattr(args, "engine", None),
        config={"command": args.command, **config},
        cache_hits=counters.get("cache.hit", 0),
        cache_misses=counters.get("cache.miss", 0),
        metrics=snapshot,
        wall_seconds=wall,
    )


def _emit_telemetry(mode: str, manifest, spans) -> None:
    from repro.obs import format_span_tree

    if mode == "summary":
        print()
        print("== telemetry ==")
        print(manifest.to_json())
        tree = format_span_tree(spans)
        if tree:
            print(tree)
        return
    path = mode[len("json:"):]
    payload = {
        "manifest": manifest.to_dict(),
        "spans": [entry.to_dict() for entry in spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"telemetry written to {path}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    mode = getattr(args, "telemetry", "off")
    if mode == "off":
        _dispatch(parser, args)
        return 0

    from repro.obs import capture, clear_spans, finished_spans
    from repro.obs import spans as _spans

    clear_spans()
    start = time.perf_counter()
    with capture() as registry, _spans.span(f"cli.{args.command}"):
        _dispatch(parser, args)
    wall = time.perf_counter() - start
    manifest = _cli_manifest(args, registry, wall)
    _emit_telemetry(mode, manifest, finished_spans())
    return 0
