"""Command line of the repo benchmark.

From the repo root::

    python -m benchmarks.suite run --seed 1 --out set.json    # six workloads
    python -m benchmarks.suite run --trace --out traced.json  # plus layers
    python -m benchmarks.suite run --workload fig4_stream --seconds 10
    python -m benchmarks.suite compare base.json new.json

The file also runs as a script (``python3 benchmarks/suite/__main__.py run``).
``run`` prints every end-to-end metric with its unit and sample count; with
exactly one ``--workload`` its last line is a JSON object with the check
tallies and that workload's end-to-end metrics (per-layer ones when traced).
``compare`` exits non-zero when any (workload, metric) pair got worse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if not __package__:
    # Run as a file: import the suite as a package from the repo root
    # instead of from this directory.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.suite import compare, harness  # noqa: E402


def _run(args: argparse.Namespace, spec: dict) -> int:
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to benchmark: {harness.SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    names = args.workload or [entry["name"] for entry in spec["workloads"]]
    record = harness.run_set(
        names,
        args.seed,
        repeats=args.repeats,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    print(harness.format_set(record))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if len(names) == 1:
        line = harness.result_line(record["workloads"][names[0]], spec, bool(args.trace))
        print(json.dumps(line))
    finished = (wl["metrics"]["throughput"]["n"] for wl in record["workloads"].values())
    return 0 if all(finished) else 1


def _compare(args: argparse.Namespace, spec: dict) -> int:
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.records)
    if base["seed"] != new["seed"]:
        print(
            f"warning: seeds differ ({base['seed']} vs {new['seed']}); "
            "fig3 and sweep inputs depend on the seed",
            file=sys.stderr,
        )
    rows = compare.compare_records(base, new, compare.metric_rules(spec))
    print(compare.format_rows(rows))
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(
        f"{len(rows)} pairs: {len(worse)} worse, {unresolved} unresolved, "
        f"{sum(row['verdict'] == 'better' for row in rows)} better"
    )
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite", description=__doc__.split("\n")[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument(
        "--workload",
        action="append",
        choices=[entry["name"] for entry in spec["workloads"]],
        help="workload to run (repeatable; default: all)",
    )
    run.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    run.add_argument(
        "--repeats", type=int, default=5, help="untraced repeats per workload"
    )
    run.add_argument(
        "--seconds",
        type=float,
        default=0.0,
        help="keep adding repeats until this much wall time has passed",
    )
    run.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="also run one traced repeat per workload for per-layer metrics",
    )
    run.add_argument("--out", type=Path, help="write the set record here")
    cmp = commands.add_parser("compare", help="compare two set records")
    cmp.add_argument("records", nargs=2, metavar="RECORD", help="base, then new")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _compare(args, spec)
    return _run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
