"""Run workloads repeat by repeat in fresh processes and summarise them.

One parent process runs each repeat of a workload in its own subprocess, one
at a time (:func:`run_repeat`), with BLAS pinned to one thread and the sweep
cache and journal pointed at a scratch dir that is deleted afterwards. The
gated value of each end-to-end metric is the median over the repeats; the
record also keeps quartiles, min/max and the sample count. With tracing on,
one more repeat runs with the layer wrappers installed and supplies the
per-layer metrics.

``BENCHMARK.json`` at the repo root names the workloads and the end-to-end
metrics with their units, directions and bounds; this module reads it rather
than repeating it.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

__all__ = [
    "ROOT",
    "SRC",
    "RESULTS",
    "describe",
    "format_set",
    "load_spec",
    "per_layer",
    "result_line",
    "run_repeat",
    "run_set",
    "summarize",
]

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
RESULTS = SUITE / "results"

#: Wall-clock limit for one repeat (about 10x the slowest on the reference
#: box); a repeat past it is killed and counted as crashed.
REPEAT_TIMEOUT_S = 50.0

#: Counters and gauges of ``repro.obs.metrics`` reported per layer; units
#: and directions are in ``BENCHMARK.json``.
COUNTERS = (
    "fig3.cascade.perfect",
    "fig3.cascade.lower",
    "fig3.cascade.upper",
    "fig3.cascade.sdp",
    "seesaw.iterations",
    "bounds.cascade.perfect",
    "bounds.cascade.lower",
    "bounds.cascade.upper",
    "bounds.cascade.undecided",
    "admm.iterations",
    "admm.escalations",
    "npa.solves",
    "engine.vectorized.chunks",
    "engine.window_bytes",
    "cache.hit",
    "cache.miss",
    "cache.put",
    "journal.appends",
    "sweep.points.computed",
    "sweep.points.cached",
    "sweep.points.resumed",
)


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
        REPRO_CACHE_DIR=str(workdir / "cache"),
    )
    return env


def run_repeat(
    workload: str,
    seed: int,
    index: int,
    *,
    trace: bool = False,
    spans_out: Path | None = None,
) -> dict:
    """Run one repeat in a fresh process and return its result.

    A repeat that exits non-zero, prints no result or overruns
    :data:`REPEAT_TIMEOUT_S` returns ``{"crashed": reason}``. The repeat's
    scratch dir (cache, journal, warm-up sweep) is removed either way.
    """
    scratch = RESULTS / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    spec = {
        "workload": workload,
        "seed": seed,
        "repeat": index,
        "workdir": str(workdir),
        "trace": trace,
        "spans_out": str(spans_out) if spans_out else None,
    }
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.suite.repeat", json.dumps(spec)],
            cwd=workdir,
            env=_child_env(workdir),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=REPEAT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # The repeat's sweep workers share its process group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"crashed": f"timed out after {REPEAT_TIMEOUT_S:g}s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = " | ".join(stderr.strip().splitlines()[-3:])
    return {"crashed": f"exit code {proc.returncode}, no result: {tail}"}


def describe(samples: list[float]) -> dict:
    """Median, quartiles, min/max and count of a sample list.

    Quartiles use the inclusive method (numpy's default): for five samples
    they are the second and fourth values, so a single outlying repeat on
    either side does not widen the spread.
    """
    if not samples:
        return {"median": None, "q1": None, "q3": None, "min": None,
                "max": None, "n": 0, "samples": []}
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": list(samples),
    }


def per_layer(outcome: dict, untraced_unit_s: float | None) -> dict:
    """Per-layer metrics of a traced repeat: self time and calls of every
    wrapped function, the program's own counters, and ratios of them."""
    counters = outcome["counters"]
    extras = outcome["extras"]
    metrics = dict(outcome["layers"])
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    games = counters.get("fig3.cascade.games", 0)
    escalations = counters.get("admm.escalations", 0)
    lookups = counters.get("cache.hit", 0) + counters.get("cache.miss", 0)
    metrics.update(
        {
            "fig3.screened_frac": (
                1.0 - counters.get("fig3.cascade.sdp", 0) / games if games else 0.0
            ),
            "admm.iterations_per_escalation": (
                counters.get("admm.iterations", 0) / escalations
                if escalations
                else 0.0
            ),
            "exec.cache_hit_rate": (
                counters.get("cache.hit", 0) / lookups if lookups else 0.0
            ),
            "exec.worker_busy_s": extras.get("worker_busy_s", 0.0),
            "exec.worker_utilization": extras.get("worker_utilization", 0.0),
            "trace.overhead_pct": (
                100.0 * (outcome["unit_s"] / untraced_unit_s - 1.0)
                if untraced_unit_s
                else 0.0
            ),
        }
    )
    return metrics


def summarize(
    workload: str, seed: int, outcomes: list[dict], traced: dict | None = None
) -> dict:
    """The workload record: end-to-end metric statistics over the untraced
    repeats, check tallies over every repeat, per-layer metrics from the
    traced one.

    Each finished repeat contributes its own checks plus, after the first,
    ``repeat_identical`` (its output digest equals the first one's; the
    traced repeat must match too). A crashed repeat counts every check it
    would have made as failed, so a workload whose repeats all crash has
    ``fail_frac`` 1.
    """
    runs = outcomes + ([traced] if traced is not None else [])
    finished = [o for o in runs if "crashed" not in o]
    per_repeat = len(finished[0]["checks"]) + 1 if finished else 1
    attempted = failed = 0
    failures = []
    for index, outcome in enumerate(runs):
        if "crashed" in outcome:
            attempted += per_repeat
            failed += per_repeat
            failures.append(f"repeat {index}: crashed ({outcome['crashed']})")
            continue
        checks = dict(outcome["checks"])
        if outcome is not finished[0]:
            checks["repeat_identical"] = outcome["digest"] == finished[0]["digest"]
        attempted += len(checks)
        for name, passed in checks.items():
            if not passed:
                failed += 1
                failures.append(f"repeat {index}: {name}")
    good = [o for o in outcomes if "crashed" not in o]
    record = {
        "workload": workload,
        "seed": seed,
        "repeats": len(outcomes),
        "crashed": sum("crashed" in o for o in runs),
        "checks": {"attempted": attempted, "failed": failed, "failures": failures},
        "metrics": {
            "setup_s": {"unit": "s", **describe([o["setup_s"] for o in good])},
            "throughput": {
                "unit": finished[0]["unit"] if finished else "items/s",
                **describe([o["throughput"] for o in good]),
            },
            "peak_rss_mib": {
                "unit": "MiB",
                **describe([o["peak_rss_mib"] for o in good]),
            },
            "fail_frac": {
                "unit": "failed/attempted",
                **describe([failed / attempted if attempted else 1.0]),
            },
        },
        "unit_s": describe([o["unit_s"] for o in good]),
        "wall_s": sum(o.get("wall_s", 0.0) for o in runs),
        "extras": {
            name: statistics.median(o["extras"][name] for o in good)
            for name in (good[0]["extras"] if good else {})
        },
        "env": finished[0]["env"] if finished else {},
    }
    if traced is not None and "crashed" not in traced:
        record["layers"] = per_layer(traced, record["unit_s"]["median"])
    return record


def _timed_repeat(workload: str, seed: int, index: int, **options) -> dict:
    started = time.monotonic()
    outcome = run_repeat(workload, seed, index, **options)
    outcome["wall_s"] = time.monotonic() - started
    return outcome


def run_set(
    workloads, seed: int, *, repeats: int = 5, seconds: float = 0.0,
    trace: bool = False,
) -> dict:
    """Run the named workloads and return the set record.

    Repeats go round-robin over the workloads, ``repeats`` rounds and more
    while less than ``seconds`` of wall time has passed, so a slow spell of
    the host lands on a few repeats of every workload rather than on all
    repeats of one; the median then absorbs it. With ``trace`` set, one
    traced repeat per workload follows.
    """
    started = time.monotonic()
    outcomes: dict[str, list[dict]] = {name: [] for name in workloads}
    rounds = 0
    while rounds < repeats or time.monotonic() - started < seconds:
        for name in workloads:
            outcomes[name].append(_timed_repeat(name, seed, rounds))
        rounds += 1
    traced: dict[str, dict] = {}
    if trace:
        spans_dir = RESULTS / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for name in workloads:
            traced[name] = _timed_repeat(
                name,
                seed,
                rounds,
                trace=True,
                spans_out=spans_dir / f"{name}-seed{seed}.json",
            )
    records = {
        name: summarize(name, seed, outcomes[name], traced.get(name))
        for name in workloads
    }
    env = next((r["env"] for r in records.values() if r["env"]), {})
    return {
        "schema": 1,
        "seed": seed,
        "trace": trace,
        "repeats": repeats,
        "env": env,
        "wall_s": time.monotonic() - started,
        "workloads": records,
    }


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    """The one-line result for a single workload: check tallies plus every
    end-to-end metric of ``BENCHMARK.json`` (or, traced, every per-layer
    one) with its unit."""
    if trace:
        values = record.get("layers", {})
        wanted = spec["per_layer"]
    else:
        values = {
            name: entry["median"] for name, entry in record["metrics"].items()
        }
        wanted = spec["end_to_end"]
    checks = record["checks"]
    return {
        "correct": checks["failed"] == 0 and checks["attempted"] > 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            entry["name"]: {"value": values.get(entry["name"]), "unit": entry["unit"]}
            for entry in wanted
        },
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def format_set(record: dict) -> str:
    """Human-readable table of a set record: each end-to-end metric by name
    with its unit, median, quartiles and sample count, the check tally and,
    for a traced set, the layers with the most self time."""
    lines = [
        f"seed {record['seed']}  backend {record['env'].get('backend', '?')}  "
        f"git {str(record['env'].get('git_sha', '?'))[:12]}  "
        f"wall {record['wall_s']:.1f}s",
        f"{'workload':<17} {'metric':<13} {'median':>12} {'q1':>11} "
        f"{'q3':>11} {'n':>3}  unit",
    ]
    for name, wl in record["workloads"].items():
        for metric, entry in wl["metrics"].items():
            lines.append(
                f"{name:<17} {metric:<13} {_fmt(entry['median']):>12} "
                f"{_fmt(entry['q1']):>11} {_fmt(entry['q3']):>11} "
                f"{entry['n']:>3}  {entry['unit']}"
            )
        checks = wl["checks"]
        lines.append(
            f"{name:<17} checks {checks['attempted'] - checks['failed']}"
            f"/{checks['attempted']} passed, {wl['wall_s']:.1f}s in all repeats"
            + "".join(f"\n    FAILED {f}" for f in checks["failures"])
        )
        layers = wl.get("layers")
        if layers:
            unit = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            ranked = sorted(
                (k for k in layers if k.endswith(".self_s")),
                key=layers.get,
                reverse=True,
            )[:6]
            lines.append(
                f"{name:<17} traced: "
                + ", ".join(
                    f"{k[:-7]} {100 * layers[k] / unit:.0f}%" for k in ranked
                )
                + f"; overhead {layers['trace.overhead_pct']:+.1f}%"
            )
    return "\n".join(lines)
