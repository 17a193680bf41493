"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper (see
DESIGN.md's per-experiment index) and prints it, so the
``pytest benchmarks/ --benchmark-only`` output is the reproduction
record. ``REPRO_BENCH_SCALE`` (default 1.0) scales sample counts: set it
above 1 for tighter statistics, below 1 for a faster smoke run.

Result blocks are written to the *real* stdout (bypassing pytest's
capture, so they appear without ``-s``) and appended to the report file
named by ``REPRO_BENCH_REPORT`` (default ``bench_report.txt`` in the
working directory). Appends take an ``fcntl`` advisory lock around a
single buffered write, so concurrent benchmark processes (e.g.
``REPRO_JOBS``-parallel sweeps, or several pytest invocations sharing a
report) never interleave partial blocks.

Sweep-style benchmarks route execution through
:class:`repro.exec.SweepRunner`; :func:`sweep_jobs` and
:func:`sweep_cache` pick up the worker count (``REPRO_JOBS``) and
result-cache toggle (``REPRO_SWEEP_CACHE``, default on) from the
environment.
"""

from __future__ import annotations

import os
import sys

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "scaled",
    "print_block",
    "sweep_jobs",
    "sweep_cache",
    "SCALE_LADDER",
    "scale_tier",
    "ladder",
]


def scaled(base: int, minimum: int = 1) -> int:
    """Scale a sample count by ``REPRO_BENCH_SCALE``."""
    factor = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return max(minimum, int(round(base * factor)))


#: The shared scale ladder for the two hot-kernel benchmarks
#: (``bench_engine_speed`` and ``bench_fig3_batched_cascade``). Each
#: tier names one consistent set of sizes so "the production point" is
#: the same thing in CI, in the docs, and in the trajectory JSONs:
#:
#: - ``smoke`` — CI perf-smoke sizes; seconds per benchmark.
#: - ``paper`` — the default: paper-scale Fig 3/Fig 4 points plus the
#:   large streaming point at a bounded step count (~1 min).
#: - ``production`` — the ISSUE 7 scale-up: N=10^4 balancers x 10^6
#:   timesteps streamed through the chunked engine (~tens of minutes).
SCALE_LADDER = {
    "smoke": {
        "stream_balancers": 1_000,
        "stream_servers": 1_250,
        "stream_timesteps": 2_000,
        "fig3_sizes": (6,),
        "fig3_games": 60,
        "group_balancers": 48,
        "group_timesteps": 400,
        "group_sizes": (3,),
        "group_loads": (0.9, 1.2, 1.5),
        "nonlocal_restarts": 3,
        "nonlocal_iterations": 120,
        "nonlocal_cascade_games": 6,
    },
    "paper": {
        "stream_balancers": 10_000,
        "stream_servers": 12_500,
        "stream_timesteps": 20_000,
        "fig3_sizes": (6, 7, 8),
        "fig3_games": 420,
        "group_balancers": 240,
        "group_timesteps": 2_000,
        "group_sizes": (3, 4),
        "group_loads": (0.8, 1.0, 1.2, 1.5),
        "nonlocal_restarts": 5,
        "nonlocal_iterations": 200,
        "nonlocal_cascade_games": 24,
    },
    "production": {
        "stream_balancers": 10_000,
        "stream_servers": 12_500,
        "stream_timesteps": 1_000_000,
        "fig3_sizes": (6, 7, 8),
        "fig3_games": 420,
        "group_balancers": 960,
        "group_timesteps": 10_000,
        "group_sizes": (3, 4, 5),
        "group_loads": (0.8, 1.0, 1.2, 1.5),
        "nonlocal_restarts": 8,
        "nonlocal_iterations": 300,
        "nonlocal_cascade_games": 96,
    },
}


def scale_tier() -> str:
    """The active rung of :data:`SCALE_LADDER`.

    ``REPRO_BENCH_TIER`` picks a rung by name; otherwise the tier
    follows ``REPRO_BENCH_SCALE`` (sub-1 smoke runs get the ``smoke``
    rung, everything else ``paper``). ``production`` is never implied —
    it must be requested explicitly.
    """
    tier = os.environ.get("REPRO_BENCH_TIER", "").strip().lower()
    if tier:
        if tier not in SCALE_LADDER:
            raise ValueError(
                f"REPRO_BENCH_TIER={tier!r} is not one of "
                f"{sorted(SCALE_LADDER)}"
            )
        return tier
    factor = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return "paper" if factor >= 1.0 else "smoke"


def ladder(key: str):
    """One named size from the active :data:`SCALE_LADDER` rung."""
    return SCALE_LADDER[scale_tier()][key]


def sweep_jobs() -> int:
    """Worker count for sweep benchmarks: ``REPRO_JOBS`` or CPU count."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def sweep_cache() -> bool:
    """Whether sweep benchmarks use the on-disk result cache.

    On by default; disable with ``REPRO_SWEEP_CACHE=0`` (the cache key
    covers configs, seeds, and the work function's own code, but not
    transitive imports — see ``repro.exec.cache``).
    """
    value = os.environ.get("REPRO_SWEEP_CACHE", "1").strip().lower()
    return value not in {"", "0", "false", "no", "off"}


def _append_report(path: str, block: str) -> None:
    """Append one block under an advisory lock, as a single write."""
    with open(path, "a", encoding="utf-8") as report:
        if fcntl is not None:
            fcntl.flock(report.fileno(), fcntl.LOCK_EX)
        try:
            report.write(block)
            report.flush()
        finally:
            if fcntl is not None:
                fcntl.flock(report.fileno(), fcntl.LOCK_UN)


def print_block(title: str, body: str) -> None:
    """Emit a delimited result block to the real stdout and the report file."""
    bar = "=" * 72
    block = f"\n{bar}\n{title}\n{bar}\n{body}\n"
    stream = getattr(sys, "__stdout__", None) or sys.stdout
    stream.write(block)
    stream.flush()
    report_path = os.environ.get("REPRO_BENCH_REPORT", "bench_report.txt")
    if report_path:
        _append_report(report_path, block)
