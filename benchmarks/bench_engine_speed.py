"""Engine speed: the vectorized Fig 4 engine vs the reference loop.

Times both engines on the ISSUE 2 target point (N=100 balancers, M=50
servers, 2000 timesteps, CHSH-paired policy — the hottest configuration
every load sweep, significance run, and ablation hits) plus a classical
point, and asserts the vectorized engine wins. At full scale
(``REPRO_BENCH_SCALE >= 1``) the requirement is the ISSUE's ≥5×; at
smoke scale it degrades to "not slower", which is what the CI perf gate
runs.

Each run also cross-checks the engines agree on the physics: identical
results for the exact-parity random policy and same-ballpark mean queue
lengths for CHSH.

The run also times the observability layer itself: the vectorized CHSH
point with telemetry on (the default registry) vs off
(:func:`repro.obs.disabled`), gated at <=5% overhead and recorded in the
trajectory under ``telemetry_overhead``.

The streaming scale-up section runs the chunked engine at the shared
scale ladder's ``stream_*`` point (``production``: N=10^4 balancers,
10^6 timesteps) and gates the peak sliding window below
:data:`WINDOW_BYTES_BUDGET`.

A trajectory file (``BENCH_engine.json``, override via
``REPRO_BENCH_ENGINE_JSON``) records per-repeat wall-clock times and
speedups for trend tracking; CI uploads it as an artifact.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from benchmarks._common import scale_tier, ladder, print_block, scaled
from repro.analysis import format_table
from repro.lb import (
    CHSHPairedAssignment,
    RandomAssignment,
    run_timestep_simulation,
)
from repro.lb.engine import resolve_chunk_steps
from repro.obs import disabled
from repro.obs.metrics import capture

REPEATS = 3

#: Peak sliding-window ceiling for the streaming point (acceptance
#: criterion: the production point must complete in bounded memory, not
#: the O(M x timesteps) of full materialization).
WINDOW_BYTES_BUDGET = 256 * 1024 * 1024

#: Repeats for the telemetry on/off comparison — more than the engine
#: race because the effect being measured is a few percent at most.
OVERHEAD_REPEATS = 7

#: Instrumentation overhead budget (acceptance criterion).
OVERHEAD_BUDGET_PCT = 5.0


def _time_engine(policy_factory, *, n, m, timesteps, engine):
    """Best-of-REPEATS wall clock plus the (deterministic) result."""
    times = []
    result = None
    for _ in range(REPEATS):
        policy = policy_factory(n, m)
        start = time.perf_counter()
        result = run_timestep_simulation(
            policy, timesteps=timesteps, seed=1, engine=engine
        )
        times.append(time.perf_counter() - start)
    return times, result


def _time_telemetry(*, timesteps, telemetry):
    """Time the vectorized CHSH point with the registry on or off."""
    times = []
    for _ in range(OVERHEAD_REPEATS):
        policy = CHSHPairedAssignment(100, 50)
        if telemetry:
            start = time.perf_counter()
            run_timestep_simulation(
                policy, timesteps=timesteps, seed=1, engine="vectorized"
            )
            times.append(time.perf_counter() - start)
        else:
            with disabled():
                start = time.perf_counter()
                run_timestep_simulation(
                    policy, timesteps=timesteps, seed=1, engine="vectorized"
                )
                times.append(time.perf_counter() - start)
    return times


def bench_engine_speed(benchmark):
    timesteps = scaled(2000, 120)
    full_scale = timesteps >= 2000
    points = [
        ("quantum CHSH", CHSHPairedAssignment, 100, 50),
        ("classical random", RandomAssignment, 100, 50),
    ]

    rows = []
    trajectory = {
        "benchmark": "engine_speed",
        "timesteps": timesteps,
        "repeats": REPEATS,
        "full_scale": full_scale,
        "points": [],
    }
    speedups = {}
    for name, factory, n, m in points:
        ref_times, ref_result = _time_engine(
            factory, n=n, m=m, timesteps=timesteps, engine="reference"
        )
        vec_times, vec_result = _time_engine(
            factory, n=n, m=m, timesteps=timesteps, engine="vectorized"
        )
        speedup = min(ref_times) / min(vec_times)
        speedups[name] = speedup
        rows.append(
            [name, min(ref_times), min(vec_times), speedup]
        )
        trajectory["points"].append(
            {
                "policy": name,
                "num_balancers": n,
                "num_servers": m,
                "reference_seconds": ref_times,
                "vectorized_seconds": vec_times,
                "speedup": speedup,
                "reference_mean_queue": ref_result.mean_queue_length,
                "vectorized_mean_queue": vec_result.mean_queue_length,
            }
        )
        # Physics cross-check: same model, whichever engine ran it.
        if factory is RandomAssignment:
            assert ref_result == vec_result, "exact-parity policy diverged"
        else:
            drift = abs(
                vec_result.mean_queue_length - ref_result.mean_queue_length
            )
            assert drift < max(5.0, 0.2 * ref_result.mean_queue_length), (
                "engines disagree on mean queue length"
            )

    # --- telemetry overhead: vectorized CHSH, registry on vs off ------
    on_times = _time_telemetry(timesteps=timesteps, telemetry=True)
    off_times = _time_telemetry(timesteps=timesteps, telemetry=False)
    overhead_pct = (min(on_times) / min(off_times) - 1.0) * 100.0
    trajectory["telemetry_overhead"] = {
        "policy": "quantum CHSH",
        "engine": "vectorized",
        "num_balancers": 100,
        "num_servers": 50,
        "repeats": OVERHEAD_REPEATS,
        "telemetry_on_seconds": on_times,
        "telemetry_off_seconds": off_times,
        "overhead_pct": overhead_pct,
        "budget_pct": OVERHEAD_BUDGET_PCT,
    }

    # --- streaming scale-up: the chunked engine at production size ----
    # The reference loop is not raced here: at N=10^4 it would take
    # hours. The gate is that the run completes inside the sliding-window
    # memory budget.
    tier = scale_tier()
    stream_n = ladder("stream_balancers")
    stream_m = ladder("stream_servers")
    stream_steps = ladder("stream_timesteps")
    stream_chunk = resolve_chunk_steps(None, stream_steps, stream_n, stream_m)
    with capture() as registry:
        policy = RandomAssignment(stream_n, stream_m)
        start = time.perf_counter()
        result = run_timestep_simulation(
            policy, timesteps=stream_steps, seed=1, engine="vectorized"
        )
        wall = time.perf_counter() - start
        snapshot = registry.snapshot()
    window_bytes = snapshot["gauges"]["engine.window_bytes"]
    trajectory["streaming"] = {
        "tier": tier,
        "points": [
            {
                "num_balancers": stream_n,
                "num_servers": stream_m,
                "timesteps": stream_steps,
                "chunk_steps": stream_chunk,
                "chunks": snapshot["counters"]["engine.vectorized.chunks"],
                "seconds": wall,
                "steps_per_sec": stream_steps / wall,
                "peak_window_bytes": int(window_bytes),
                "mean_queue_length": result.mean_queue_length,
            }
        ],
    }
    assert window_bytes <= WINDOW_BYTES_BUDGET, (
        f"streaming window peaked at {window_bytes / 2**20:.0f} MiB, over "
        f"the {WINDOW_BYTES_BUDGET / 2**20:.0f} MiB budget"
    )
    full_bytes = 2 * stream_m * stream_steps * np.dtype(np.int32).itemsize
    if stream_steps > stream_chunk:
        assert window_bytes < full_bytes / 4, (
            "sliding window did not stay below full materialization"
        )

    body = format_table(
        ["point", "reference s", "vectorized s", "speedup"],
        rows,
        float_format="{:.4f}",
    )
    body += (
        f"\n\ntimesteps={timesteps} (REPRO_BENCH_SCALE), best of "
        f"{REPEATS}; target: >=5x at full scale on the CHSH point"
        f"\ntelemetry overhead: {overhead_pct:+.2f}% "
        f"(budget {OVERHEAD_BUDGET_PCT:.0f}%, best of {OVERHEAD_REPEATS})"
    )
    body += "\n\nstreaming scale-up (tier '" + tier + "'):\n"
    body += format_table(
        ["seconds", "steps/s", "window MiB"],
        [[wall, stream_steps / wall, window_bytes / 2**20]],
        float_format="{:.2f}",
    )
    body += (
        f"\nN={stream_n} balancers, M={stream_m} servers, "
        f"{stream_steps} timesteps in {stream_chunk}-step chunks"
    )
    print_block("Engine speed — vectorized vs reference", body)

    out_path = os.environ.get("REPRO_BENCH_ENGINE_JSON", "BENCH_engine.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")

    for name, speedup in speedups.items():
        assert speedup >= 1.0, (
            f"vectorized engine slower than reference on {name}: {speedup:.2f}x"
        )
    if full_scale:
        assert speedups["quantum CHSH"] >= 5.0, (
            f"ISSUE 2 target missed: {speedups['quantum CHSH']:.2f}x < 5x"
        )
        # At smoke scale a single run is a few milliseconds, so timer
        # jitter swamps the few-microsecond instrumentation cost; only
        # gate where the signal is measurable.
        assert overhead_pct <= OVERHEAD_BUDGET_PCT, (
            f"telemetry overhead {overhead_pct:.2f}% exceeds "
            f"{OVERHEAD_BUDGET_PCT:.0f}% budget"
        )

    policy = CHSHPairedAssignment(100, 50)
    benchmark.pedantic(
        lambda: run_timestep_simulation(
            policy, timesteps=min(timesteps, 500), seed=1, engine="vectorized"
        ),
        rounds=3,
        iterations=1,
    )
