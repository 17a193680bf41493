"""Chunk draws and the streaming engine for the Fig 4 timestep simulation.

Both engines of :func:`repro.lb.simulation.run_timestep_simulation`
take their timesteps in chunks of :func:`resolve_chunk_steps` steps,
and both draw each chunk the same way, in :func:`draw_chunk`: the
workload's ``(chunk, N)`` task matrix (``draw_batch``), then the
policy's server choices for it in one shot (``assign_batch``; the
built-in policies return int32 choices), validated once. So a seed
gives both engines the same tasks and the same choices, and they differ
only in how they serve them. The reference engine appends each chunk to
per-server deques and serves it task by task. This module's vectorized
engine serves the same chunk from counts:

1. **Chunked arrival counts** — each chunk's per-(step, server) arrival
   counts by type come from a ``bincount`` over the ``(step, type,
   server)`` cells of each block of steps, written straight into the
   window; the task and choice matrices are freed before the chunk is
   served.
2. **Count-only server model** — which server serves how many tasks of
   which type each step depends only on its queued counts:
   ``take_c = min(queued_c, 2)`` (1 under "serial") and
   ``take_e = (queued_c == 0) & (queued_e > 0)``. So the serve kernel
   keeps nothing but the ``(M,)`` queued counts of each type.
3. **Waits from FIFO ranks** — each (server, type) queue is FIFO, so
   the tasks queued after step ``T`` are that queue's last ``q``
   arrivals. With ``Q(T)`` the sum of their arrival steps, the waits
   of the tasks served in steps ``[W, E]`` (warmup ``W``, last step
   ``E``) sum exactly, in integers, to
   ``sum_t t*served_t - (N * sum_t t - Q(E) + Q(W-1))``. The engine
   keeps per-step arrival counts in a sliding *window* (row ``j`` is
   arrival step ``base + j``; counts are never decremented) and reads
   ``Q`` from it twice per run. No cell exceeds a step's ``N``
   arrivals, so the window holds them in the narrowest signed integer
   type that holds ``N`` (:func:`window_dtype`: int16 at 10^4
   balancers). The window's dead prefix — rows older than every queued
   task — is compacted away when a chunk does not fit, so peak memory
   is ``O(M * (queue-age span + chunk))`` instead of ``O(M *
   timesteps)`` (the ``engine.window_bytes`` gauge records the peak).
   Chunks are split at the warmup step, so ``Q(W-1)`` is read between
   two kernel calls.
4. **One kernel table** — the per-chunk serve loop is the
   ``serve_chunk`` kernel of the table :func:`repro.backend.get_backend`
   returns, looked up once per run, so a table the benchmark suite's
   tracer puts in place is the one that runs.

Memory: every pass over a chunk — the workload's and the policies'
float64 uniform draws, the bincount, the window scan, and the paired,
group and degraded policies' Born sampling — walks it in blocks of at
most :data:`~repro._blocks.SCAN_BLOCK_CELLS` cells
(:func:`~repro._blocks.block_rows`). Each uniform block goes straight
into its narrow result (task bits or classes, liveness, choices), and
consecutive blocks draw the doubles of one whole-chunk call. So a chunk
holds only the window, its narrow draws, its choices and ``O(block)``
scratch, not ``O(chunk * width)``. The narrow draws are chunk-wide
because a later draw comes between them and their use: a group policy
draws all of a chunk's ``s0``, then all its ``s1``, then its uniforms,
and routes each block with all three.

Metric equivalence: for a fixed task and choice matrix the count-only
model serves the same number of tasks of each type per server each
step as the deques, and the FIFO-rank identity gives the same wait
total. So under the two disciplines it runs, ``SimulationResult`` — a
degraded policy's report included — is bit-identical across engines for
every policy, seed and chunk size.

Two cases still need the reference loop, which ``engine="auto"`` picks
(:func:`vectorization_unsupported_reason`):

- the ``"fifo"`` discipline serves strictly by head of line, so which
  task a server takes depends on the order of types in its queue, not
  only on its counts;
- a policy that reads queue feedback (``observe_queues``, e.g.
  power-of-two choices) must see the queues after every step, so its
  chunks are one step long and the engine serves each before the next
  is drawn.

Task matrices are *integer class* matrices: 0 is type-E and any nonzero
value a type-C class, so the ``(2,)*k`` group-output and
multi-class-input policies stream through the same ``draw_batch ->
assign_batch`` path as the binary ones. Per-seed values depend on the
chunk size for the group, dedicated-pool and degraded policies (they
draw each kind of number a chunk at a time); uniform random and round
robin draw the same numbers under any chunking. The default chunk of
:data:`DEFAULT_CHUNK_STEPS` steps keeps runs up to 2048 steps —
including every paper-scale Fig 4 point — in a single chunk.
"""

from __future__ import annotations

import time

import numpy as np

from repro._blocks import block_rows
from repro.backend import get_backend
from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.obs.spans import span

__all__ = [
    "DEFAULT_CHUNK_STEPS",
    "VECTORIZED_DISCIPLINES",
    "draw_chunk",
    "resolve_chunk_steps",
    "run_vectorized",
    "vectorization_unsupported_reason",
    "window_dtype",
]

#: Service disciplines the array server model reproduces exactly.
VECTORIZED_DISCIPLINES = ("paper", "serial")

#: Default timesteps per chunk. Chosen so paper-scale runs (≤ 2000
#: steps) execute as a single chunk while production-scale runs stream.
DEFAULT_CHUNK_STEPS = 2048

#: Cap on ``chunk * max(N, M)`` cells for the *default* chunk size, so
#: huge fleets shrink the chunk instead of materializing multi-GB draw
#: and arrival matrices. An explicit ``chunk_steps`` is always honored.
CHUNK_CELL_BUDGET = 1 << 22


def vectorization_unsupported_reason(policy, discipline) -> str | None:
    """Why this (policy, discipline) needs the reference loop, or None.

    ``engine="auto"`` falls back to the reference loop whenever this
    returns a reason; ``engine="vectorized"`` raises it.
    """
    if discipline not in VECTORIZED_DISCIPLINES:
        return (
            f"discipline {discipline!r} interleaves task types at the head "
            f"of line; vectorized supports {VECTORIZED_DISCIPLINES}"
        )
    if policy.needs_queue_feedback():
        return (
            f"policy {type(policy).__name__} consumes per-step queue "
            "feedback (observe_queues)"
        )
    return None


def resolve_chunk_steps(
    chunk_steps: int | None, timesteps: int, num_balancers: int, num_servers: int
) -> int:
    """The chunk size a run will use, on either engine.

    An explicit ``chunk_steps`` wins verbatim (tests use tiny chunks to
    force window compaction). The default is
    :data:`DEFAULT_CHUNK_STEPS`, shrunk for very wide systems so the
    per-chunk draw/arrival matrices stay within
    :data:`CHUNK_CELL_BUDGET` cells. The reference loop draws a policy
    that reads queue feedback one step at a time instead.
    """
    if chunk_steps is not None:
        if chunk_steps < 1:
            raise ConfigurationError(f"chunk_steps must be >= 1, got {chunk_steps}")
        return min(chunk_steps, timesteps)
    width = max(num_balancers, num_servers, 1)
    budgeted = max(1, CHUNK_CELL_BUDGET // width)
    return min(DEFAULT_CHUNK_STEPS, budgeted, timesteps)


def window_dtype(num_balancers: int) -> np.dtype:
    """The window's cell type: the narrowest signed integer that holds N.

    A cell counts one step's arrivals of one type at one server, so it
    never exceeds the ``num_balancers`` tasks of a step: int8 up to 127
    balancers, int16 up to 32,767, int32 up to 2**31 - 1.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if num_balancers <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _queued_arrivals(window, queued, rows):
    """Where each server's queued tasks arrived, read from the window.

    Each (server, type) queue is FIFO, so its ``q`` queued tasks are its
    last ``q`` arrivals. Walks window rows ``[0, rows)`` newest first,
    block by block, until every queue is covered.

    Args:
        window: ``(capacity, 2, M)`` arrival counts, row ``j`` holding
            arrival step ``base + j``.
        queued: ``(2, M)`` queued counts after step ``base + rows - 1``.
        rows: window rows that hold arrivals up to that step.

    Returns:
        ``(row_sum, oldest)``: the sum of window row indices over every
        queued task, and the oldest row holding a queued task (``rows``
        when nothing is queued).
    """
    flat = window.reshape(window.shape[0], -1)
    remaining = queued.reshape(-1).astype(np.int64)
    block = block_rows(flat.shape[1])
    row_sum = 0
    oldest = rows
    hi = rows
    while hi > 0 and remaining.any():
        lo = max(0, hi - block)
        counts = flat[lo:hi][::-1]
        newer = np.cumsum(counts, axis=0) - counts
        live = np.clip(remaining - newer, 0, counts)
        per_row = live.sum(axis=1)
        hit = np.flatnonzero(per_row)
        if hit.size:
            oldest = hi - 1 - int(hit[-1])
        row_sum += int(np.arange(hi - 1, lo - 1, -1) @ per_row)
        remaining -= live.sum(axis=0)
        hi = lo
    return row_sum, oldest


def _queued_step_sum(window, queued, base, step):
    """Sum of arrival steps over every task queued after ``step``."""
    row_sum, _ = _queued_arrivals(window, queued, step + 1 - base)
    return row_sum + base * int(queued.sum())


def _compact_and_fit(window, queued, base, start, end):
    """Make the window cover arrival steps ``[base', end)``.

    First drops the dead prefix — rows before the oldest arrival still
    queued (or before ``start`` when all queues are empty) — then grows
    the array geometrically if the chunk still does not fit.

    Returns ``(window, base)``.
    """
    capacity = window.shape[0]
    if end - base <= capacity:
        return window, base

    used = start - base
    _, shift = _queued_arrivals(window, queued, used)
    if shift > 0:
        window[: used - shift] = window[shift:used]
        base += shift
        used -= shift

    needed = end - base
    if needed > capacity:
        grown = np.zeros((max(needed, 2 * capacity),) + window.shape[1:],
                         dtype=window.dtype)
        grown[:used] = window[:used]
        window = grown
    return window, base


def draw_chunk(policy, workload, workload_rng, policy_rng, steps):
    """Draw one chunk: its ``(steps, N)`` task and choice matrices.

    The one draw step of both engines: ``workload.draw_batch``, then
    ``policy.assign_batch`` on those tasks, with the shapes and the
    server range checked once per chunk.
    """
    tasks = np.asarray(workload.draw_batch(workload_rng, steps))
    if tasks.shape != (steps, policy.num_balancers):
        raise ConfigurationError(
            f"workload batch shape {tasks.shape} != "
            f"({steps}, {policy.num_balancers})"
        )
    choices = np.asarray(policy.assign_batch(tasks, policy_rng))
    if choices.shape != tasks.shape:
        raise ConfigurationError(
            f"policy batch shape {choices.shape} != {tasks.shape}"
        )
    if choices.min() < 0 or choices.max() >= policy.num_servers:
        bad = choices[(choices < 0) | (choices >= policy.num_servers)]
        raise ConfigurationError(
            f"policy chose invalid server {int(bad.ravel()[0])}"
        )
    return tasks, choices


def _draw_arrivals(rows, policy, workload, workload_rng, policy_rng):
    """Draw one chunk and write its arrival counts into ``rows``.

    ``rows`` is the chunk's ``(steps, 2, M)`` window slice. The chunk's
    task and choice matrices live only here, so they are freed before
    the chunk is served and the next one drawn. Each block of steps is
    one bincount over its (step, type, server) cells, cell
    ``(2 * step + is_e) * M + choice``, written straight into its rows,
    so the cells and bins take O(:data:`~repro._blocks.SCAN_BLOCK_CELLS`)
    memory whatever the chunk. The cells are intp, the index type bincount
    reads without a copy.
    """
    steps, _, num_servers = rows.shape
    task_bits, choices = draw_chunk(
        policy, workload, workload_rng, policy_rng, steps
    )
    bins = 2 * num_servers
    block = block_rows(max(choices.shape[1], bins))
    offsets = bins * np.arange(min(block, steps), dtype=np.intp)[:, None]
    for lo in range(0, steps, block):
        hi = min(lo + block, steps)
        cell = np.multiply(task_bits[lo:hi] == 0, num_servers, dtype=np.intp)
        cell += choices[lo:hi]
        cell += offsets[: hi - lo]
        rows[lo:hi] = np.bincount(
            cell.ravel(), minlength=(hi - lo) * bins
        ).reshape(hi - lo, 2, num_servers)


def run_vectorized(
    policy,
    workload,
    workload_rng,
    policy_rng,
    *,
    timesteps: int,
    discipline: str,
    warmup: int,
    max_total_queue: float,
    chunk_steps: int | None = None,
):
    """Run the chunked streaming engine; returns a ``SimulationResult``.

    The caller (:func:`repro.lb.simulation.run_timestep_simulation`)
    validates arguments and checks support via
    :func:`vectorization_unsupported_reason` first.

    Args:
        chunk_steps: timesteps per streamed chunk; ``None`` for the
            adaptive default (see :func:`resolve_chunk_steps`).
    """
    from repro.lb.simulation import SimulationResult

    kernels = get_backend()
    num_servers = policy.num_servers
    num_balancers = policy.num_balancers
    chunk = resolve_chunk_steps(chunk_steps, timesteps, num_balancers, num_servers)

    # Count-only server model: row j of the window holds step base + j's
    # per-server arrival counts (type-C, type-E); queued holds the
    # per-server queued counts (row 0 type-C, row 1 type-E).
    window = np.zeros(
        (chunk, 2, num_servers), dtype=window_dtype(num_balancers)
    )
    queued = np.zeros((2, num_servers), dtype=np.int64)
    base = 0

    total_queued = 0
    queue_length_sum = 0.0
    served = 0
    served_step_sum = 0
    queued_steps_at_warmup = 0
    executed = 0
    chunks = 0
    peak_window_bytes = window.nbytes
    serve_two_c = discipline == "paper"
    stopped = False
    clock_start = time.perf_counter()

    while executed < timesteps and not stopped:
        start = executed
        end = min(start + chunk, timesteps)
        steps = end - start
        with span("engine.chunk", start=start, steps=steps) as chunk_span:
            window, base = _compact_and_fit(window, queued, base, start, end)
            window_bytes = window.nbytes
            peak_window_bytes = max(peak_window_bytes, window_bytes)
            rows = window[start - base:end - base]
            _draw_arrivals(rows, policy, workload, workload_rng, policy_rng)

            # Split the chunk at the warmup step, so every kernel call is
            # all warmup (its accounting is dropped) or all measured.
            bounds = [start, warmup, end] if start < warmup < end else [start, end]
            for lo, hi in zip(bounds, bounds[1:]):
                measuring = lo >= warmup
                (steps_done, total_queued, part_served, part_step_sum,
                 part_queue_sum, stopped) = kernels.serve_chunk(
                    rows[lo - start:hi - start, 0],
                    rows[lo - start:hi - start, 1],
                    queued[0], queued[1],
                    lo, num_balancers, serve_two_c, max_total_queue,
                    total_queued, queue_length_sum if measuring else 0.0,
                )
                executed += steps_done
                if measuring:
                    served += part_served
                    served_step_sum += part_step_sum
                    queue_length_sum = part_queue_sum
                elif executed == warmup:
                    queued_steps_at_warmup = _queued_step_sum(
                        window, queued, base, warmup - 1
                    )
                if stopped:
                    break
            chunks += 1
            chunk_span.attributes["executed"] = executed - start
            chunk_span.attributes["window_bytes"] = window_bytes
    wall = time.perf_counter() - clock_start

    # Each type is FIFO, so the tasks served in [warmup, last] are those
    # queued after warmup - 1 plus that span's arrivals, minus those
    # still queued after last. Their waits are serving step minus
    # arrival step, summed exactly in integers.
    measured_steps = max(0, executed - warmup)
    wait_sum = 0
    if measured_steps:
        last = executed - 1
        arrival_step_sum = (
            num_balancers * (warmup + last) * measured_steps // 2
            + queued_steps_at_warmup
            - _queued_step_sum(window, queued, base, last)
        )
        wait_sum = served_step_sum - arrival_step_sum

    # Degraded policies drew liveness for the chunked steps up front;
    # tell them how many steps actually executed, as the reference loop
    # does, when max_total_queue stops a run early.
    if hasattr(policy, "note_executed_steps"):
        policy.note_executed_steps(executed)

    registry = get_registry()
    if registry.enabled:
        registry.counter("engine.vectorized.batches").inc()
        registry.counter("engine.vectorized.chunks").inc(chunks)
        registry.counter("engine.vectorized.steps").inc(executed)
        if executed < timesteps:
            registry.counter("engine.vectorized.early_stops").inc()
        registry.gauge("engine.window_bytes").set(float(peak_window_bytes))
        if wall > 0.0:
            registry.gauge("engine.steps_per_sec").set(executed / wall)

    mean_queue = queue_length_sum / max(1, measured_steps)
    mean_wait = wait_sum / served if served else 0.0
    return SimulationResult(
        mean_queue_length=mean_queue,
        mean_queueing_delay=mean_wait,
        served=served,
        arrived=num_balancers * measured_steps,
        timesteps=measured_steps,
        load=num_balancers / num_servers,
    )
