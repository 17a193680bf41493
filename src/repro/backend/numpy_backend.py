"""Reference NumPy implementations of the backend kernel contract.

These are the semantics every other backend must match (see
:mod:`repro.backend.base`). The serve kernel is the count-only server
model: each step it touches nothing but the per-server queued counts.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend

__all__ = ["make_backend", "serve_chunk", "searchsorted_right"]


def serve_chunk(
    arrivals_c,
    arrivals_e,
    queued_c,
    queued_e,
    start,
    num_balancers,
    serve_two_c,
    max_total_queue,
    total_queued,
    queue_length_sum,
):
    """Advance the count-only server model over one chunk of timesteps.

    Args:
        arrivals_c / arrivals_e: ``(chunk, M)`` per-step, per-server
            arrival counts by type.
        queued_c / queued_e: ``(M,)`` per-server queued counts by type,
            updated in place.
        start: absolute step of chunk row 0.
        num_balancers: arrivals per step.
        serve_two_c: "paper" discipline (two type-C per step) when True,
            "serial" (one task per step, C first) when False.
        max_total_queue: early-stop threshold on the system-wide queue.
        total_queued: system-wide queued count carried in from the
            previous chunk.
        queue_length_sum: running queue-length accumulator carried in
            from the previous chunk. Accumulating *inside* the kernel
            keeps the float addition sequence identical to a monolithic
            run, so results are bit-identical across chunk sizes.

    Returns:
        ``(steps_done, total_queued, served, served_step_sum,
        queue_length_sum, stopped)``: ``served_step_sum`` is the sum of
        the serving step over every served task, and ``stopped`` flags a
        ``max_total_queue`` early stop after ``steps_done`` steps.
    """
    num_servers = queued_c.shape[0]
    cap_c = 2 if serve_two_c else 1
    served = 0
    served_step_sum = 0
    stopped = False
    steps_done = 0

    for offset in range(arrivals_c.shape[0]):
        queued_c += arrivals_c[offset]
        queued_e += arrivals_e[offset]
        take_e = (queued_c == 0) & (queued_e > 0)
        take_c = np.minimum(queued_c, cap_c)
        queued_c -= take_c
        queued_e -= take_e
        step_served = int(take_c.sum()) + int(np.count_nonzero(take_e))

        total_queued += num_balancers - step_served
        served += step_served
        served_step_sum += (start + offset) * step_served
        queue_length_sum += total_queued / num_servers
        steps_done += 1
        if total_queued > max_total_queue:
            stopped = True
            break

    return (
        steps_done,
        total_queued,
        served,
        served_step_sum,
        queue_length_sum,
        stopped,
    )


def searchsorted_right(table, values):
    """``np.searchsorted(table, values, side="right")`` verbatim."""
    return np.searchsorted(table, values, side="right")


def project_psd_batch(matrices):
    """PSD-project every slice of a ``(B, n, n)`` stack (stacked eigh)."""
    sym = (matrices + np.swapaxes(matrices, -1, -2)) / 2.0
    eigs, vecs = np.linalg.eigh(sym)
    clipped = eigs.clip(min=0.0)
    return (vecs * clipped[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def frobenius_batch(matrices):
    """Frobenius norm of every matrix in a ``(B, n, n)`` stack."""
    return np.sqrt(np.einsum("bij,bij->b", matrices, matrices))


def make_backend() -> ArrayBackend:
    """The reference backend instance."""
    return ArrayBackend(
        name="numpy",
        serve_chunk=serve_chunk,
        searchsorted_right=searchsorted_right,
        project_psd_batch=project_psd_batch,
        frobenius_batch=frobenius_batch,
    )
