"""The NumPy kernel table behind the Fig 3 and Fig 4 hot loops.

The Fig 4 streaming engine (:mod:`repro.lb.engine`), the diagonal SDP
solver (:mod:`repro.sdp.batch`) and the see-saw's behavior sanitization
(:mod:`repro.games.seesaw`, through
:func:`repro.sdp.projections.project_psd_batch`) reach their inner
kernels through one :class:`ArrayBackend` table, which they look up
with :func:`get_backend` when they run: the engine once per run, the
solver once per solve.

The table is a seam for the benchmark suite's tracer
(``benchmarks/suite/tracing.py``): it wraps every kernel it lists and
puts the wrapped table in place with :func:`register_backend`. That is
why no call site binds the table at import time. ``"numpy"`` is the
only name :func:`get_backend`, :func:`register_backend` and
:func:`resolve_backend_name` accept; any other raises
:class:`~repro.errors.ConfigurationError`.

Kernels:

``serve_chunk``
    Advance the Fig 4 count-only server model over one chunk of
    timesteps. The state is the ``(M,)`` per-server queued counts of
    each type; each step adds the step's arrival counts, then every
    server takes ``min(queued_c, 2)`` type-C tasks (``min(queued_c, 1)``
    under the serial discipline), or one type-E task if it has no
    type-C. Which tasks are served never matters here: each type is
    FIFO, so the engine recovers queueing delays from arrival counts
    alone (see :mod:`repro.lb.engine`).

``searchsorted_right``
    ``np.searchsorted(table, values, side="right")``. No package code
    calls it; it stays while the suite's tracer lists it, because the
    tracer wraps every listed kernel by attribute.

``project_psd_batch``
    Project every slice of a ``(B, n, n)`` stack onto the PSD cone:
    symmetrize, one stacked ``eigh``, clip negative eigenvalues,
    reconstruct. LAPACK decomposes each slice independently.

``frobenius_batch``
    Frobenius norm of every slice of a ``(B, n, n)`` stack — the ADMM
    residual check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ArrayBackend",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]


@dataclass(frozen=True)
class ArrayBackend:
    """A named bundle of hot-kernel implementations (see the module doc)."""

    name: str
    serve_chunk: Callable
    searchsorted_right: Callable
    project_psd_batch: Callable
    frobenius_batch: Callable

    def __repr__(self) -> str:  # keep logs short
        return f"ArrayBackend({self.name!r})"


def _serve_chunk(
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


def _searchsorted_right(table, values):
    return np.searchsorted(table, values, side="right")


def _project_psd_batch(matrices):
    sym = (matrices + np.swapaxes(matrices, -1, -2)) / 2.0
    eigs, vecs = np.linalg.eigh(sym)
    clipped = eigs.clip(min=0.0)
    return (vecs * clipped[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _frobenius_batch(matrices):
    return np.sqrt(np.einsum("bij,bij->b", matrices, matrices))


_table = ArrayBackend(
    name="numpy",
    serve_chunk=_serve_chunk,
    searchsorted_right=_searchsorted_right,
    project_psd_batch=_project_psd_batch,
    frobenius_batch=_frobenius_batch,
)


def resolve_backend_name(name: str | None = None) -> str:
    """``"numpy"``, the one kernel table's name, for ``None`` or
    ``"numpy"``; any other name raises :class:`ConfigurationError`."""
    if name not in (None, "numpy"):
        raise ConfigurationError(
            f"unknown backend {name!r}; the only kernel table is 'numpy'"
        )
    return "numpy"


def get_backend(name: str | None = None) -> ArrayBackend:
    """The kernel table in place now (``name`` as for
    :func:`resolve_backend_name`)."""
    resolve_backend_name(name)
    return _table


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Put ``factory()`` in place as the kernel table (``name`` as for
    :func:`resolve_backend_name`).

    Later :func:`get_backend` calls return it. To restore the original
    table, register the one :func:`get_backend` returned before.
    """
    global _table
    resolve_backend_name(name)
    _table = factory()
