"""Numba ``@njit`` implementations of the backend kernel contract.

Import this module only when :mod:`numba` is importable — the registry
in :mod:`repro.backend` gates it behind an availability probe, so a
host without numba never touches this file.

Every kernel executes the same arithmetic as the NumPy reference in
:mod:`repro.backend.numpy_backend`, in the same order:

- ``serve_chunk`` fuses the per-step count recursion into one compiled
  loop (the NumPy path pays a few vector dispatches per timestep, the
  compiled path one call per chunk). Integer accounting is exact and
  the ``queue_length_sum`` float accumulation order matches, so results
  are bit-identical to the NumPy backend.
- ``searchsorted_right`` is a hand-rolled right-bisect with
  ``np.searchsorted(..., side="right")`` semantics (exact integer
  agreement).
- ``project_psd_batch`` eigendecomposes slice-by-slice with the same
  LAPACK driver NumPy uses; agreement is to LAPACK tolerance and is
  bounded explicitly in the parity suite.

Kernels are compiled lazily on first call and cached on disk
(``cache=True``) so sweep worker processes reuse the compilation.
"""

from __future__ import annotations

import numpy as np
from numba import njit

from repro.backend.base import ArrayBackend

__all__ = ["make_backend"]


@njit(cache=True)
def _serve_chunk_jit(
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
    num_servers = queued_c.shape[0]
    cap_c = 2 if serve_two_c else 1
    served = 0
    served_step_sum = 0
    stopped = False
    steps_done = 0

    for offset in range(arrivals_c.shape[0]):
        step_served = 0
        for s in range(num_servers):
            c = queued_c[s] + arrivals_c[offset, s]
            e = queued_e[s] + arrivals_e[offset, s]
            if c > 0:
                take = min(c, cap_c)
                c -= take
                step_served += take
            elif e > 0:
                e -= 1
                step_served += 1
            queued_c[s] = c
            queued_e[s] = e

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
    """Compiled count-only server kernel; NumPy-reference semantics."""
    (steps_done, total, served, served_step_sum, queue_length_sum,
     stopped) = _serve_chunk_jit(
        arrivals_c,
        arrivals_e,
        queued_c,
        queued_e,
        start,
        num_balancers,
        serve_two_c,
        float(max_total_queue),
        total_queued,
        float(queue_length_sum),
    )
    return (
        int(steps_done),
        int(total),
        int(served),
        int(served_step_sum),
        float(queue_length_sum),
        bool(stopped),
    )


@njit(cache=True)
def _searchsorted_right_jit(table, values):
    out = np.empty(values.size, dtype=np.int64)
    for i in range(values.size):
        v = values[i]
        lo = 0
        hi = table.size
        while lo < hi:
            mid = (lo + hi) // 2
            if v < table[mid]:
                hi = mid
            else:
                lo = mid + 1
        out[i] = lo
    return out


def searchsorted_right(table, values):
    """Right-bisect lookup matching ``np.searchsorted(side="right")``."""
    values = np.asarray(values, dtype=np.float64)
    flat = np.ascontiguousarray(values.reshape(-1))
    table = np.ascontiguousarray(np.asarray(table, dtype=np.float64))
    return _searchsorted_right_jit(table, flat).reshape(values.shape)


@njit(cache=True)
def _project_psd_batch_jit(matrices):
    num, n = matrices.shape[0], matrices.shape[1]
    out = np.empty_like(matrices)
    for b in range(num):
        sym = (matrices[b] + matrices[b].T) / 2.0
        eigs, vecs = np.linalg.eigh(sym)
        clipped = np.maximum(eigs, 0.0)
        out[b] = (vecs * clipped) @ vecs.T
    return out


def project_psd_batch(matrices):
    """Per-slice compiled PSD projection of a ``(B, n, n)`` stack."""
    return _project_psd_batch_jit(
        np.ascontiguousarray(np.asarray(matrices, dtype=np.float64))
    )


@njit(cache=True)
def _frobenius_batch_jit(matrices):
    num = matrices.shape[0]
    out = np.empty(num, dtype=np.float64)
    for b in range(num):
        acc = 0.0
        for i in range(matrices.shape[1]):
            for j in range(matrices.shape[2]):
                acc += matrices[b, i, j] * matrices[b, i, j]
        out[b] = np.sqrt(acc)
    return out


def frobenius_batch(matrices):
    """Compiled Frobenius norms of a ``(B, n, n)`` stack."""
    return _frobenius_batch_jit(
        np.ascontiguousarray(np.asarray(matrices, dtype=np.float64))
    )


def make_backend() -> ArrayBackend:
    """The numba backend instance (kernels compile on first use)."""
    return ArrayBackend(
        name="numba",
        serve_chunk=serve_chunk,
        searchsorted_right=searchsorted_right,
        project_psd_batch=project_psd_batch,
        frobenius_batch=frobenius_batch,
    )
