"""The kernel contract every array backend implements.

An :class:`ArrayBackend` bundles the small set of hot kernels the
dispatch sites need. Inputs and outputs are always NumPy ndarrays at
the boundary — a backend is free to move data to its own device or
representation internally, but what it hands back must be host arrays,
so callers never grow backend-specific branches.

Kernel semantics (the NumPy implementations in
:mod:`repro.backend.numpy_backend` are the reference — alternative
backends must match them):

``serve_chunk``
    Advance the Fig 4 count-only server model over one chunk of
    timesteps. The state is the ``(M,)`` per-server queued counts of
    each type; each step adds the step's arrival counts, then every
    server takes ``min(queued_c, 2)`` type-C tasks (``min(queued_c, 1)``
    under the serial discipline), or one type-E task if it has no
    type-C. Which tasks are served never matters here: each type is
    FIFO, so the engine recovers queueing delays from arrival counts
    alone (see :mod:`repro.lb.engine`). The kernel returns the served
    count, the sum of serving steps over served tasks, and the running
    ``queue_length_sum``. The running sum is carried *through* the
    kernel (in and out), so its float addition sequence — and therefore
    the result — is bit-identical across chunk sizes and backends.

``searchsorted_right``
    ``np.searchsorted(table, values, side="right")`` for a sorted 1-D
    ``table``. Exact integer results are required (binary search on the
    same float comparisons), not approximations. It was the Born-table
    outcome lookup of the paired policies; they now descend each draw's
    own table block with :func:`repro.lb.policies.born_outcomes` and
    call no backend kernel. The field stays because the benchmark
    suite's tracer wraps every kernel name it lists by attribute, so
    removing it would break traced runs; it can go, with both
    implementations, once the suite stops listing it.

``project_psd_batch``
    Project every slice of a ``(B, n, n)`` stack onto the PSD cone
    (symmetrize, eigendecompose, clip negative eigenvalues,
    reconstruct). Backends may decompose slice-by-slice or stacked;
    agreement is to LAPACK tolerance rather than bit-exact, and the
    SDP parity suites bound the difference explicitly.

``frobenius_batch``
    Frobenius norm of every slice of a ``(B, n, n)`` stack — the ADMM
    residual check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["ArrayBackend"]


@dataclass(frozen=True)
class ArrayBackend:
    """A named bundle of hot-kernel implementations.

    Attributes:
        name: registry name (``"numpy"``, ``"numba"``, ...).
        serve_chunk: Fig 4 count-only server kernel (see module doc).
        searchsorted_right: sorted-table right-bisect lookup (no
            caller in the package; see the module doc).
        project_psd_batch: batched PSD cone projection.
        frobenius_batch: batched Frobenius norms.
    """

    name: str
    serve_chunk: Callable
    searchsorted_right: Callable
    project_psd_batch: Callable
    frobenius_batch: Callable

    def __repr__(self) -> str:  # keep logs/manifests short
        return f"ArrayBackend({self.name!r})"
