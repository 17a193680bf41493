"""The one block rule for passes over a chunk of timesteps.

The Fig 4 engines take their timesteps in chunks (:mod:`repro.lb.engine`),
and every pass over a chunk walks it in blocks of steps of at most
:data:`SCAN_BLOCK_CELLS` cells: the workload's and the policies' uniform
draws (:func:`uniform_blocks`), the arrival bincount, the window scan
and the Born sampling. So beyond the chunk's narrow results a pass holds
O(block) scratch, not O(chunk * width).

The rule lives here, outside :mod:`repro.net` and :mod:`repro.lb`, so a
workload draws in blocks without importing the policies. Every pass
reads :data:`SCAN_BLOCK_CELLS` through :func:`block_rows` when it runs,
so patching the constant here reaches them all.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SCAN_BLOCK_CELLS", "block_rows", "uniform_blocks"]

#: Cells per block when a pass walks the window or a chunk (bounds the
#: pass's scratch).
SCAN_BLOCK_CELLS = 1 << 18


def block_rows(width: int) -> int:
    """Rows of ``width`` cells in one block: at most
    :data:`SCAN_BLOCK_CELLS` cells, and never less than one row."""
    return max(1, SCAN_BLOCK_CELLS // width)


def uniform_blocks(rng, steps, width, rows=None):
    """The doubles of ``rng.random((steps, width))``, a block at a time.

    Yields ``(part, uniform)`` for consecutive blocks of ``rows`` rows
    (default :func:`block_rows` of ``width``): ``part`` slices the
    block's rows out of the ``steps`` and ``uniform`` holds their
    doubles. ``Generator.random`` consumes one 64-bit output per double,
    so the blocks hold exactly the doubles of the one whole call, in its
    order, and leave ``rng`` in the same state. Every block is drawn into
    one buffer, so a caller is done with a block when it takes the next.
    """
    if rows is None:
        rows = block_rows(max(width, 1))
    buffer = np.empty((min(rows, steps), width))
    for lo in range(0, steps, rows):
        uniform = buffer[: min(rows, steps - lo)]
        rng.random(out=uniform)
        yield slice(lo, lo + len(uniform)), uniform
