"""Trace helpers shared by the trace and engine test suites."""

from __future__ import annotations

import numpy as np

from repro.net.packet import TaskType
from repro.net.trace import Trace
from repro.net.workload import BernoulliTaskMix


def record_bernoulli_trace(
    num_balancers: int,
    num_rounds: int,
    rng: np.random.Generator,
    *,
    p_colocate: float = 0.5,
) -> Trace:
    """Record ``num_rounds`` rounds of a Bernoulli workload into a
    replayable trace (one ``draw_batch``, so the same tasks as
    ``num_rounds`` one-round draws)."""
    bits = BernoulliTaskMix(num_balancers, p_colocate).draw_batch(
        rng, num_rounds
    )
    return Trace(rounds=[[TaskType.from_bit(b) for b in row] for row in bits])
