"""The serve kernel against a plain per-server loop.

``serve_chunk`` steps the stacked ``(2, M)`` queued counts a few ufunc
calls at a time; the loop here serves each server on its own, as the
count-only model reads: up to ``cap`` type-C tasks (2 under the paper
discipline, 1 under serial), else one type-E task. Both must agree on
every returned total, the float queue-length sum included, and on the
queued state they leave behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend

DISCIPLINES = pytest.mark.parametrize(
    "serve_two_c", [True, False], ids=["paper", "serial"]
)


def per_server_loop(
    arrivals,
    queued,
    start,
    num_balancers,
    serve_two_c,
    max_total_queue,
    total_queued,
    queue_length_sum,
):
    """The count-only model one server at a time; returns the kernel's
    tuple and the queued counts as nested lists."""
    queued = queued.tolist()
    num_servers = len(queued[0])
    cap = 2 if serve_two_c else 1
    served = served_step_sum = steps_done = 0
    stopped = False
    for offset, row in enumerate(arrivals.tolist()):
        step_served = 0
        for server in range(num_servers):
            queued[0][server] += row[0][server]
            queued[1][server] += row[1][server]
            if queued[0][server]:
                take = min(queued[0][server], cap)
                queued[0][server] -= take
            elif queued[1][server]:
                take = 1
                queued[1][server] -= 1
            else:
                take = 0
            step_served += take
        total_queued += num_balancers - step_served
        served += step_served
        served_step_sum += (start + offset) * step_served
        queue_length_sum += total_queued / num_servers
        steps_done += 1
        if total_queued > max_total_queue:
            stopped = True
            break
    result = (
        steps_done,
        total_queued,
        served,
        served_step_sum,
        queue_length_sum,
        stopped,
    )
    return result, queued


def random_chunk(rng, steps, balancers, servers):
    """``(steps, 2, M)`` int8 window rows: each step's ``balancers``
    tasks land on random (type, server) cells."""
    cells = rng.integers(2 * servers, size=(steps, balancers))
    rows = np.zeros((steps, 2 * servers), dtype=np.int8)
    for step in range(steps):
        rows[step] = np.bincount(cells[step], minlength=2 * servers)
    return rows.reshape(steps, 2, servers)


def compare(arrivals, queued, *args):
    expected, expected_queued = per_server_loop(arrivals, queued, *args)
    state = queued.copy()
    assert get_backend().serve_chunk(arrivals, state, *args) == expected
    assert state.tolist() == expected_queued
    return expected


@DISCIPLINES
def test_matches_a_per_server_loop(serve_two_c):
    rng = np.random.default_rng(35)
    for _ in range(60):
        servers = int(rng.integers(1, 30))
        balancers = int(rng.integers(1, 50))
        arrivals = random_chunk(
            rng, int(rng.integers(1, 40)), balancers, servers
        )
        # A nonzero start state: queued counts, start step and the
        # totals carried in from an earlier chunk.
        queued = rng.integers(0, 5, size=(2, servers)).astype(np.int64)
        compare(
            arrivals,
            queued,
            int(rng.integers(0, 500)),
            balancers,
            serve_two_c,
            float("inf"),
            int(queued.sum()),
            float(rng.random()) * 100,
        )


@DISCIPLINES
def test_a_finite_max_total_queue_stops_mid_chunk(serve_two_c):
    rng = np.random.default_rng(7)
    servers, balancers, steps = 6, 20, 30  # overloaded: queues grow
    arrivals = random_chunk(rng, steps, balancers, servers)
    queued = rng.integers(0, 3, size=(2, servers)).astype(np.int64)
    total = int(queued.sum())
    limit = total + 10 * balancers
    steps_done, _, _, _, _, stopped = compare(
        arrivals, queued, 100, balancers, serve_two_c, limit, total, 0.5
    )
    assert stopped and 1 < steps_done < steps
