"""The one kernel table: who calls it, and which names it accepts.

The benchmark suite's tracer wraps the kernels of the table
``get_backend()`` returns and puts the wrapped table in place with
``register_backend("numpy", ...)``. A call site that bound the kernels
at import time would never see that table, so each hot path is run here
under a counting table.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.errors import ConfigurationError

#: The table's kernel fields: every field after ``name``.
KERNELS = [f.name for f in dataclasses.fields(ArrayBackend)][1:]


@contextmanager
def counting_table():
    """Put a table that counts its kernel calls in place, then restore."""
    original = get_backend()
    calls: Counter = Counter()

    def counted(kernel):
        def call(*args, **kwargs):
            calls[kernel] += 1
            return getattr(original, kernel)(*args, **kwargs)

        return call

    counting = dataclasses.replace(
        original, **{kernel: counted(kernel) for kernel in KERNELS}
    )
    register_backend("numpy", lambda: counting)
    try:
        yield calls
    finally:
        register_backend("numpy", lambda: original)
    assert get_backend() is original


def run_engine():
    from repro.lb import RandomAssignment, run_timestep_simulation

    result = run_timestep_simulation(
        RandomAssignment(8, 4), timesteps=40, seed=0, engine="vectorized"
    )
    return result.mean_queue_length, result.mean_queueing_delay


def run_forced_sdp_screen():
    from repro.games import sample_game_batch, screen_game_batch

    batch = sample_game_batch(5, 0.5, 12, np.random.default_rng(3))
    # No ascent sweeps: every game the two screens leave goes to the SDP.
    report = screen_game_batch(batch, restarts=1, iterations=0)
    assert report.stage_counts()["sdp"] > 0
    return report.verdicts.tolist(), report.sdp_objectives.tobytes()


def run_seesaw():
    from repro.games import chsh_game, seesaw_lower_bound

    result = seesaw_lower_bound(chsh_game(), restarts=1, iterations=5)
    return result.value, result.behavior.tobytes()


@pytest.mark.parametrize(
    "run, kernels",
    [
        (run_engine, {"serve_chunk"}),
        (run_forced_sdp_screen, {"project_psd_batch", "frobenius_batch"}),
        (run_seesaw, {"project_psd_batch"}),
    ],
    ids=["engine", "sdp-screen", "seesaw"],
)
def test_call_sites_use_the_table_in_place(run, kernels):
    expected = run()
    with counting_table() as calls:
        assert run() == expected
    assert {kernel for kernel in KERNELS if calls[kernel]} == kernels


#: The old default selector, a name that never shipped and near misses.
UNKNOWN_NAMES = ["auto", "cupy", "NumPy", ""]


def test_numpy_always_registered_and_available():
    table = get_backend()
    assert isinstance(table, ArrayBackend) and table.name == "numpy"
    assert all(callable(getattr(table, kernel)) for kernel in KERNELS)
    assert resolve_backend_name() == "numpy"


def test_unknown_name_raises():
    for name in UNKNOWN_NAMES:
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend_name(name)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend(name)


def test_register_backend_rejects_bad_names():
    table = get_backend()
    for name in UNKNOWN_NAMES:
        with pytest.raises(ConfigurationError, match="unknown backend"):
            register_backend(name, lambda: pytest.fail("factory must not run"))
    assert get_backend() is table


def test_instances_are_cached():
    assert get_backend("numpy") is get_backend("numpy")
    assert get_backend() is get_backend("numpy")


def test_searchsorted_numpy_kernel_matches_numpy():
    rng = np.random.default_rng(0)
    table = np.sort(rng.random(64))
    values = rng.random((17, 5)) * 1.2 - 0.1
    got = get_backend("numpy").searchsorted_right(table, values)
    expected = np.searchsorted(table, values, side="right")
    assert np.array_equal(got, expected)
