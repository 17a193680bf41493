"""Cross-backend kernel parity: numba must reproduce the NumPy reference.

The whole suite is skipped when numba is not importable — the numpy
backend *is* the reference, so there is nothing to compare it against.
Contract being asserted (see ``repro/backend/base.py``):

- ``serve_chunk`` and ``searchsorted_right``: bit-identical (exact
  integer accounting; identical float accumulation order).
- ``project_psd_batch`` / ``frobenius_batch``: LAPACK-tolerance
  agreement, bounded here at 1e-10 elementwise on unit-scale inputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backend import get_backend, numba_available

pytestmark = pytest.mark.skipif(
    not numba_available(), reason="numba backend not importable on this host"
)


@pytest.fixture(scope="module")
def backends():
    return get_backend("numpy"), get_backend("numba")


def test_searchsorted_right_bit_identical(backends):
    np_backend, nb_backend = backends
    rng = np.random.default_rng(7)
    table = np.sort(rng.random(256))
    # Include exact table entries: side="right" semantics differ from
    # side="left" precisely there.
    values = np.concatenate(
        [rng.random(500) * 1.4 - 0.2, table[::7], np.array([0.0, 1.0])]
    ).reshape(-1, 1)
    got = nb_backend.searchsorted_right(table, values)
    expected = np_backend.searchsorted_right(table, values)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("discipline", ["paper", "serial"])
@pytest.mark.parametrize("load", [0.75, 1.25])
def test_simulation_bit_identical_across_backends(discipline, load):
    from repro.lb.policies import RandomAssignment
    from repro.lb.simulation import run_timestep_simulation

    servers = max(1, round(40 / load))
    runs = {}
    for name in ("numpy", "numba"):
        runs[name] = run_timestep_simulation(
            RandomAssignment(40, servers),
            timesteps=300,
            seed=11,
            discipline=discipline,
            engine="vectorized",
            backend=name,
            chunk_steps=64,
        )
    a = dataclasses.replace(runs["numpy"], manifest=None)
    b = dataclasses.replace(runs["numba"], manifest=None)
    assert a == b  # bit-identical, not approximately equal


def test_paired_policy_bit_identical_across_backends(monkeypatch):
    # The Born-table searchsorted is resolved from the environment at
    # assign time; both backends must pick the same outcome integers.
    from repro.lb.policies import CHSHPairedAssignment
    from repro.lb.simulation import run_timestep_simulation

    runs = {}
    for name in ("numpy", "numba"):
        monkeypatch.setenv("REPRO_BACKEND", name)
        runs[name] = run_timestep_simulation(
            CHSHPairedAssignment(20, 10),
            timesteps=200,
            seed=5,
            engine="vectorized",
            backend=name,
        )
    a = dataclasses.replace(runs["numpy"], manifest=None)
    b = dataclasses.replace(runs["numba"], manifest=None)
    assert a == b


def test_project_psd_batch_within_lapack_tolerance(backends):
    np_backend, nb_backend = backends
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(24, 10, 10))
    got = nb_backend.project_psd_batch(stack)
    expected = np_backend.project_psd_batch(stack)
    assert np.allclose(got, expected, atol=1e-10, rtol=0.0)
    # Both genuinely PSD.
    assert np.linalg.eigvalsh(got).min() > -1e-10


def test_frobenius_batch_close(backends):
    np_backend, nb_backend = backends
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(32, 8, 8))
    got = nb_backend.frobenius_batch(stack)
    expected = np_backend.frobenius_batch(stack)
    assert np.allclose(got, expected, atol=0.0, rtol=1e-12)


# At the default budget the screens decide every game at these sizes;
# the forced budget skips the ascent so the SDP stage runs on numba.
@pytest.mark.parametrize(
    "budget", [{}, {"restarts": 1, "iterations": 0}], ids=["default", "forced"]
)
@pytest.mark.parametrize("num_types", [5, 6])
def test_cascade_verdicts_agree_across_backends(num_types, budget):
    from repro.games.batch import sample_game_batch, screen_game_batch

    rng = np.random.default_rng(2)
    batch = sample_game_batch(num_types, 0.5, 40, rng)
    reports = {
        name: screen_game_batch(batch, backend=name, **budget)
        for name in ("numpy", "numba")
    }
    assert np.array_equal(
        reports["numpy"].verdicts, reports["numba"].verdicts
    )
    assert np.array_equal(reports["numpy"].stages, reports["numba"].stages)
    sdp_np = reports["numpy"].sdp_objectives
    sdp_nb = reports["numba"].sdp_objectives
    both = ~np.isnan(sdp_np)
    assert np.allclose(sdp_np[both], sdp_nb[both], atol=1e-6, rtol=0.0)
