"""The numba serve kernel, run as plain Python under a stub ``numba``.

``test_parity.py`` needs numba itself and is skipped where it is not
installed. Here a stub module whose ``njit`` returns the function
unchanged stands in for numba, so the numba backend's count-only
``serve_chunk`` runs uncompiled on any host and must still give
simulations bit-identical to the NumPy backend.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import types

import pytest

import repro.backend
from repro.lb import RandomAssignment, RoundRobinAssignment
from repro.lb.simulation import run_timestep_simulation

MODULE = "repro.backend.numba_backend"


def _njit(*args, **kwargs):
    if args and callable(args[0]):
        return args[0]
    return lambda fn: fn


@pytest.fixture
def stub_backend(monkeypatch):
    stub = types.ModuleType("numba")
    stub.njit = _njit
    monkeypatch.setitem(sys.modules, "numba", stub)
    cached = sys.modules.pop(MODULE, None)
    had_attr = hasattr(repro.backend, "numba_backend")
    try:
        yield importlib.import_module(MODULE).make_backend()
    finally:
        sys.modules.pop(MODULE, None)
        if cached is not None:
            sys.modules[MODULE] = cached
        elif not had_attr and hasattr(repro.backend, "numba_backend"):
            delattr(repro.backend, "numba_backend")


def _run(policy_factory, **kwargs):
    result = run_timestep_simulation(
        policy_factory(14, 9), engine="vectorized", **kwargs
    )
    return dataclasses.replace(result, manifest=None)


@pytest.mark.parametrize("policy_factory", [RandomAssignment, RoundRobinAssignment])
@pytest.mark.parametrize("discipline", ["paper", "serial"])
@pytest.mark.parametrize(
    "options",
    [
        dict(timesteps=150, chunk_steps=16),
        dict(timesteps=120, chunk_steps=5, p_colocate=0.3, warmup_fraction=0.5),
        dict(timesteps=300, chunk_steps=7, max_total_queue=90.0),
    ],
)
def test_stub_numba_serve_matches_numpy(
    stub_backend, monkeypatch, policy_factory, discipline, options
):
    kwargs = dict(seed=4, discipline=discipline, **options)
    expected = _run(policy_factory, backend="numpy", **kwargs)
    monkeypatch.setattr(repro.backend, "get_backend", lambda name=None: stub_backend)
    got = _run(policy_factory, **kwargs)
    assert stub_backend.name == "numba"
    assert got == expected
