"""Guards for the lazy package exports and the on-demand networkx import.

Each ``repro`` package ``__init__`` is a table of the names it re-exports;
a name's submodule is imported on its first read. These tests pin that
every listed name still resolves to the object its submodule defines,
that a command importing only what it uses loads none of the rest, and
that no package exports a new name only tests use.
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

SRC_ROOT = Path(repro.__file__).resolve().parents[1]
REPO_ROOT = Path(__file__).resolve().parents[1]

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _submodules(package):
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


def _fresh_modules(code: str) -> set[str]:
    """The ``sys.modules`` keys of a fresh interpreter after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")])
    )
    report = "import json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_to_its_definition(name):
    package = importlib.import_module(name)
    # Import every submodule first: a submodule imported by its own path
    # must not shadow an exported name of the same spelling.
    submodules = _submodules(package)
    listing = dir(package)
    for export in package.__all__:
        obj = getattr(package, export)
        assert export in listing
        owner = getattr(obj, "__module__", None)
        if isinstance(owner, str) and owner.startswith(f"{name}."):
            assert vars(sys.modules[owner])[export] is obj, export
        else:  # a constant, or a name the package itself defines
            holders = [package, *submodules]
            assert any(vars(m).get(export) is obj for m in holders), export


def test_unknown_name_is_an_attribute_error():
    import repro.lb

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.lb.no_such_name
    with pytest.raises(ImportError):
        from repro.lb import no_such_name  # noqa: F401


def test_submodules_still_import_through_the_package():
    import repro.lb.engine
    from repro.lb import run_timestep_simulation, simulation

    assert simulation is sys.modules["repro.lb.simulation"]
    assert simulation.run_timestep_simulation is run_timestep_simulation
    assert repro.lb.engine is sys.modules["repro.lb.engine"]


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from repro.games import *", namespace)
    import repro.games

    assert set(repro.games.__all__) <= set(namespace)


def test_exports_pickle_by_their_defining_module():
    from repro.lb import CHSHPairedAssignment, run_timestep_simulation

    assert pickle.loads(pickle.dumps(CHSHPairedAssignment)) is (
        CHSHPairedAssignment
    )
    assert pickle.loads(pickle.dumps(run_timestep_simulation)) is (
        run_timestep_simulation
    )
    policy = CHSHPairedAssignment(4, 4)
    assert type(pickle.loads(pickle.dumps(policy))) is CHSHPairedAssignment


def test_fig3_and_fig4_imports_load_only_what_they_use():
    loaded = _fresh_modules(
        "from repro.games import screen_game_batch, quantum_value_bounds\n"
        "from repro.lb import CHSHPairedAssignment, run_timestep_simulation"
    )
    assert {"repro.games.batch", "repro.lb.policies"} <= loaded
    unused = {
        "networkx",
        "repro.lb.regime",
        "repro.lb.des_adapter",
        "repro.games.multiplayer",
        "repro.hardware.distribution",
    }
    assert not loaded & unused, sorted(loaded & unused)


def test_fig4_imports_leave_out_the_general_game_layer():
    # The CHSH games are NonlocalGame values, but the Fig 4 policies use
    # only the CHSH strategies, so importing them builds no game.
    loaded = _fresh_modules(
        "from repro.lb import CHSHPairedAssignment, run_timestep_simulation"
    )
    assert "repro.games.chsh" in loaded
    general = {"repro.games.nonlocal_games", "repro.games.xor"}
    assert not loaded & general, sorted(loaded & general)


def test_name_shadowing_its_submodule_stays_the_function():
    loaded = _fresh_modules(
        "import importlib\n"
        "module = importlib.import_module('repro.quantum.tomography')\n"
        "from repro.quantum import tomography\n"
        "assert tomography is module.tomography, tomography"
    )
    assert "repro.quantum.tomography" in loaded


def test_networkx_loads_only_when_an_affinity_graph_is_built():
    loaded = _fresh_modules(
        "from repro.games import xor_game_from_graph, advantage_decisions"
    )
    assert "repro.games.graph_games" in loaded
    assert "networkx" not in loaded

    from repro.games import AffinityGraph, random_affinity_graph

    complete = AffinityGraph.complete(4, {(0, 1)})
    assert complete.num_edges == 6
    assert complete.is_exclusive(0, 1) and not complete.is_exclusive(1, 2)
    drawn = random_affinity_graph(5, 0.5, np.random.default_rng(3))
    assert drawn.num_types == 5 and drawn.num_edges == 10
    assert type(drawn.graph).__module__.startswith("networkx")


#: Exports that no code outside ``tests/`` references yet, for every
#: ``repro`` package. The lists may only shrink: a name that gains a
#: caller, or leaves ``__all__``, must leave its list too.
TEST_ONLY_EXPORTS = {
    "repro": frozenset(),
    "repro.analysis": frozenset({
        "OnlineStats",
        "bootstrap_mean_ci",
        "compare_seeded",
        "jain_fairness",
        "run_seeded",
    }),
    "repro.backend": frozenset(),
    "repro.ecmp": frozenset(),
    "repro.exec": frozenset(),
    "repro.games": frozenset({
        "SharedRandomnessStrategy",
        "biased_chsh_game",
        "magic_square_optimal_strategy",
        "tilted_chsh_classical_value",
        "tilted_chsh_game",
        "tilted_chsh_quantum_value",
    }),
    "repro.hardware": frozenset({
        "DistributedPair",
        "pair_availability_upper_bound",
        "s_value_to_win_probability",
        "win_probability_to_s_value",
    }),
    "repro.lb": frozenset({
        "BiasedCHSHPairedAssignment",
        "MultiClassPairedAssignment",
        "PowerOfTwoAssignment",
        "RoundRobinAssignment",
        "WGroupAssignment",
    }),
    "repro.net": frozenset({"record_bernoulli_trace"}),
    "repro.obs": frozenset({"current_span", "timed", "use_registry"}),
    "repro.quantum": frozenset({
        "amplitude_damping",
        "basis_direction",
        "basis_from_direction",
        "bit_flip",
        "bit_phase_flip",
        "bloch_to_state",
        "compose",
        "dephasing",
        "identity_channel",
        "isotropic_state",
        "measure_qubit",
        "observable_for_basis",
        "outcome_probabilities",
        "phase_flip",
        "povm_measure",
        "purity_from_bloch",
        "random_density_matrix",
        "random_pure_density",
        # Its one other caller was the ECMP see-saw that the k-party
        # see-saw replaced.
        "random_unitary",
    }),
    "repro.sdp": frozenset(),
    "repro.sim": frozenset({
        "AllOf",
        "AnyOf",
        "Resource",
        "SeriesRecorder",
        "Store",
    }),
}


def test_every_package_has_a_test_only_list():
    assert sorted(TEST_ONLY_EXPORTS) == PACKAGES


@functools.cache
def _names_read_outside_tests() -> frozenset[str]:
    """Every name the code under src/, benchmarks/ and examples/ reads.

    A read is an ``ast.Name`` or an ``ast.Attribute``. Strings do not
    count, so neither do docstrings, ``__all__`` lists nor the package
    ``__init__`` tables, and neither do import statements.
    """
    names = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return frozenset(names)


@pytest.mark.parametrize("name", sorted(TEST_ONLY_EXPORTS))
def test_exports_have_a_caller_outside_tests(name):
    package = importlib.import_module(name)
    unread = set(package.__all__) - _names_read_outside_tests()
    allowed = TEST_ONLY_EXPORTS[name]
    assert unread <= allowed, f"only tests use {sorted(unread - allowed)}"
    assert allowed <= unread, f"drop {sorted(allowed - unread)} from the list"
