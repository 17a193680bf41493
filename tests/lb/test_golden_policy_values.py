"""Per-seed golden values for every batched correlated policy.

The engine parity suites compare the paired, group and degraded policies
with the reference engine only in distribution, so a change that alters
their ``assign_batch`` output bit for bit would pass unnoticed there.
This module pins, for each policy, the exact ``SimulationResult`` of a
small vectorized run (stored as ``float.hex``) at an even and an odd
balancer count, three chunk sizes and both vectorized disciplines, plus
a digest of one raw ``assign_batch`` matrix and the policy stream's next
draw after it.

A change that alters the draw order on purpose regenerates the file::

    PYTHONPATH=src python -m tests.lb.test_golden_policy_values
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.games.chsh import colocation_quantum_strategy
from repro.lb import (
    CHSHPairedAssignment,
    ClassicalGroupAssignment,
    ClassicalPairedAssignment,
    GamePairedAssignment,
    GHZGroupAssignment,
    MultiClassPairedAssignment,
    SameTypePairedAssignment,
    WGroupAssignment,
    make_degraded_chsh,
    run_timestep_simulation,
)
from repro.net.workload import BernoulliTaskMix, MultiClassTaskMix
from repro.quantum.entangle import werner_state

GOLDEN_PATH = Path(__file__).with_name("golden_policy_values.json")

SEED = 11
TIMESTEPS = 40
#: Balancer count -> server count: one even and one odd N, near load 1.2.
SYSTEMS = {20: 16, 23: 19}
CHUNKS = (None, 1, 7)
DISCIPLINES = ("paper", "serial")
#: Timesteps of the raw ``assign_batch`` matrix.
BATCH_STEPS = 9


def _werner_chsh(n, m):
    return CHSHPairedAssignment(n, m, state=werner_state(0.85))


def _sticky_chsh(n, m):
    return GamePairedAssignment(
        n, m, colocation_quantum_strategy(None), sticky_servers=True
    )


def _multi_class(num_classes, mode):
    policy = partial(
        MultiClassPairedAssignment, num_classes=num_classes, mode=mode
    )
    probabilities = (0.4,) + (0.6 / (num_classes - 1),) * (num_classes - 1)
    workload = partial(MultiClassTaskMix, class_probabilities=probabilities)
    return policy, workload


#: name -> (policy factory (N, M), workload factory (N) or None).
POLICIES = {
    "chsh": (CHSHPairedAssignment, None),
    "chsh_werner": (_werner_chsh, None),
    "classical_pairs": (ClassicalPairedAssignment, None),
    "same_type_pairs": (SameTypePairedAssignment, None),
    "sticky_chsh_pairs": (_sticky_chsh, None),
    "multi_class3_quantum": _multi_class(3, "quantum"),
    "multi_class3_classical": _multi_class(3, "classical"),
    "multi_class4_quantum": _multi_class(4, "quantum"),
    "multi_class4_classical": _multi_class(4, "classical"),
    "ghz3": (partial(GHZGroupAssignment, group_size=3), None),
    "ghz4": (partial(GHZGroupAssignment, group_size=4), None),
    "w3": (partial(WGroupAssignment, group_size=3), None),
    "w4": (partial(WGroupAssignment, group_size=4), None),
    "classical_group3": (partial(ClassicalGroupAssignment, group_size=3), None),
    "classical_group4": (partial(ClassicalGroupAssignment, group_size=4), None),
    "degraded_classical_fallback": (
        partial(make_degraded_chsh, fidelity=0.9, availability=0.6),
        None,
    ),
    "degraded_random_fallback": (
        partial(
            make_degraded_chsh, fidelity=0.9, availability=0.6,
            fallback="random",
        ),
        None,
    ),
    "degraded_outage": (
        partial(make_degraded_chsh, availability=0.7, mean_outage_steps=3.0),
        None,
    ),
    "degraded_measurement_error": (
        partial(
            make_degraded_chsh, fidelity=0.95, availability=0.8,
            measurement_error=0.05,
        ),
        None,
    ),
}


def _hex(value):
    return float(value).hex() if isinstance(value, float) else value


def _result_values(result) -> dict:
    values = {
        name: _hex(getattr(result, name))
        for name in (
            "mean_queue_length", "mean_queueing_delay", "served",
            "arrived", "timesteps", "load",
        )
    }
    if result.degradation is not None:
        values["degradation"] = {
            key: _hex(value)
            for key, value in result.degradation.to_dict().items()
        }
    return values


def policy_values(name: str) -> dict:
    """Every golden value of one policy, keyed by run configuration."""
    make_policy, make_workload = POLICIES[name]
    values = {}
    for n, m in SYSTEMS.items():
        workload_factory = make_workload or BernoulliTaskMix
        for chunk in CHUNKS:
            for discipline in DISCIPLINES:
                result = run_timestep_simulation(
                    make_policy(n, m),
                    timesteps=TIMESTEPS,
                    seed=SEED,
                    discipline=discipline,
                    workload=workload_factory(n),
                    engine="vectorized",
                    chunk_steps=chunk,
                )
                key = f"N={n}/chunk={chunk}/{discipline}"
                values[key] = _result_values(result)
        tasks = workload_factory(n).draw_batch(
            np.random.default_rng(SEED), BATCH_STEPS
        )
        rng = np.random.default_rng(SEED + 1)
        choices = np.asarray(
            make_policy(n, m).assign_batch(tasks, rng), dtype=np.int64
        )
        values[f"N={n}/assign_batch"] = {
            "sha256": hashlib.sha256(choices.tobytes()).hexdigest(),
            "next_draw": rng.random().hex(),
        }
    return values


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_policy():
    assert sorted(_golden()) == sorted(POLICIES)


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_policy_values_match_golden(name):
    assert policy_values(name) == _golden()[name]


if __name__ == "__main__":
    table = {name: policy_values(name) for name in sorted(POLICIES)}
    GOLDEN_PATH.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(table)} policies to {GOLDEN_PATH}")
