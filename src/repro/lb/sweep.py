"""Load sweeps: regenerate the Fig 4 curve for any set of policies.

Points run through :class:`repro.exec.SweepRunner`, so a sweep can fan
out over worker processes (``jobs``) and reuse cached results
(``cache``) while staying bit-identical to a serial run.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.exec import RunReport, SweepRunner
from repro.lb.policies import AssignmentPolicy
from repro.lb.simulation import SimulationResult, run_timestep_simulation

__all__ = [
    "LoadSweepPoint",
    "servers_for_load",
    "sweep_load",
    "sweep_load_detailed",
    "knee_load",
]

PolicyFactory = Callable[[int, int], AssignmentPolicy]


@dataclass(frozen=True)
class LoadSweepPoint:
    """One (load, result) pair of a sweep.

    Attributes:
        load: the *actual* offered load ``N/M`` after ``M`` was rounded
            to an integer server count.
        num_servers: the rounded server count.
        result: the simulation outcome at this point.
        requested_load: the load the caller asked for; ``load`` can
            drift from it because ``M`` must be an integer (e.g. at
            N=100, requested 1.02 also yields M=98, load ≈ 1.0204).
    """

    load: float
    num_servers: int
    result: SimulationResult
    requested_load: float | None = None


def servers_for_load(num_balancers: int, load: float) -> int:
    """The integer server count a sweep runs at for the requested load
    ``N/M``: ``round(N / load)``, at least one."""
    if load <= 0:
        raise ConfigurationError(f"load must be positive, got {load}")
    return max(1, round(num_balancers / load))


def _run_load_point(config, seed: int) -> SimulationResult:
    """Worker function: one simulation at one server count."""
    policy = config["policy_factory"](
        config["num_balancers"],
        config["num_servers"],
        **config.get("policy_kwargs", {}),
    )
    workload = None
    workload_factory = config.get("workload_factory")
    if workload_factory is not None:
        workload = workload_factory(
            config["num_balancers"], **config.get("workload_kwargs", {})
        )
    return run_timestep_simulation(
        policy,
        timesteps=config["timesteps"],
        seed=seed,
        discipline=config["discipline"],
        p_colocate=config["p_colocate"],
        workload=workload,
        engine=config.get("engine", "auto"),
        chunk_steps=config.get("chunk_steps"),
    )


def sweep_load_detailed(
    policy_factory: PolicyFactory,
    *,
    num_balancers: int = 100,
    loads: Sequence[float] = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
    timesteps: int = 1000,
    seed: int = 0,
    discipline: str = "paper",
    p_colocate: float = 0.5,
    jobs: int | None = 1,
    cache=False,
    cache_dir=None,
    progress=None,
    engine: str = "auto",
    chunk_steps: int | None = None,
    policy_kwargs: dict | None = None,
    workload_factory=None,
    workload_kwargs: dict | None = None,
) -> tuple[list[LoadSweepPoint], RunReport]:
    """Like :func:`sweep_load`, also returning the execution report."""
    if not loads:
        raise ConfigurationError("need at least one load point")
    resolved: list[tuple[float, int]] = []
    seen_servers: dict[int, float] = {}
    for load in loads:
        num_servers = servers_for_load(num_balancers, load)
        if num_servers in seen_servers:
            warnings.warn(
                f"requested loads {seen_servers[num_servers]} and {load} "
                f"both round to {num_servers} servers at N={num_balancers}; "
                f"dropping the duplicate point for load {load}",
                stacklevel=2,
            )
            continue
        seen_servers[num_servers] = load
        resolved.append((load, num_servers))

    factory_name = getattr(policy_factory, "__name__", "policy")
    runner = SweepRunner(
        _run_load_point,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        label=f"sweep_load[{factory_name}]",
        progress=progress,
    )
    base_config = {
        "policy_factory": policy_factory,
        "num_balancers": num_balancers,
        "timesteps": timesteps,
        "discipline": discipline,
        "p_colocate": p_colocate,
        "engine": engine,
    }
    if chunk_steps is not None:
        base_config["chunk_steps"] = chunk_steps
    if policy_kwargs:
        # Part of the config dict, hence of the cache fingerprint: two
        # sweeps of the same factory at different fault settings never
        # collide in the result cache.
        base_config["policy_kwargs"] = dict(policy_kwargs)
    if workload_factory is not None:
        # ``workload_factory(num_balancers, **workload_kwargs)`` builds
        # the per-point workload (e.g. a multi-class task mix) in the
        # worker; like the policy factory it fingerprints by identity
        # and source, so swapping the workload invalidates the cache.
        base_config["workload_factory"] = workload_factory
        if workload_kwargs:
            base_config["workload_kwargs"] = dict(workload_kwargs)
    report = runner.run(
        [
            ({**base_config, "num_servers": num_servers}, seed)
            for _, num_servers in resolved
        ]
    )
    points = [
        LoadSweepPoint(
            load=num_balancers / num_servers,
            num_servers=num_servers,
            result=point.value,
            requested_load=requested,
        )
        for (requested, num_servers), point in zip(resolved, report.points)
    ]
    return points, report


def sweep_load(
    policy_factory: PolicyFactory,
    *,
    num_balancers: int = 100,
    loads: Sequence[float] = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
    timesteps: int = 1000,
    seed: int = 0,
    discipline: str = "paper",
    p_colocate: float = 0.5,
    jobs: int | None = 1,
    cache=False,
    cache_dir=None,
    progress=None,
    engine: str = "auto",
    chunk_steps: int | None = None,
    policy_kwargs: dict | None = None,
    workload_factory=None,
    workload_kwargs: dict | None = None,
) -> list[LoadSweepPoint]:
    """Run the Fig 4 experiment across a load (``N/M``) sweep.

    ``policy_factory(num_balancers, num_servers, **policy_kwargs)``
    builds a fresh policy per point (policies may carry state such as
    round-robin counters, and — for degraded policies — fault-model
    state). ``policy_kwargs`` must be picklable and fingerprintable: it
    travels to worker processes and into the result-cache key. An
    optional ``workload_factory(num_balancers, **workload_kwargs)``
    replaces the Bernoulli mix per point (e.g.
    :class:`~repro.net.workload.MultiClassTaskMix` for >2 task classes)
    under the same picklability rules. Requested loads that collapse
    onto the same integer server count are de-duplicated with a
    warning; each surviving point records both the caller's
    ``requested_load`` and the actual rounded ``load``.
    """
    points, _ = sweep_load_detailed(
        policy_factory,
        num_balancers=num_balancers,
        loads=loads,
        timesteps=timesteps,
        seed=seed,
        discipline=discipline,
        p_colocate=p_colocate,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        progress=progress,
        engine=engine,
        chunk_steps=chunk_steps,
        policy_kwargs=policy_kwargs,
        workload_factory=workload_factory,
        workload_kwargs=workload_kwargs,
    )
    return points


def knee_load(
    points: Sequence[LoadSweepPoint], *, queue_threshold: float = 5.0
) -> float:
    """The first swept load whose mean queue length crosses a threshold.

    A simple, monotone proxy for Fig 4's "knee point — where queue length
    begins to increase rapidly". Returns ``inf`` when no point crosses.
    """
    for point in sorted(points, key=lambda p: p.load):
        if point.result.mean_queue_length >= queue_threshold:
            return point.load
    return float("inf")
