"""The Fig 4 timestep simulation harness.

Model (paper §4.1, "Simulation study"): at each timestep every one of
``N`` load balancers receives a type-C or type-E request with equal
probability and immediately forwards it to one of ``M`` servers according
to its policy. Servers then serve their queues: two type-C requests
simultaneously first, otherwise one type-E request (footnote 2 offers
alternative disciplines; several are implemented for the robustness
ablation). The reported metric is the time-averaged queue length as a
function of load ``N/M``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.lb.degradation import DegradationReport
from repro.lb.policies import AssignmentPolicy
from repro.net.packet import TaskType
from repro.net.workload import BernoulliTaskMix
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs.manifest import RunManifest
from repro.sim.rng import RandomStreams

__all__ = [
    "ServiceDiscipline",
    "SimulationResult",
    "check_run_arguments",
    "run_timestep_simulation",
    "SERVICE_DISCIPLINES",
    "SIMULATION_ENGINES",
]

#: Engine selectors for :func:`run_timestep_simulation`. "reference" is
#: the interpreted deque loop (the oracle), "vectorized" the batched
#: numpy engine in :mod:`repro.lb.engine`, and "auto" picks vectorized
#: whenever the (policy, workload, discipline) combination supports it.
SIMULATION_ENGINES = ("auto", "reference", "vectorized")


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one timestep simulation run.

    Attributes:
        mean_queue_length: time-averaged total queue length per server
            (Fig 4's y-axis).
        mean_queueing_delay: average steps a served task waited.
        served: tasks completed.
        arrived: tasks that arrived after warmup accounting started.
        timesteps: measured (post-warmup) steps.
        load: offered load ``N/M``.
        degradation: fault-plane observability when the policy degrades
            gracefully (a :class:`~repro.lb.degradation
            .DegradationReport`); ``None`` for fault-free policies.
        manifest: provenance record for this run (a
            :class:`~repro.obs.manifest.RunManifest`). Excluded from
            equality so cross-engine and parallel/serial bit-identity
            guarantees compare physics, not provenance.
    """

    mean_queue_length: float
    mean_queueing_delay: float
    served: int
    arrived: int
    timesteps: int
    load: float
    degradation: DegradationReport | None = None
    manifest: RunManifest | None = field(
        default=None, compare=False, repr=False
    )


def _is_colocate(task) -> bool:
    """Type-C test across task encodings.

    Tasks are :class:`TaskType` members in the classic workloads and
    integer class labels in the multi-class ones (0 = type-E, >= 1 = a
    type-C subtype). The service disciplines are deliberately
    subtype-blind — batching mixed subtypes is exactly the §4.1 failure
    the *policies* must avoid — matching the vectorized engine's
    ``task_bits != 0`` test.
    """
    if isinstance(task, TaskType):
        return task is TaskType.COLOCATE
    return int(task) != 0


def _serve_paper(queue: deque, now: int, waits: list[int]) -> int:
    """Up to two type-C requests in parallel, else one type-E (paper rule)."""
    served = 0
    if any(_is_colocate(task) for task, _ in queue):
        for _ in range(2):
            index = _find_colocate(queue)
            if index is None:
                break
            waits.append(now - _pop(queue, index))
            served += 1
    elif queue:
        waits.append(now - _pop(queue, 0))
        served = 1
    return served


def _serve_fifo(queue: deque, now: int, waits: list[int]) -> int:
    """Strict head-of-line service; a second C rides along only if it is
    immediately behind the first."""
    if not queue:
        return 0
    head_type, arrival = queue.popleft()
    waits.append(now - arrival)
    served = 1
    if _is_colocate(head_type) and queue:
        next_type, next_arrival = queue[0]
        if _is_colocate(next_type):
            queue.popleft()
            waits.append(now - next_arrival)
            served = 2
    return served


def _serve_serial(queue: deque, now: int, waits: list[int]) -> int:
    """One request per step, type-C first — no parallel C execution."""
    if not queue:
        return 0
    index = _find_colocate(queue)
    if index is None:
        index = 0
    waits.append(now - _pop(queue, index))
    return 1


#: Service disciplines available to the harness (footnote 2 ablation).
SERVICE_DISCIPLINES = {
    "paper": _serve_paper,
    "fifo": _serve_fifo,
    "serial": _serve_serial,
}

ServiceDiscipline = str


def _find_colocate(queue: deque) -> int | None:
    for i, (task, _) in enumerate(queue):
        if _is_colocate(task):
            return i
    return None


def _pop(queue: deque, index: int) -> int:
    """Remove entry ``index`` and return its arrival time."""
    queue.rotate(-index)
    _, arrival = queue.popleft()
    queue.rotate(index)
    return arrival


def check_run_arguments(
    *,
    timesteps: int,
    discipline: str = "paper",
    warmup_fraction: float = 0.2,
    engine: str = "auto",
) -> None:
    """Raise :class:`ConfigurationError` for run arguments
    :func:`run_timestep_simulation` rejects, without running anything."""
    if timesteps < 1:
        raise ConfigurationError("need at least one timestep")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(f"bad warmup fraction {warmup_fraction}")
    if discipline not in SERVICE_DISCIPLINES:
        raise ConfigurationError(
            f"unknown discipline {discipline!r}; "
            f"options: {sorted(SERVICE_DISCIPLINES)}"
        )
    if engine not in SIMULATION_ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; options: {SIMULATION_ENGINES}"
        )


def run_timestep_simulation(
    policy: AssignmentPolicy,
    *,
    timesteps: int = 1000,
    seed: int = 0,
    discipline: ServiceDiscipline = "paper",
    p_colocate: float = 0.5,
    warmup_fraction: float = 0.2,
    max_total_queue: float = float("inf"),
    workload=None,
    engine: str = "auto",
    chunk_steps: int | None = None,
) -> SimulationResult:
    """Run the Fig 4 experiment for one policy and return its metrics.

    Args:
        policy: assignment policy (carries N and M).
        timesteps: total steps; the first ``warmup_fraction`` are excluded
            from averages.
        seed: root seed (workload and policy use separate streams).
        discipline: one of :data:`SERVICE_DISCIPLINES`.
        p_colocate: probability a task is type-C (paper: 0.5).
        warmup_fraction: fraction of steps treated as warmup.
        max_total_queue: optional safety valve — stop early if the system
            is so overloaded the total queue exceeds this (the averages
            then reflect a clearly-unstable system).
        workload: optional draw-compatible workload (e.g. a
            :class:`~repro.net.trace.TraceReplayer`) replacing the
            Bernoulli mix; must cover the policy's balancer count.
        engine: one of :data:`SIMULATION_ENGINES`. "auto" (default) uses
            the batched numpy engine when the policy, workload, and
            discipline all support it, else the reference deque loop;
            see :mod:`repro.lb.engine` for the support matrix and
            docs/reproducing.md for how per-seed values relate.
        chunk_steps: timesteps per streamed chunk for the vectorized
            engine; ``None`` picks the adaptive default.
    """
    from repro.lb import engine as _engine_mod

    check_run_arguments(
        timesteps=timesteps,
        discipline=discipline,
        warmup_fraction=warmup_fraction,
        engine=engine,
    )
    serve = SERVICE_DISCIPLINES[discipline]
    num_servers = policy.num_servers
    if workload is None:
        workload = BernoulliTaskMix(policy.num_balancers, p_colocate)
    elif getattr(workload, "num_balancers", None) != policy.num_balancers:
        raise ConfigurationError(
            f"workload covers {getattr(workload, 'num_balancers', '?')} "
            f"balancers, policy needs {policy.num_balancers}"
        )
    streams = RandomStreams(seed)
    workload_rng = streams.stream("workload")
    policy_rng = streams.stream("policy")
    warmup = int(timesteps * warmup_fraction)

    reason = _engine_mod.vectorization_unsupported_reason(
        policy, workload, discipline
    )
    if engine == "vectorized" and reason is not None:
        raise ConfigurationError(f"vectorized engine unsupported: {reason}")
    start = time.perf_counter()
    if engine != "reference" and reason is None:
        with _spans.span("engine.vectorized", steps=timesteps):
            result = _engine_mod.run_vectorized(
                policy,
                workload,
                workload_rng,
                policy_rng,
                timesteps=timesteps,
                discipline=discipline,
                warmup=warmup,
                max_total_queue=max_total_queue,
                chunk_steps=chunk_steps,
            )
        return _finalize(
            policy,
            result,
            engine="vectorized",
            seed=seed,
            wall=time.perf_counter() - start,
            timesteps=timesteps,
            discipline=discipline,
            p_colocate=p_colocate,
        )

    with _spans.span("engine.reference", steps=timesteps):
        queues: list[deque] = [deque() for _ in range(num_servers)]
        queue_length_sum = 0.0
        waits: list[int] = []
        served = 0
        arrived = 0
        measured_steps = 0
        wants_feedback = policy.needs_queue_feedback()

        for step in range(timesteps):
            measuring = step >= warmup
            tasks = workload.draw(workload_rng)
            choices = policy.assign(tasks, policy_rng)
            for task, server in zip(tasks, choices):
                if not 0 <= server < num_servers:
                    raise ConfigurationError(
                        f"policy chose invalid server {server}"
                    )
                queues[server].append((task, step))
            if measuring:
                arrived += len(tasks)
            step_waits: list[int] = []
            for queue in queues:
                served_here = serve(queue, step, step_waits)
                if measuring:
                    served += served_here
            total_queued = sum(len(q) for q in queues)
            if measuring:
                waits.extend(step_waits)
                queue_length_sum += total_queued / num_servers
                measured_steps += 1
            if wants_feedback:
                policy.observe_queues([len(q) for q in queues])
            if total_queued > max_total_queue:
                break

        mean_queue = queue_length_sum / max(1, measured_steps)
        mean_wait = float(np.mean(waits)) if waits else 0.0
        result = SimulationResult(
            mean_queue_length=mean_queue,
            mean_queueing_delay=mean_wait,
            served=served,
            arrived=arrived,
            timesteps=measured_steps,
            load=policy.num_balancers / num_servers,
        )
    return _finalize(
        policy,
        result,
        engine="reference",
        seed=seed,
        wall=time.perf_counter() - start,
        timesteps=timesteps,
        discipline=discipline,
        p_colocate=p_colocate,
    )


def _finalize(
    policy: AssignmentPolicy,
    result: SimulationResult,
    *,
    engine: str,
    seed: int,
    wall: float,
    timesteps: int,
    discipline: str,
    p_colocate: float,
) -> SimulationResult:
    """Attach degradation + provenance and record run-level metrics.

    Instrumentation happens once per run (not per step) so the
    observability layer stays within its overhead budget; with the
    registry disabled the result is returned bare, manifest and all.
    """
    result = _attach_degradation(policy, result)
    registry = _metrics.get_registry()
    if not registry.enabled:
        return result
    registry.counter("fig4.runs").inc()
    registry.counter("fig4.steps").inc(result.timesteps)
    registry.counter("fig4.arrived").inc(result.arrived)
    registry.counter("fig4.served").inc(result.served)
    registry.counter(f"fig4.engine.{engine}").inc()
    registry.timer("fig4.run").observe(wall)
    if wall > 0.0:
        registry.gauge("fig4.steps_per_second").set(result.timesteps / wall)
    degradation_dict = None
    report = result.degradation
    if report is not None:
        registry.counter("fig4.decisions.quantum").inc(
            report.quantum_decisions
        )
        registry.counter("fig4.decisions.fallback").inc(
            report.fallback_decisions
        )
        degradation_dict = report.to_dict()
    manifest = RunManifest.collect(
        "simulation",
        seeds=(int(seed),),
        engine=engine,
        config={
            "num_balancers": policy.num_balancers,
            "num_servers": policy.num_servers,
            "timesteps": timesteps,
            "discipline": discipline,
            "p_colocate": p_colocate,
        },
        fault_config=getattr(policy, "fault_config", None),
        degradation=degradation_dict,
        wall_seconds=wall,
    )
    return replace(result, manifest=manifest)


def _attach_degradation(
    policy: AssignmentPolicy, result: SimulationResult
) -> SimulationResult:
    """Attach the policy's degradation report, if it keeps one.

    Fault-free policies leave ``degradation=None``, preserving exact
    result equality across engines for the per-seed-identical family.
    """
    report = getattr(policy, "degradation_report", None)
    if report is None:
        return result
    return replace(result, degradation=report())
