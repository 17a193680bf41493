"""The Fig 4 timestep simulation harness.

Model (paper §4.1, "Simulation study"): at each timestep every one of
``N`` load balancers receives a type-C or type-E request with equal
probability and immediately forwards it to one of ``M`` servers according
to its policy. Servers then serve their queues: two type-C requests
simultaneously first, otherwise one type-E request (footnote 2 offers
alternative disciplines; several are implemented for the robustness
ablation). The reported metric is the time-averaged queue length as a
function of load ``N/M``.

Two engines run it from the same chunk draws
(:func:`repro.lb.engine.draw_chunk`): the reference engine here, which
queues each task in a per-server deque and serves it by the discipline
rule, and the vectorized engine of :mod:`repro.lb.engine`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.lb.degradation import DegradationReport
from repro.lb.policies import AssignmentPolicy
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
#: whenever the (policy, discipline) combination supports it.
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


# A queue entry is ``(colocate, arrival_step)``: ``colocate`` is True for
# any type-C class. The disciplines are deliberately subtype-blind —
# batching mixed subtypes is exactly the §4.1 failure the *policies*
# must avoid — matching the vectorized engine's ``tasks != 0`` test.


def _serve_paper(queue: deque, now: int, waits: list[int]) -> int:
    """Up to two type-C requests in parallel, else one type-E (paper rule)."""
    served = 0
    if any(colocate for colocate, _ in queue):
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
    head_colocate, arrival = queue.popleft()
    waits.append(now - arrival)
    served = 1
    if head_colocate and queue:
        next_colocate, next_arrival = queue[0]
        if next_colocate:
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
    for i, (colocate, _) in enumerate(queue):
        if colocate:
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
        workload: optional workload with a ``draw_batch`` (e.g. a
            :class:`~repro.net.trace.TraceReplayer`) replacing the
            Bernoulli mix; must cover the policy's balancer count.
        engine: one of :data:`SIMULATION_ENGINES`. "auto" (default) uses
            the batched numpy engine when the policy and discipline
            support it, else the reference deque loop; see
            :mod:`repro.lb.engine` for the support matrix and
            docs/reproducing.md for how per-seed values relate.
        chunk_steps: timesteps per drawn chunk, on either engine;
            ``None`` picks the adaptive default (see
            :func:`repro.lb.engine.resolve_chunk_steps`). A policy that
            reads queue feedback draws one step at a time.
    """
    from repro.lb import engine as _engine_mod

    check_run_arguments(
        timesteps=timesteps,
        discipline=discipline,
        warmup_fraction=warmup_fraction,
        engine=engine,
    )
    if workload is None:
        workload = BernoulliTaskMix(policy.num_balancers, p_colocate)
    elif getattr(workload, "num_balancers", None) != policy.num_balancers:
        raise ConfigurationError(
            f"workload covers {getattr(workload, 'num_balancers', '?')} "
            f"balancers, policy needs {policy.num_balancers}"
        )
    reason = _engine_mod.vectorization_unsupported_reason(policy, discipline)
    if engine == "vectorized" and reason is not None:
        raise ConfigurationError(f"vectorized engine unsupported: {reason}")
    vectorized = engine != "reference" and reason is None
    engine = "vectorized" if vectorized else "reference"
    run_engine = _engine_mod.run_vectorized if vectorized else _run_reference
    streams = RandomStreams(seed)
    start = time.perf_counter()
    with _spans.span(f"engine.{engine}", steps=timesteps):
        result = run_engine(
            policy,
            workload,
            streams.stream("workload"),
            streams.stream("policy"),
            timesteps=timesteps,
            discipline=discipline,
            warmup=int(timesteps * warmup_fraction),
            max_total_queue=max_total_queue,
            chunk_steps=chunk_steps,
        )
    return _finalize(
        policy,
        result,
        engine=engine,
        seed=seed,
        wall=time.perf_counter() - start,
        timesteps=timesteps,
        discipline=discipline,
        p_colocate=p_colocate,
    )


def _run_reference(
    policy,
    workload,
    workload_rng,
    policy_rng,
    *,
    timesteps: int,
    discipline: str,
    warmup: int,
    max_total_queue: float,
    chunk_steps: int | None,
) -> SimulationResult:
    """The reference engine: per-server deques served task by task.

    Each chunk comes from :func:`repro.lb.engine.draw_chunk`, as in the
    vectorized engine, and is appended and served one step at a time.
    A policy that reads queue feedback draws one-step chunks and
    observes the queues after each step.
    """
    from repro.lb.engine import draw_chunk, resolve_chunk_steps

    serve = SERVICE_DISCIPLINES[discipline]
    num_servers = policy.num_servers
    wants_feedback = policy.needs_queue_feedback()
    chunk = 1 if wants_feedback else resolve_chunk_steps(
        chunk_steps, timesteps, policy.num_balancers, num_servers
    )
    queues: list[deque] = [deque() for _ in range(num_servers)]
    queue_length_sum = 0.0
    waits: list[int] = []
    served = 0
    step = 0
    stopped = False
    while step < timesteps and not stopped:
        tasks, choices = draw_chunk(
            policy, workload, workload_rng, policy_rng,
            min(chunk, timesteps - step),
        )
        colocate = tasks != 0
        for offset in range(len(tasks)):
            for is_c, server in zip(
                colocate[offset].tolist(), choices[offset].tolist()
            ):
                queues[server].append((is_c, step))
            measuring = step >= warmup
            step_waits: list[int] = []
            for queue in queues:
                served_here = serve(queue, step, step_waits)
                if measuring:
                    served += served_here
            total_queued = sum(len(q) for q in queues)
            if measuring:
                waits.extend(step_waits)
                queue_length_sum += total_queued / num_servers
            if wants_feedback:
                policy.observe_queues([len(q) for q in queues])
            step += 1
            if total_queued > max_total_queue:
                stopped = True
                break

    # Like the vectorized engine, tell a degraded policy how many of
    # the steps it drew actually executed.
    if hasattr(policy, "note_executed_steps"):
        policy.note_executed_steps(step)
    measured_steps = max(0, step - warmup)
    return SimulationResult(
        mean_queue_length=queue_length_sum / max(1, measured_steps),
        mean_queueing_delay=float(np.mean(waits)) if waits else 0.0,
        served=served,
        arrived=policy.num_balancers * measured_steps,
        timesteps=measured_steps,
        load=policy.num_balancers / num_servers,
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
