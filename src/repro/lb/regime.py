"""The latency-constrained advantage regime map.

Turns the Fig 4 knee into the operating envelope a real operator would
consult: for every (deadline, distance, load, fidelity) cell, which
coordination technology wins?

- **quantum** — CHSH-paired balancers measuring pre-shared (Werner-
  degraded) pairs, with classical fallback when no live pair is
  available.
- **shared-randomness** — the best classical zero-communication
  strategy (win probability ``CHSH_CLASSICAL_VALUE`` = 3/4).
- **coordination** — the §4.1 communicating balancer: query queue
  lengths, wait out the round trip, route on the one-way-stale snapshot
  (:func:`repro.lb.des_adapter.coordinated_submit` — the *fixed*
  baseline; an earlier version read impossibly fresh state).

Classification composes two tiers:

1. *Correlation tier* (analytic, light-cone aware): the deliverable win
   probability from :func:`repro.net.latency.effective_win_probability`
   decides quantum vs shared randomness. Below the one-way light-cone
   bound no cross-site strategy exists and the cell is forced classical.
2. *Queueing tier* (measured): when a query-and-respond fits the
   deadline, the coordinated balancer competes on the continuous-time
   DES (:func:`repro.lb.des_adapter.run_des_experiment`) at the cell's
   load; it takes the cell when its mean queueing delay beats the best
   no-communication policy's. The shared-randomness baseline is run as
   the quantum policy at the Werner threshold fidelity, whose behavior
   wins the colocation game at exactly the classical-optimal 3/4 with
   zero communication.

Every cell is a pure function of (config, seed): DES seeds derive from
per-cell :class:`~repro.sim.RandomStreams` substreams, and the sweep is
routed through :class:`~repro.exec.SweepRunner` (content-addressed
caching, ``--jobs`` parallelism), so verdicts are bit-identical across
worker counts and cell orderings.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.exec import RunReport, SweepRunner
from repro.obs.metrics import get_registry

__all__ = [
    "VERDICT_QUANTUM",
    "VERDICT_SHARED",
    "VERDICT_COORDINATION",
    "VERDICT_LETTERS",
    "RegimeCell",
    "RegimeMapResult",
    "check_regime_arguments",
    "regime_map",
    "regime_map_detailed",
    "DEFAULT_DEADLINES",
    "DEFAULT_DISTANCES_M",
    "DEFAULT_LOADS",
    "DEFAULT_FIDELITIES",
]

VERDICT_QUANTUM = "quantum"
VERDICT_SHARED = "shared-randomness"
VERDICT_COORDINATION = "coordination"

#: Phase-diagram letters: Q(uantum), S(hared randomness), M(essage).
VERDICT_LETTERS = {
    VERDICT_QUANTUM: "Q",
    VERDICT_SHARED: "S",
    VERDICT_COORDINATION: "M",
}

#: Default operating grid (seconds / meters / N-per-M / Werner fidelity).
#: Spans all three phases at the default hardware point: deadlines below
#: the one-way bound (forced classical), inside the one-way..RTT band
#: (quantum country), and past the RTT (coordination becomes feasible).
DEFAULT_DEADLINES = (0.3e-3, 0.7e-3, 2.5e-3)
DEFAULT_DISTANCES_M = (50_000.0, 100_000.0)
DEFAULT_LOADS = (0.7, 1.2)
DEFAULT_FIDELITIES = (0.7, 0.95)


@dataclass(frozen=True)
class RegimeCell:
    """One classified operating point of the regime map.

    Attributes:
        deadline: decision deadline in seconds.
        distance_m: site separation in meters.
        load: offered load per server (``arrival_rate * service_time``).
        fidelity: Werner fidelity of the delivered pairs.
        one_way_delay: light-cone one-way delay at this distance.
        rtt: round-trip time the coordinated baseline pays.
        availability: deadline-limited pair availability.
        quantum_win: deliverable colocation-game win probability
            (availability-blended, light-cone gated).
        classical_win: the shared-randomness win probability (3/4).
        remote_routing_feasible: one-way delay fits the deadline.
        coordination_feasible: query-and-respond fits the deadline.
        quantum_delay: DES mean queueing delay, quantum policy at the
            cell fidelity (NaN when nothing completed).
        shared_delay: DES mean queueing delay of the shared-randomness
            baseline (quantum policy at the Werner threshold fidelity).
        coordination_delay: DES mean queueing delay of the fixed
            stale-observation coordinated baseline (NaN when the
            exchange does not fit the deadline).
        verdict: one of :data:`VERDICT_QUANTUM`,
            :data:`VERDICT_SHARED`, :data:`VERDICT_COORDINATION`.
    """

    deadline: float
    distance_m: float
    load: float
    fidelity: float
    one_way_delay: float
    rtt: float
    availability: float
    quantum_win: float
    classical_win: float
    remote_routing_feasible: bool
    coordination_feasible: bool
    quantum_delay: float
    shared_delay: float
    coordination_delay: float
    verdict: str

    @property
    def letter(self) -> str:
        """Single-letter verdict for phase-diagram tables."""
        return VERDICT_LETTERS[self.verdict]

    @property
    def key(self) -> tuple[float, float, float, float]:
        """The cell's (deadline, distance, load, fidelity) coordinates."""
        return (self.deadline, self.distance_m, self.load, self.fidelity)

    def to_dict(self) -> dict:
        """JSON-serializable cell record."""
        return {
            "deadline": self.deadline,
            "distance_m": self.distance_m,
            "load": self.load,
            "fidelity": self.fidelity,
            "one_way_delay": self.one_way_delay,
            "rtt": self.rtt,
            "availability": self.availability,
            "quantum_win": self.quantum_win,
            "classical_win": self.classical_win,
            "remote_routing_feasible": self.remote_routing_feasible,
            "coordination_feasible": self.coordination_feasible,
            "quantum_delay": self.quantum_delay,
            "shared_delay": self.shared_delay,
            "coordination_delay": self.coordination_delay,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class RegimeMapResult:
    """All classified cells of one regime-map sweep.

    Attributes:
        cells: cells in submission (grid) order.
        deadlines / distances_m / loads / fidelities: the swept axes.
    """

    cells: tuple[RegimeCell, ...]
    deadlines: tuple[float, ...]
    distances_m: tuple[float, ...]
    loads: tuple[float, ...]
    fidelities: tuple[float, ...]

    def cell(
        self, deadline: float, distance_m: float, load: float, fidelity: float
    ) -> RegimeCell:
        """Look one cell up by its coordinates."""
        key = (deadline, distance_m, load, fidelity)
        for cell in self.cells:
            if cell.key == key:
                return cell
        raise KeyError(f"no cell at {key}")

    def counts(self) -> dict[str, int]:
        """Verdict histogram over all cells."""
        out = {VERDICT_QUANTUM: 0, VERDICT_SHARED: 0, VERDICT_COORDINATION: 0}
        for cell in self.cells:
            out[cell.verdict] += 1
        return out

    def quantum_cells(self) -> list[RegimeCell]:
        """The cells where pre-shared entanglement wins."""
        return [c for c in self.cells if c.verdict == VERDICT_QUANTUM]

    def slices(self) -> list[tuple[float, float, list[list[str]]]]:
        """Phase diagrams, one per (distance, fidelity) slice.

        Each entry is ``(distance_m, fidelity, grid)`` where ``grid``
        has one row per deadline (ascending) and one column per load
        (ascending), holding verdict letters.
        """
        out = []
        for distance in self.distances_m:
            for fidelity in self.fidelities:
                grid = [
                    [
                        self.cell(deadline, distance, load, fidelity).letter
                        for load in self.loads
                    ]
                    for deadline in self.deadlines
                ]
                out.append((distance, fidelity, grid))
        return out

    def to_dict(self) -> dict:
        """JSON-serializable sweep record (axes, counts, cells)."""
        return {
            "deadlines": list(self.deadlines),
            "distances_m": list(self.distances_m),
            "loads": list(self.loads),
            "fidelities": list(self.fidelities),
            "counts": self.counts(),
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _delay_score(result) -> float:
    """Comparable mean queueing delay; an empty run loses outright."""
    stats = result.delay_stats
    if stats.is_empty:
        return float("inf")
    return stats.mean


def _cell_seed(streams, tag: str, role: str) -> int:
    """A per-(cell, role) DES seed from the cell's substream."""
    return int(streams.fresh(f"{tag}:{role}").integers(0, 2**31 - 1))


def _evaluate_cell(config: dict, seed: int) -> RegimeCell:
    """Classify one (deadline, distance, load, fidelity) cell.

    A pure function of (config, seed): all randomness flows through
    :class:`~repro.sim.RandomStreams` substreams named by the cell's
    coordinates, so the verdict is independent of cell order and worker
    count — the property the regime parity suite pins down.
    """
    from repro.games.chsh import CHSH_CLASSICAL_VALUE
    from repro.hardware.budget import required_fidelity_for_advantage
    from repro.lb.des_adapter import run_des_experiment
    from repro.net.latency import (
        LatencyModel,
        deadline_limited_availability,
        effective_win_probability,
    )
    from repro.quantum.entangle import werner_state
    from repro.sim import RandomStreams

    deadline = float(config["deadline"])
    distance_m = float(config["distance_m"])
    load = float(config["load"])
    fidelity = float(config["fidelity"])
    service_time = float(config["service_time"])
    num_balancers = int(config["num_balancers"])
    num_servers = int(config["num_servers"])
    horizon = float(config["horizon"])
    pair_rate = float(config["pair_rate"])
    storage_limit = float(config["storage_limit"])

    model = LatencyModel(distance_m=distance_m, deadline=deadline)
    arrival_rate = load / service_time  # per-balancer, per-QNIC
    availability = (
        deadline_limited_availability(
            model,
            pair_rate=pair_rate,
            request_rate=arrival_rate,
            storage_limit=storage_limit,
        )
        if model.buffering_window(storage_limit) > 0
        else 0.0
    )
    quantum_win = effective_win_probability(
        model,
        fidelity=fidelity,
        pair_rate=pair_rate,
        request_rate=arrival_rate,
        storage_limit=storage_limit,
    )
    classical_win = CHSH_CLASSICAL_VALUE
    remote = model.can_route_remotely()
    coordination = model.can_query_and_respond()

    streams = RandomStreams(seed)
    tag = (
        f"regime:D={deadline!r}:d={distance_m!r}"
        f":load={load!r}:F={fidelity!r}"
    )
    des_kwargs = dict(
        num_balancers=num_balancers,
        num_servers=num_servers,
        horizon=horizon,
        arrival_rate=arrival_rate,
        service_time=service_time,
    )
    registry = get_registry()
    quantum_result = run_des_experiment(
        policy="quantum",
        state=werner_state(fidelity),
        seed=_cell_seed(streams, tag, "quantum"),
        **des_kwargs,
    )
    shared_result = run_des_experiment(
        policy="quantum",
        state=werner_state(required_fidelity_for_advantage()),
        seed=_cell_seed(streams, tag, "shared"),
        **des_kwargs,
    )
    des_runs = 2
    coordination_delay = float("nan")
    coordination_score = float("inf")
    if coordination:
        coordination_result = run_des_experiment(
            policy="coordinated",
            coordination_rtt=model.rtt,
            seed=_cell_seed(streams, tag, "coordinated"),
            **des_kwargs,
        )
        des_runs += 1
        coordination_delay = coordination_result.delay_stats.mean
        coordination_score = _delay_score(coordination_result)
    if registry.enabled:
        registry.counter("regime.des_runs").inc(des_runs)

    # Correlation tier: quantum must clear the shared-randomness value
    # strictly (a threshold-fidelity pair ties at exactly 3/4 and the
    # tie goes classical — entanglement that buys nothing is not worth
    # provisioning).
    champion = (
        VERDICT_QUANTUM
        if remote and quantum_win > classical_win
        else VERDICT_SHARED
    )
    champion_score = _delay_score(
        quantum_result if champion == VERDICT_QUANTUM else shared_result
    )
    # Queueing tier: a feasible query-and-respond takes the cell when
    # its measured delay (RTT included) beats the champion's.
    verdict = champion
    if coordination and coordination_score < champion_score:
        verdict = VERDICT_COORDINATION

    return RegimeCell(
        deadline=deadline,
        distance_m=distance_m,
        load=load,
        fidelity=fidelity,
        one_way_delay=model.one_way_delay,
        rtt=model.rtt,
        availability=availability,
        quantum_win=quantum_win,
        classical_win=classical_win,
        remote_routing_feasible=remote,
        coordination_feasible=coordination,
        quantum_delay=quantum_result.delay_stats.mean,
        shared_delay=shared_result.delay_stats.mean,
        coordination_delay=coordination_delay,
        verdict=verdict,
    )


def _validate_axis(name: str, values: Sequence[float]) -> tuple[float, ...]:
    if not values:
        raise ConfigurationError(f"need at least one {name} value")
    out = tuple(float(v) for v in values)
    if any(v < 0 for v in out):
        raise ConfigurationError(f"{name} values must be non-negative: {out}")
    if len(set(out)) != len(out):
        raise ConfigurationError(f"duplicate {name} values: {out}")
    return out


def check_regime_arguments(
    *,
    deadlines: Sequence[float],
    distances_m: Sequence[float],
    loads: Sequence[float],
    fidelities: Sequence[float],
    num_balancers: int,
    num_servers: int | None = None,
    service_time: float,
    horizon_services: float,
) -> tuple[
    tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...], int
]:
    """Validate a regime map's grid and fleet before anything runs.

    Raises :class:`ConfigurationError` for arguments no cell accepts and
    returns the axes as float tuples ``(deadlines, distances, loads,
    fidelities)`` plus the resolved server count. The arguments mean
    what they mean for :func:`regime_map_detailed`, which calls this
    first; the CLI calls it to report bad arguments as usage errors.
    """
    deadlines = _validate_axis("deadline", deadlines)
    distances = _validate_axis("distance", distances_m)
    loads_axis = _validate_axis("load", loads)
    fidelities_axis = _validate_axis("fidelity", fidelities)
    if any(f > 1.0 for f in fidelities_axis):
        raise ConfigurationError(f"fidelities must be <= 1: {fidelities_axis}")
    if any(load <= 0 for load in loads_axis):
        raise ConfigurationError(f"loads must be positive: {loads_axis}")
    if num_balancers < 2 or num_balancers % 2 == 1:
        raise ConfigurationError(
            f"num_balancers must be even and >= 2, got {num_balancers}"
        )
    if service_time <= 0 or horizon_services <= 0:
        raise ConfigurationError(
            "service_time and horizon_services must be positive"
        )
    resolved_servers = num_balancers if num_servers is None else int(num_servers)
    if resolved_servers < 2:
        raise ConfigurationError(
            f"need at least two servers, got {resolved_servers}"
        )
    return deadlines, distances, loads_axis, fidelities_axis, resolved_servers


def regime_map_detailed(
    *,
    deadlines: Sequence[float] = DEFAULT_DEADLINES,
    distances_m: Sequence[float] = DEFAULT_DISTANCES_M,
    loads: Sequence[float] = DEFAULT_LOADS,
    fidelities: Sequence[float] = DEFAULT_FIDELITIES,
    num_balancers: int = 8,
    num_servers: int | None = None,
    service_time: float = 1e-3,
    horizon_services: float = 120.0,
    pair_rate: float = 5e3,
    storage_limit: float = 2e-4,
    seed: int = 0,
    jobs: int | None = 1,
    cache=False,
    cache_dir=None,
    progress=None,
) -> tuple[RegimeMapResult, RunReport]:
    """Like :func:`regime_map`, also returning the execution report.

    Args:
        deadlines: decision deadlines in seconds.
        distances_m: site separations in meters.
        loads: offered load per server (``arrival_rate * service_time``).
        fidelities: Werner fidelities of the delivered pairs.
        num_balancers: DES fleet size (even; Bell pairs are disjoint).
        num_servers: DES server count (defaults to ``num_balancers`` so
            ``load`` is exactly per-server utilization).
        service_time: task execution time in seconds; pick it near the
            RTT scale of the distances under study (the §4.1 caveat).
        horizon_services: DES horizon in units of ``service_time``.
        pair_rate: delivered Bell pairs per second per balancer pair.
        storage_limit: QNIC buffering window in seconds.
        seed: root seed; every cell derives its own substreams.
        jobs / cache / cache_dir / progress: forwarded to
            :class:`~repro.exec.SweepRunner`.
    """
    deadlines, distances, loads_axis, fidelities_axis, resolved_servers = (
        check_regime_arguments(
            deadlines=deadlines,
            distances_m=distances_m,
            loads=loads,
            fidelities=fidelities,
            num_balancers=num_balancers,
            num_servers=num_servers,
            service_time=service_time,
            horizon_services=horizon_services,
        )
    )
    base_config = {
        "num_balancers": num_balancers,
        "num_servers": resolved_servers,
        "service_time": service_time,
        "horizon": horizon_services * service_time,
        "pair_rate": pair_rate,
        "storage_limit": storage_limit,
    }
    points = [
        (
            {
                **base_config,
                "deadline": deadline,
                "distance_m": distance,
                "load": load,
                "fidelity": fidelity,
            },
            seed,
        )
        for distance in distances
        for fidelity in fidelities_axis
        for deadline in deadlines
        for load in loads_axis
    ]
    runner = SweepRunner(
        _evaluate_cell,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        label="regime",
        progress=progress,
    )
    report = runner.run(points)
    result = RegimeMapResult(
        cells=tuple(report.values()),
        deadlines=deadlines,
        distances_m=distances,
        loads=loads_axis,
        fidelities=fidelities_axis,
    )
    registry = get_registry()
    if registry.enabled:
        counts = result.counts()
        registry.counter("regime.cells").inc(len(result.cells))
        registry.counter("regime.quantum_wins").inc(counts[VERDICT_QUANTUM])
        registry.counter("regime.shared_wins").inc(counts[VERDICT_SHARED])
        registry.counter("regime.coordination_wins").inc(
            counts[VERDICT_COORDINATION]
        )
        registry.gauge("regime.quantum_fraction").set(
            counts[VERDICT_QUANTUM] / len(result.cells)
        )
    return result, report


def regime_map(**kwargs) -> RegimeMapResult:
    """Sweep the latency-constrained advantage regime map.

    See :func:`regime_map_detailed` for every knob. Returns the
    classified :class:`RegimeMapResult`; cells are bit-identical across
    ``jobs`` worker counts and across cell orderings.
    """
    result, _ = regime_map_detailed(**kwargs)
    return result
