"""Fault injection and graceful degradation for the Fig 4 policies.

The paper's architecture (§3) only pays off if correlated decisions
survive real impairments: finite pair rates, 100 µs–1 ms storage
windows, heralded fiber loss, and sub-unit fidelity. This module threads
the :mod:`repro.hardware` plane through the queueing simulation:

- :class:`PairFaultModel` subclasses draw per-step, per-pair liveness —
  i.i.d. Bernoulli supply (:class:`BernoulliPairFaults`, optionally
  calibrated from :func:`repro.hardware.scheduler
  .simulate_pair_availability` and a heralded erasure) or correlated
  outage bursts (:class:`OutagePairFaults`, a two-state Gilbert–Elliott
  chain).
- :class:`DegradedPolicy` wraps a paired quantum strategy: live pairs
  sample the (Werner / :meth:`EntanglementDistributor.effective_state`)
  behavior table degraded by QNIC detector noise
  (:func:`repro.hardware.qnic.apply_measurement_flips`); lost, expired,
  or erased pairs fall back to the best classical paired strategy or to
  uniform random routing. Its one batched path (``assign_batch``)
  serves both engines, so they agree per seed, reports included.
- :class:`DegradationReport` records the observability the run results
  carry: fallback fraction, effective quantum decision rate, and the
  deliverable win probability via :func:`repro.hardware.scheduler
  .effective_win_probability`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._blocks import uniform_blocks
from repro.errors import ConfigurationError, HardwareError, StrategyError
from repro.games.chsh import (
    chsh_colocation_game,
    colocation_classical_strategy,
    colocation_quantum_strategy,
)
from repro.games.strategies import Strategy
from repro.hardware.qnic import apply_measurement_flips
from repro.hardware.scheduler import (
    effective_win_probability,
    simulate_pair_availability,
)
from repro.lb.policies import (
    GroupAssignment,
    _input_blocks,
    _sample_routes,
    behavior_sampling_tables,
)
from repro.quantum.entangle import werner_state

__all__ = [
    "PairFaultModel",
    "BernoulliPairFaults",
    "OutagePairFaults",
    "DegradationReport",
    "DegradedPolicy",
    "make_degraded_chsh",
]


class PairFaultModel:
    """Draws pair liveness per (timestep, balancer pair).

    Implementations must draw all randomness from the ``rng`` they are
    handed (the policy stream), and :meth:`sample` must leave any model
    state as if the steps had been drawn one at a time, so consecutive
    chunks continue each other.
    """

    def availability(self) -> float:
        """Stationary probability a decision finds a live pair."""
        raise NotImplementedError

    def sample(
        self, steps: int, num_pairs: int, rng: np.random.Generator
    ) -> np.ndarray:
        """A ``(steps, num_pairs)`` boolean liveness matrix."""
        raise NotImplementedError


class BernoulliPairFaults(PairFaultModel):
    """Independent per-decision pair availability.

    The memoryless supply model: each decision finds a live pair with
    probability ``availability``, independent across steps and pairs —
    the regime of a fast source feeding a short storage window, where
    pair lifetimes are far below the timestep.
    """

    def __init__(self, availability: float) -> None:
        if not 0.0 <= availability <= 1.0:
            raise HardwareError(
                f"availability {availability} outside [0, 1]"
            )
        self._availability = float(availability)

    def availability(self) -> float:
        return self._availability

    def sample(self, steps, num_pairs, rng):
        if steps < 1 or num_pairs < 0:
            raise ConfigurationError("need steps >= 1 and num_pairs >= 0")
        # The uniforms of one (steps, num_pairs) draw, a block at a time.
        live = np.empty((steps, num_pairs), dtype=bool)
        for part, uniform in uniform_blocks(rng, steps, num_pairs):
            np.less(uniform, self._availability, out=live[part])
        return live

    @classmethod
    def from_supply(
        cls,
        pair_rate: float,
        request_rate: float,
        storage_limit: float,
        *,
        buffer_size: int = 1,
        erasure=None,
        seed: int = 0,
    ) -> "BernoulliPairFaults":
        """Calibrate availability from the supply-side DES simulation.

        ``erasure`` may be a :class:`repro.quantum.channels
        .HeraldedErasure` (e.g. ``FiberChannel.heralded_erasure()`` or
        ``EntanglementDistributor.pair_erasure()``); its survival
        probability thins the delivered pair rate *before* the
        produce/expire/consume simulation, so detected photon loss
        surfaces as "pair lost" fallbacks rather than as silent noise.
        """
        if erasure is not None:
            pair_rate = pair_rate * erasure.survival_probability
        return cls(
            simulate_pair_availability(
                pair_rate,
                request_rate,
                storage_limit,
                buffer_size=buffer_size,
                seed=seed,
            )
        )


class OutagePairFaults(PairFaultModel):
    """Correlated outage bursts: a two-state Gilbert–Elliott chain per pair.

    Each pair's supply is either up or down; a down spell lasts
    ``mean_outage_steps`` timesteps on average (geometric), and the
    up-to-down rate is chosen so the stationary up fraction equals
    ``availability``. Models source dropouts, link flaps, and QNIC
    resets — failure modes where losses cluster instead of thinning
    uniformly, which hits queues harder at the same average
    availability.
    """

    def __init__(self, availability: float, mean_outage_steps: float) -> None:
        if not 0.0 <= availability <= 1.0:
            raise HardwareError(
                f"availability {availability} outside [0, 1]"
            )
        if mean_outage_steps < 1.0:
            raise HardwareError(
                f"mean_outage_steps {mean_outage_steps} below 1 step"
            )
        self._availability = float(availability)
        self._recovery = 1.0 / float(mean_outage_steps)  # P(down -> up)
        if availability in (0.0, 1.0):
            # Absorbing chains: never fail, or never recover.
            self._failure = 0.0 if availability == 1.0 else 1.0
            if availability == 0.0:
                self._recovery = 0.0
        else:
            # Stationary up fraction a = recovery / (recovery + failure).
            self._failure = self._recovery * (1.0 - availability) / availability
            if self._failure > 1.0:
                raise HardwareError(
                    f"availability {availability} with mean outage "
                    f"{mean_outage_steps} steps needs an up->down "
                    "probability above 1; lengthen the outages or raise "
                    "the availability"
                )
        self._state: np.ndarray | None = None

    def availability(self) -> float:
        return self._availability

    def sample(self, steps, num_pairs, rng):
        if steps < 1 or num_pairs < 0:
            raise ConfigurationError("need steps >= 1 and num_pairs >= 0")
        if self._state is None or self._state.size != num_pairs:
            # Start each pair's chain in its stationary distribution.
            self._state = rng.random(num_pairs) < self._availability
        out = np.empty((steps, num_pairs), dtype=bool)
        state = self._state
        for t in range(steps):
            out[t] = state
            u = rng.random(num_pairs)
            state = np.where(state, u >= self._failure, u < self._recovery)
        self._state = state
        return out


@dataclass(frozen=True)
class DegradationReport:
    """Degradation observability attached to a simulation result.

    Attributes:
        pair_decisions: paired routing decisions taken (per pair, per
            executed step; excludes the odd unpaired balancer).
        quantum_decisions: decisions backed by a live entangled pair.
        fallback_decisions: decisions that fell back classically.
        availability: the fault model's stationary availability.
        quantum_win_probability: exact colocation-game win probability
            of the (noise- and detector-degraded) quantum behavior.
        fallback_win_probability: same for the fallback strategy.
    """

    pair_decisions: int
    quantum_decisions: int
    fallback_decisions: int
    availability: float
    quantum_win_probability: float
    fallback_win_probability: float

    @property
    def fallback_fraction(self) -> float:
        """Realized fraction of decisions that fell back classically."""
        if self.pair_decisions == 0:
            return 0.0
        return self.fallback_decisions / self.pair_decisions

    @property
    def quantum_decision_rate(self) -> float:
        """Realized fraction of decisions backed by a live pair."""
        if self.pair_decisions == 0:
            return 0.0
        return self.quantum_decisions / self.pair_decisions

    @property
    def effective_win_probability(self) -> float:
        """Deliverable win rate: the realized quantum/fallback blend."""
        return effective_win_probability(
            self.quantum_decision_rate,
            self.quantum_win_probability,
            self.fallback_win_probability,
        )

    def to_dict(self) -> dict:
        """JSON-serializable summary (fields plus derived rates) for
        run manifests and CLI telemetry."""
        return {
            "pair_decisions": self.pair_decisions,
            "quantum_decisions": self.quantum_decisions,
            "fallback_decisions": self.fallback_decisions,
            "availability": self.availability,
            "quantum_win_probability": self.quantum_win_probability,
            "fallback_win_probability": self.fallback_win_probability,
            "fallback_fraction": self.fallback_fraction,
            "quantum_decision_rate": self.quantum_decision_rate,
            "effective_win_probability": self.effective_win_probability,
        }


class DegradedPolicy(GroupAssignment):
    """A paired quantum policy that degrades gracefully under faults.

    Per step and per pair, ``faults`` draws whether a live entangled
    pair backs the decision. Live pairs sample the quantum strategy's
    behavior table — the exact Born statistics of the (possibly Werner /
    distributor-impaired) shared state, convolved with each QNIC's
    detector-flip probability. Dead pairs (lost, expired, or heralded
    erased) fall back to the pre-agreed classical strategy: the optimal
    classical paired strategy by default, or uniform random routing with
    ``fallback="random"``.

    The shared-randomness server-pair draw happens in *every* round —
    pre-agreed randomness does not depend on the quantum channel — so at
    ``availability=0`` the policy is behaviorally identical to
    :class:`~repro.lb.policies.ClassicalPairedAssignment` (or
    :class:`~repro.lb.policies.RandomAssignment` for the random
    fallback), and at ``availability=1`` with a perfect state it matches
    :class:`~repro.lb.policies.CHSHPairedAssignment`.

    Both engines draw through :meth:`assign_batch`, so a seed gives the
    same run and the same :class:`DegradationReport` on either; a run
    that stops early clamps the report to its executed steps
    (:meth:`note_executed_steps`).
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        *,
        faults: PairFaultModel,
        strategy: Strategy | None = None,
        state=None,
        fidelity: float | None = None,
        fallback: str | Strategy = "classical",
        measurement_error_a: float = 0.0,
        measurement_error_b: float = 0.0,
    ) -> None:
        if not isinstance(faults, PairFaultModel):
            raise ConfigurationError(
                f"faults must be a PairFaultModel, got {type(faults).__name__}"
            )
        if strategy is not None and (state is not None or fidelity is not None):
            raise ConfigurationError(
                "pass either an explicit strategy or a state/fidelity, not both"
            )
        if strategy is None:
            if state is None:
                state = werner_state(1.0 if fidelity is None else fidelity)
            elif fidelity is not None:
                raise ConfigurationError("pass either state or fidelity")
            strategy = colocation_quantum_strategy(state)
        quantum_behavior = apply_measurement_flips(
            strategy.behavior(), measurement_error_a, measurement_error_b
        )
        super().__init__(num_balancers, num_servers, quantum_behavior)
        self._faults = faults
        self._fallback_random = False
        self._tables = self._flat_cumulative
        if fallback == "random":
            self._fallback_random = True
            fallback_behavior = None
        else:
            if fallback == "classical":
                fallback = colocation_classical_strategy()
            elif not isinstance(fallback, Strategy):
                raise ConfigurationError(
                    f"fallback must be 'classical', 'random', or a "
                    f"Strategy, got {fallback!r}"
                )
            fallback_behavior = fallback.behavior()
            fb_inputs, fallback_flat = behavior_sampling_tables(
                fallback_behavior
            )
            if fb_inputs != self._num_inputs:
                raise StrategyError(
                    f"fallback input alphabet {fb_inputs} != quantum "
                    f"alphabet {self._num_inputs}"
                )
            # Live pairs sample from the first half of these stacked
            # tables and dead pairs from the second.
            self._tables = np.concatenate(
                [self._flat_cumulative, fallback_flat]
            )
        game = chsh_colocation_game()
        self._quantum_win = game.value_of_behavior(quantum_behavior)
        if fallback_behavior is not None:
            self._fallback_win = game.value_of_behavior(fallback_behavior)
        else:
            # Uniform independent routing colocates with probability 1/M;
            # the colocation predicate depends only on a XOR b.
            p_co = 1.0 / num_servers
            win = 0.0
            for (x, y), weight in np.ndenumerate(game.prob_mat):
                same = game.pred_mat[0, 0, x, y]
                split = game.pred_mat[0, 1, x, y]
                win += weight * (p_co * same + (1.0 - p_co) * split)
            self._fallback_win = win
        self._quantum_per_step: list[int] = []
        self._fallback_per_step: list[int] = []
        self._executed_steps: int | None = None

    @classmethod
    def from_hardware(
        cls,
        num_balancers: int,
        num_servers: int,
        distributor,
        *,
        request_rate: float,
        storage_a: float = 0.0,
        storage_b: float = 0.0,
        buffer_size: int = 1,
        supply_seed: int = 0,
        fallback: str | Strategy = "classical",
        **kwargs,
    ) -> "DegradedPolicy":
        """Build the policy an :class:`EntanglementDistributor` delivers.

        The shared state is ``distributor.effective_state(storage_a,
        storage_b)`` (source infidelity + fiber depolarization + storage
        decoherence); availability comes from the supply DES at the
        *delivered* pair rate — fiber loss is heralded, so it thins the
        supply instead of noising the state — and each QNIC's
        ``measurement_error`` flips its party's outcomes. Storage beyond
        a QNIC window raises ``HardwareError``, exactly as the
        distribution plane does: such a pair is simply gone.
        """
        state = distributor.effective_state(storage_a, storage_b)
        storage_limit = min(
            distributor.qnic_a.storage_limit, distributor.qnic_b.storage_limit
        )
        faults = BernoulliPairFaults.from_supply(
            distributor.delivered_pair_rate(),
            request_rate,
            storage_limit,
            buffer_size=buffer_size,
            seed=supply_seed,
        )
        return cls(
            num_balancers,
            num_servers,
            faults=faults,
            state=state,
            fallback=fallback,
            measurement_error_a=distributor.qnic_a.measurement_error,
            measurement_error_b=distributor.qnic_b.measurement_error,
            **kwargs,
        )

    # -- degradation observability -----------------------------------------

    @property
    def fault_config(self) -> dict:
        """The fault-plane settings this policy runs under, as plain
        data for run manifests and CLI telemetry."""
        return {
            "model": type(self._faults).__name__,
            "availability": self._faults.availability(),
            "fallback": "random" if self._fallback_random else "strategy",
        }

    def note_executed_steps(self, steps: int) -> None:
        """Clamp the report to the steps a run actually executed (both
        engines draw a whole chunk up front but may stop inside it)."""
        self._executed_steps = int(steps)

    def degradation_report(self) -> DegradationReport:
        """The realized degradation statistics of the run so far."""
        limit = (
            len(self._quantum_per_step)
            if self._executed_steps is None
            else min(self._executed_steps, len(self._quantum_per_step))
        )
        quantum = int(sum(self._quantum_per_step[:limit]))
        fallback = int(sum(self._fallback_per_step[:limit]))
        return DegradationReport(
            pair_decisions=quantum + fallback,
            quantum_decisions=quantum,
            fallback_decisions=fallback,
            availability=self._faults.availability(),
            quantum_win_probability=self._quantum_win,
            fallback_win_probability=self._fallback_win,
        )

    # -- assignment ---------------------------------------------------------

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        steps, n = tasks.shape
        num_pairs = n // 2
        choices = np.empty((steps, n), dtype=np.int32)
        live = self._faults.sample(steps, num_pairs, rng)
        if num_pairs:
            block = _input_blocks(
                tasks, self._num_inputs, num_pairs,
                np.min_scalar_type(self._tables.size),
            )
            s0, s1 = self._server_pair_batch(steps, num_pairs, rng)
            if self._fallback_random:
                _sample_routes(choices, self._tables, 2, block, rng, s0, s1)
                dead = np.logical_not(live)
                for j in range(2):
                    fallback = rng.integers(
                        0, self.num_servers, size=live.shape, dtype=np.int32
                    )
                    np.copyto(
                        choices[:, j : 2 * num_pairs : 2], fallback, where=dead
                    )
            else:
                # Dead pairs read the fallback half of the stacked tables.
                _sample_routes(
                    choices, self._tables, 2, block, rng, s0, s1, live
                )
        if n % 2 == 1:
            choices[:, -1] = rng.integers(
                0, self.num_servers, size=steps, dtype=np.int32
            )
        per_step_quantum = live.sum(axis=1)
        self._quantum_per_step.extend(int(q) for q in per_step_quantum)
        self._fallback_per_step.extend(
            int(num_pairs - q) for q in per_step_quantum
        )
        return choices


def make_degraded_chsh(
    num_balancers: int,
    num_servers: int,
    *,
    fidelity: float = 1.0,
    availability: float = 1.0,
    mean_outage_steps: float = 0.0,
    fallback: str = "classical",
    measurement_error: float = 0.0,
) -> DegradedPolicy:
    """Factory for degraded CHSH sweeps (CLI, benchmarks, ``sweep_load``).

    Module-level and keyword-driven so ``sweep_load(...,
    policy_kwargs=...)`` configs stay picklable and cache-fingerprintable.
    ``mean_outage_steps > 0`` switches the i.i.d. supply model to
    correlated outage bursts of that mean length; ``measurement_error``
    applies symmetrically to both QNICs.
    """
    if mean_outage_steps > 0:
        faults: PairFaultModel = OutagePairFaults(
            availability, mean_outage_steps
        )
    else:
        faults = BernoulliPairFaults(availability)
    return DegradedPolicy(
        num_balancers,
        num_servers,
        faults=faults,
        fidelity=fidelity,
        fallback=fallback,
        measurement_error_a=measurement_error,
        measurement_error_b=measurement_error,
    )
