"""Tests for the fault-injection / graceful-degradation layer.

Covers the acceptance criteria of the fault-plane wiring:

- at ``fidelity=1, availability=1`` the degraded CHSH policy reproduces
  the undegraded Fig 4 curve (distributionally, 95% CIs over 20 seeds);
- at ``availability=0`` (or Werner visibility below 1/sqrt(2)) the mean
  queue is statistically indistinguishable from the classical-paired
  baseline;
- engine parity for degraded policies is exact: both engines draw each
  chunk through ``assign_batch``, so a seed gives the same run and the
  same report on either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, HardwareError, StrategyError
from repro.games.chsh import CHSH_QUANTUM_VALUE
from repro.hardware import required_fidelity_for_advantage
from repro.lb import (
    BernoulliPairFaults,
    CHSHPairedAssignment,
    ClassicalPairedAssignment,
    DegradedPolicy,
    OutagePairFaults,
    RandomAssignment,
    make_degraded_chsh,
    run_timestep_simulation,
    sweep_load,
)
from repro.lb.degradation import PairFaultModel

from tests._stattools import (
    assert_ci_overlap,
    confidence_interval,
    run_pair,
    seeds_mean_queue,
)


class TestFaultModels:
    def test_bernoulli_hits_requested_rate(self):
        faults = BernoulliPairFaults(0.65)
        draw = faults.sample(5000, 8, np.random.default_rng(0))
        assert draw.shape == (5000, 8)
        assert draw.mean() == pytest.approx(0.65, abs=0.02)
        assert faults.availability() == 0.65

    def test_bernoulli_edge_probabilities(self):
        rng = np.random.default_rng(1)
        assert BernoulliPairFaults(1.0).sample(50, 3, rng).all()
        assert not BernoulliPairFaults(0.0).sample(50, 3, rng).any()

    def test_bernoulli_from_supply(self):
        from repro.hardware.scheduler import simulate_pair_availability

        faults = BernoulliPairFaults.from_supply(1e4, 1e4, 2e-4, seed=3)
        expected = simulate_pair_availability(1e4, 1e4, 2e-4, seed=3)
        assert faults.availability() == expected

    def test_bernoulli_from_supply_with_erasure(self):
        from repro.quantum.channels import HeraldedErasure

        lossless = BernoulliPairFaults.from_supply(1e4, 1e4, 2e-4, seed=3)
        lossy = BernoulliPairFaults.from_supply(
            1e4, 1e4, 2e-4, seed=3, erasure=HeraldedErasure(0.5)
        )
        # Heralded loss thins the supply, so availability drops.
        assert lossy.availability() < lossless.availability()

    def test_outage_stationary_availability(self):
        faults = OutagePairFaults(0.7, 20.0)
        draw = faults.sample(20_000, 4, np.random.default_rng(2))
        assert draw.mean() == pytest.approx(0.7, abs=0.02)
        assert faults.availability() == 0.7

    def test_outage_burst_length(self):
        faults = OutagePairFaults(0.5, 25.0)
        trace = faults.sample(200_000, 1, np.random.default_rng(4))[:, 0]
        # Mean length of maximal down-runs should match the target.
        down = ~trace
        starts = down & np.concatenate(([True], ~down[:-1]))
        bursts = starts.sum()
        assert down.sum() / bursts == pytest.approx(25.0, rel=0.1)

    def test_outage_bursts_are_correlated(self):
        burst = OutagePairFaults(0.5, 50.0)
        trace = burst.sample(50_000, 1, np.random.default_rng(5))[:, 0]
        # Lag-1 agreement far above the 0.5 an i.i.d. draw would give.
        agreement = (trace[1:] == trace[:-1]).mean()
        assert agreement > 0.9

    def test_outage_chunked_sampling_continues_state(self):
        whole = OutagePairFaults(0.6, 10.0)
        chunked = OutagePairFaults(0.6, 10.0)
        full = whole.sample(200, 3, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        parts = np.concatenate(
            [chunked.sample(50, 3, rng) for _ in range(4)]
        )
        assert np.array_equal(full, parts)

    def test_outage_edge_availabilities(self):
        rng = np.random.default_rng(7)
        assert OutagePairFaults(1.0, 10.0).sample(50, 2, rng).all()
        assert not OutagePairFaults(0.0, 10.0).sample(50, 2, rng).any()

    def test_validation(self):
        with pytest.raises(HardwareError):
            BernoulliPairFaults(1.5)
        with pytest.raises(HardwareError):
            OutagePairFaults(0.5, 0.5)
        with pytest.raises(HardwareError):
            # availability 0.01 with 2-step outages needs p(up->down) > 1.
            OutagePairFaults(0.01, 2.0)
        with pytest.raises(ConfigurationError):
            BernoulliPairFaults(0.5).sample(0, 4, np.random.default_rng(0))


class TestDegradedPolicyConstruction:
    def test_report_win_probabilities(self):
        policy = make_degraded_chsh(8, 8)
        report = policy.degradation_report()
        assert report.quantum_win_probability == pytest.approx(
            CHSH_QUANTUM_VALUE
        )
        assert report.fallback_win_probability == pytest.approx(0.75)

    def test_random_fallback_win_probability(self):
        policy = make_degraded_chsh(8, 8, fallback="random")
        # Uniform routing into M=8 servers colocates w.p. 1/8; three of
        # four input pairs want a split.
        expected = (3 * (1 - 1 / 8) + 1 / 8) / 4
        report = policy.degradation_report()
        assert report.fallback_win_probability == pytest.approx(expected)

    def test_fidelity_lowers_quantum_win(self):
        clean = make_degraded_chsh(8, 8).degradation_report()
        noisy = make_degraded_chsh(8, 8, fidelity=0.9).degradation_report()
        assert noisy.quantum_win_probability < clean.quantum_win_probability

    def test_measurement_error_lowers_quantum_win(self):
        clean = make_degraded_chsh(8, 8).degradation_report()
        noisy = make_degraded_chsh(
            8, 8, measurement_error=0.05
        ).degradation_report()
        assert noisy.quantum_win_probability < clean.quantum_win_probability

    def test_werner_threshold_crossing(self):
        threshold = required_fidelity_for_advantage()
        above = make_degraded_chsh(8, 8, fidelity=threshold + 0.01)
        below = make_degraded_chsh(8, 8, fidelity=threshold - 0.01)
        assert above.degradation_report().quantum_win_probability > 0.75
        assert below.degradation_report().quantum_win_probability < 0.75

    def test_from_hardware_composes_the_plane(self):
        from repro.hardware import (
            QNIC,
            EntanglementDistributor,
            FiberChannel,
            SPDCSource,
        )

        dist = EntanglementDistributor(
            SPDCSource(pair_rate=1e6, fidelity=0.97),
            FiberChannel(length_m=10_000.0),
            FiberChannel(length_m=10_000.0),
            QNIC(measurement_error=0.02),
            QNIC(measurement_error=0.02),
        )
        policy = DegradedPolicy.from_hardware(
            10, 10, dist, request_rate=1e4, storage_a=20e-6, storage_b=20e-6
        )
        report = policy.degradation_report()
        # Source infidelity + fiber + storage + detector noise all bite.
        assert report.quantum_win_probability < CHSH_QUANTUM_VALUE
        assert 0.0 < report.availability <= 1.0

    def test_validation(self):
        from repro.games.chsh import colocation_quantum_strategy

        with pytest.raises(ConfigurationError):
            DegradedPolicy(8, 8, faults="not a model")
        with pytest.raises(ConfigurationError):
            DegradedPolicy(
                8,
                8,
                faults=BernoulliPairFaults(1.0),
                strategy=colocation_quantum_strategy(),
                fidelity=0.9,
            )
        with pytest.raises(ConfigurationError):
            make_degraded_chsh(8, 8, fallback="telepathy")
        with pytest.raises(ConfigurationError):
            make_degraded_chsh(8, 8, fidelity=1.2)


class TestDegradationReporting:
    def test_plain_policies_report_none(self):
        result = run_timestep_simulation(
            CHSHPairedAssignment(10, 8), timesteps=50, seed=0
        )
        assert result.degradation is None

    def test_report_attached_and_counts_add_up(self):
        for engine in ("reference", "vectorized"):
            result = run_timestep_simulation(
                make_degraded_chsh(10, 8, availability=0.5),
                timesteps=80,
                seed=1,
                engine=engine,
            )
            report = result.degradation
            assert report is not None
            assert report.pair_decisions == 80 * 5
            assert (
                report.quantum_decisions + report.fallback_decisions
                == report.pair_decisions
            )
            assert report.quantum_decision_rate == pytest.approx(
                0.5, abs=0.1
            )
            assert report.fallback_fraction == pytest.approx(
                1.0 - report.quantum_decision_rate
            )

    def test_effective_win_blends_realized_rate(self):
        result = run_timestep_simulation(
            make_degraded_chsh(10, 8, availability=0.5),
            timesteps=200,
            seed=2,
        )
        report = result.degradation
        expected = (
            report.quantum_decision_rate * report.quantum_win_probability
            + report.fallback_fraction * report.fallback_win_probability
        )
        assert report.effective_win_probability == pytest.approx(expected)

    def test_early_stop_counts_only_executed_steps(self):
        # Overload hard so max_total_queue stops the run within a few
        # dozen steps; the batched engine draws liveness for all 3000
        # steps up front and must clamp its report to the executed
        # prefix (unclamped it would report 3000 * 30 decisions).
        for engine in ("reference", "vectorized"):
            result = run_timestep_simulation(
                make_degraded_chsh(60, 4, availability=0.5),
                timesteps=3000,
                seed=3,
                engine=engine,
                max_total_queue=400.0,
            )
            report = result.degradation
            assert report.pair_decisions % 30 == 0
            assert 0 < report.pair_decisions <= 100 * 30

    def test_empty_report_is_safe(self):
        report = make_degraded_chsh(8, 8).degradation_report()
        assert report.pair_decisions == 0
        assert report.fallback_fraction == 0.0
        assert report.quantum_decision_rate == 0.0


class TestEngineParity:
    """Exact cross-engine parity, as for every batched policy in
    tests/lb/test_engine.py."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"availability": 0.7},
            {"availability": 0.7, "fallback": "random"},
            {"availability": 0.7, "mean_outage_steps": 10.0},
            {"fidelity": 0.9, "availability": 0.8,
             "measurement_error": 0.03},
        ],
        ids=["bernoulli", "random-fallback", "outage", "noisy"],
    )
    def test_bit_identical(self, kwargs):
        for seed, chunk_steps in ((0, None), (1, 7)):
            reference, vectorized = run_pair(
                lambda n, m: make_degraded_chsh(n, m, **kwargs),
                timesteps=200,
                seed=seed,
                chunk_steps=chunk_steps,
            )
            assert reference == vectorized

    def test_odd_balancer_count(self):
        reference, vectorized = run_pair(
            lambda n, m: make_degraded_chsh(n, m, availability=0.6),
            n=15, m=9, timesteps=200, seed=3,
        )
        assert reference == vectorized

    def test_reports_agree_across_engines(self):
        """The reports match too, clamped alike when a run stops early."""
        for max_total_queue in (float("inf"), 300.0):
            reference, vectorized = run_pair(
                lambda n, m: make_degraded_chsh(n, m, availability=0.6),
                n=40, m=12, timesteps=200, seed=4, chunk_steps=16,
                max_total_queue=max_total_queue,
            )
            assert reference.degradation == vectorized.degradation
            assert reference.degradation.pair_decisions > 0


class TestAcceptance:
    """The issue's acceptance criteria, asserted distributionally."""

    def test_perfect_hardware_reproduces_undegraded_curve(self):
        degraded = seeds_mean_queue(
            lambda n, m: make_degraded_chsh(
                n, m, fidelity=1.0, availability=1.0
            )
        )
        undegraded = seeds_mean_queue(CHSHPairedAssignment)
        assert_ci_overlap(degraded, undegraded, "perfect hardware vs CHSH")

    def test_zero_availability_matches_classical_paired(self):
        dead = seeds_mean_queue(
            lambda n, m: make_degraded_chsh(n, m, availability=0.0)
        )
        classical = seeds_mean_queue(ClassicalPairedAssignment)
        assert_ci_overlap(dead, classical, "availability 0 vs classical")

    def test_zero_availability_random_fallback_matches_random(self):
        dead = seeds_mean_queue(
            lambda n, m: make_degraded_chsh(
                n, m, availability=0.0, fallback="random"
            )
        )
        random = seeds_mean_queue(RandomAssignment)
        assert_ci_overlap(dead, random, "availability 0 vs random")

    def test_subthreshold_werner_matches_classical_paired(self):
        # Just below v = 1/sqrt(2) the quantum win probability dips
        # under 3/4 and the queue curve collapses onto the classical
        # paired frontier. Asserted at load 1.0 — the knee region where
        # the quantum advantage lives; in deep overload the colocation
        # *structure* (not the game value) dominates the metric and all
        # colocating policies beat the always-split classical strategy
        # (see SameTypePairedAssignment's docstring).
        from repro.lb import SameTypePairedAssignment

        fidelity = required_fidelity_for_advantage() - 0.01
        sub = seeds_mean_queue(
            lambda n, m: make_degraded_chsh(n, m, fidelity=fidelity),
            n=20, m=20,
        )
        classical = seeds_mean_queue(ClassicalPairedAssignment, n=20, m=20)
        same_type = seeds_mean_queue(SameTypePairedAssignment, n=20, m=20)
        assert_ci_overlap(sub, classical, "subthreshold vs classical")
        assert_ci_overlap(sub, same_type, "subthreshold vs same-type")
        # At full fidelity the same operating point shows a clear
        # advantage — the edge genuinely requires v > 1/sqrt(2).
        full = seeds_mean_queue(CHSHPairedAssignment, n=20, m=20)
        full_low, full_high = confidence_interval(full)
        sub_low, sub_high = confidence_interval(sub)
        assert full_high < sub_low

    def test_degradation_monotone_in_availability(self):
        # At an overloaded operating point, less entanglement means
        # longer queues on average.
        queues = {}
        for availability in (1.0, 0.5, 0.0):
            values = seeds_mean_queue(
                lambda n, m: make_degraded_chsh(
                    n, m, availability=availability
                ),
                n=24, m=12, timesteps=300, num_seeds=10,
            )
            queues[availability] = float(np.mean(values))
        assert queues[1.0] < queues[0.0]
        assert queues[1.0] <= queues[0.5] <= queues[0.0] or (
            abs(queues[0.5] - queues[0.0]) < 0.5
        )


class TestSweepPlumbing:
    def test_policy_kwargs_reach_the_factory(self):
        points = sweep_load(
            make_degraded_chsh,
            num_balancers=12,
            loads=(1.0,),
            timesteps=60,
            policy_kwargs={"availability": 0.0},
        )
        report = points[0].result.degradation
        assert report is not None
        assert report.availability == 0.0
        assert report.fallback_fraction == 1.0

    def test_parallel_sweep_matches_serial(self):
        kwargs = dict(
            num_balancers=12,
            loads=(0.75, 1.0, 1.25),
            timesteps=60,
            policy_kwargs={"availability": 0.5, "fidelity": 0.9},
        )
        serial = sweep_load(make_degraded_chsh, jobs=1, **kwargs)
        parallel = sweep_load(make_degraded_chsh, jobs=2, **kwargs)
        assert [p.result for p in serial] == [p.result for p in parallel]

    def test_cache_key_distinguishes_policy_kwargs(self, tmp_path):
        base = dict(
            num_balancers=12,
            loads=(1.0,),
            timesteps=60,
            cache=True,
            cache_dir=tmp_path,
        )
        live = sweep_load(
            make_degraded_chsh,
            policy_kwargs={"availability": 1.0},
            **base,
        )
        dead = sweep_load(
            make_degraded_chsh,
            policy_kwargs={"availability": 0.0},
            **base,
        )
        assert live[0].result.degradation.availability == 1.0
        assert dead[0].result.degradation.availability == 0.0
        # Re-running the first config hits the cache, not the second's.
        cached = sweep_load(
            make_degraded_chsh,
            policy_kwargs={"availability": 1.0},
            **base,
        )
        assert cached[0].result == live[0].result


class TestFaultModelInterface:
    def test_base_class_is_abstract(self):
        model = PairFaultModel()
        with pytest.raises(NotImplementedError):
            model.availability()
        with pytest.raises(NotImplementedError):
            model.sample(1, 1, np.random.default_rng(0))

    def test_alien_inputs_rejected_in_both_paths(self):
        """Both engines reject inputs outside the CHSH alphabet."""
        from repro.net.workload import MultiClassTaskMix

        for engine in ("reference", "vectorized"):
            with pytest.raises(StrategyError):
                run_timestep_simulation(
                    make_degraded_chsh(4, 4),
                    timesteps=10,
                    workload=MultiClassTaskMix(4, (0.0, 0.0, 1.0)),
                    engine=engine,
                )
