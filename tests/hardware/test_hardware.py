"""Tests for the hardware realism models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import HardwareError
from repro.games.chsh import CHSH_QUANTUM_VALUE
from repro.hardware import (
    QNIC,
    EntanglementDistributor,
    FiberChannel,
    SPDCSource,
    apply_measurement_flips,
    evaluate_budget,
    required_fidelity_for_advantage,
    storage_depolarizing_probability,
)
from repro.quantum import bell_pair


def make_distributor(**overrides):
    defaults = dict(
        source=SPDCSource(pair_rate=1e6, fidelity=0.99),
        fiber_a=FiberChannel(length_m=1000.0),
        fiber_b=FiberChannel(length_m=1000.0),
        qnic_a=QNIC(),
        qnic_b=QNIC(),
    )
    defaults.update(overrides)
    return EntanglementDistributor(**defaults)


class TestSPDCSource:
    def test_emit_pair_fidelity(self):
        source = SPDCSource(fidelity=0.95)
        assert source.emit_pair().fidelity(bell_pair()) == pytest.approx(0.95)

    def test_perfect_source(self):
        source = SPDCSource(fidelity=1.0)
        assert source.emit_pair().fidelity(bell_pair()) == pytest.approx(1.0)

    def test_multiphoton_falloff(self):
        source = SPDCSource(pair_rate=1e6, multiphoton_falloff=1e-3)
        assert source.rate_for_parties(2) == pytest.approx(1e6)
        assert source.rate_for_parties(3) == pytest.approx(1e3)
        assert source.rate_for_parties(4) == pytest.approx(1.0)

    def test_emission_interval(self):
        source = SPDCSource(pair_rate=1e4)
        assert source.emission_interval() == pytest.approx(1e-4)

    def test_sample_emission_times_increasing(self, rng):
        times = SPDCSource().sample_emission_times(100, rng)
        assert (np.diff(times) > 0).all()

    def test_emission_rate_statistics(self):
        rng = np.random.default_rng(0)
        source = SPDCSource(pair_rate=1e6)
        times = source.sample_emission_times(20000, rng)
        assert times[-1] == pytest.approx(0.02, rel=0.05)

    def test_validation(self):
        with pytest.raises(HardwareError):
            SPDCSource(pair_rate=0.0)
        with pytest.raises(HardwareError):
            SPDCSource(fidelity=0.1)
        with pytest.raises(HardwareError):
            SPDCSource(multiphoton_falloff=0.0)
        with pytest.raises(HardwareError):
            SPDCSource().rate_for_parties(1)
        with pytest.raises(HardwareError):
            SPDCSource().sample_emission_times(0, np.random.default_rng(0))


class TestQNIC:
    def test_storage_window(self):
        qnic = QNIC(storage_limit=100e-6)
        assert qnic.can_store_for(50e-6)
        assert not qnic.can_store_for(200e-6)

    def test_storage_depolarizing_probability(self):
        assert storage_depolarizing_probability(0.0, 1.0) == 0.0
        p = storage_depolarizing_probability(1.0, 1.0)
        assert p == pytest.approx(1 - math.exp(-1))

    def test_decoherence_reduces_fidelity(self):
        qnic = QNIC(storage_limit=1e-3, coherence_time=500e-6)
        state = bell_pair().to_density_matrix()
        degraded = qnic.decohere_share(state, 0, 100e-6)
        assert degraded.fidelity(bell_pair()) < 1.0

    def test_zero_storage_is_noop(self):
        qnic = QNIC()
        state = bell_pair().to_density_matrix()
        assert qnic.decohere_share(state, 0, 0.0) == state

    def test_storage_beyond_window_raises(self):
        qnic = QNIC(storage_limit=100e-6)
        state = bell_pair().to_density_matrix()
        with pytest.raises(HardwareError):
            qnic.decohere_share(state, 0, 1.0)

    def test_validation(self):
        with pytest.raises(HardwareError):
            QNIC(storage_limit=0.0)
        with pytest.raises(HardwareError):
            QNIC(coherence_time=0.0)
        with pytest.raises(HardwareError):
            QNIC(measurement_error=0.9)
        with pytest.raises(HardwareError):
            storage_depolarizing_probability(-1.0, 1.0)


class TestMeasurementFlips:
    """``QNIC.measurement_error`` must actually reach the behavior table
    (it used to be validated and then ignored)."""

    def behavior(self):
        from repro.games.chsh import optimal_quantum_strategy

        return optimal_quantum_strategy().behavior()

    def test_zero_error_is_identity(self):
        behavior = self.behavior()
        assert np.array_equal(
            apply_measurement_flips(behavior, 0.0), behavior
        )

    def test_rows_stay_normalized(self):
        flipped = apply_measurement_flips(self.behavior(), 0.03, 0.08)
        assert flipped.sum(axis=(2, 3)) == pytest.approx(
            np.ones((2, 2)), abs=1e-12
        )
        assert (flipped >= 0).all()

    def test_nonzero_error_lowers_chsh_win(self):
        from repro.games.chsh import chsh_game

        game = chsh_game()
        clean = game.value_of_behavior(self.behavior())
        assert clean == pytest.approx(CHSH_QUANTUM_VALUE)
        last = clean
        for error in (0.01, 0.05, 0.1, 0.25):
            noisy = game.value_of_behavior(
                apply_measurement_flips(self.behavior(), error)
            )
            assert noisy < last
            last = noisy

    def test_maximal_error_is_coin_flip(self):
        from repro.games.chsh import chsh_game

        scrambled = apply_measurement_flips(self.behavior(), 0.5, 0.5)
        win = chsh_game().value_of_behavior(scrambled)
        assert win == pytest.approx(0.5, abs=1e-9)

    def test_asymmetric_errors_compose(self):
        one_sided = apply_measurement_flips(self.behavior(), 0.1, 0.0)
        # Flipping only Alice: marginal of Bob unchanged.
        bob_marginal = one_sided.sum(axis=2)
        clean_marginal = self.behavior().sum(axis=2)
        assert bob_marginal == pytest.approx(clean_marginal, abs=1e-12)

    def test_validation(self):
        behavior = self.behavior()
        with pytest.raises(HardwareError):
            apply_measurement_flips(behavior, 0.7)
        with pytest.raises(HardwareError):
            apply_measurement_flips(behavior, -0.1)
        with pytest.raises(HardwareError):
            apply_measurement_flips(np.zeros((2, 2, 2)), 0.1)


class TestFiber:
    def test_survival_probability(self):
        # 0.2 dB/km over 50 km = 10 dB = 10% survival.
        fiber = FiberChannel(length_m=50_000.0, loss_db_per_km=0.2)
        assert fiber.survival_probability() == pytest.approx(0.1)

    def test_zero_length_lossless(self):
        fiber = FiberChannel(length_m=0.0)
        assert fiber.survival_probability() == 1.0
        assert fiber.transit_time == 0.0
        assert fiber.depolarizing_probability() == 0.0

    def test_transit_time(self):
        fiber = FiberChannel(length_m=2.04e8)
        assert fiber.transit_time == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(HardwareError):
            FiberChannel(length_m=-1.0)
        with pytest.raises(HardwareError):
            FiberChannel(length_m=1.0, loss_db_per_km=-0.1)


class TestDistributor:
    def test_pair_survival_composes(self):
        dist = make_distributor(
            fiber_a=FiberChannel(length_m=50_000.0),
            fiber_b=FiberChannel(length_m=50_000.0),
        )
        assert dist.pair_survival_probability() == pytest.approx(0.01)

    def test_delivered_rate(self):
        dist = make_distributor(
            source=SPDCSource(pair_rate=1e6),
            fiber_a=FiberChannel(length_m=50_000.0),
            fiber_b=FiberChannel(length_m=0.0),
        )
        assert dist.delivered_pair_rate() == pytest.approx(1e5)

    def test_latency_is_max_of_arms(self):
        dist = make_distributor(
            fiber_a=FiberChannel(length_m=1000.0),
            fiber_b=FiberChannel(length_m=3000.0),
        )
        assert dist.delivery_latency() == pytest.approx(3000.0 / 2.04e8)

    def test_effective_state_degrades_with_storage(self):
        dist = make_distributor()
        fresh = dist.effective_state(0.0, 0.0).fidelity(bell_pair())
        stored = dist.effective_state(90e-6, 90e-6).fidelity(bell_pair())
        assert stored < fresh

    def test_effective_state_rejects_overlong_storage(self):
        dist = make_distributor()
        with pytest.raises(HardwareError):
            dist.effective_state(storage_a=1.0)

    def test_decisions_per_second(self):
        dist = make_distributor(source=SPDCSource(pair_rate=1e3, fidelity=0.99))
        # Requests every 1 ms = 1e3/s; delivered rate slightly below 1e3.
        assert dist.decisions_per_second(1e-3) <= 1e3

    def test_decisions_validation(self):
        with pytest.raises(HardwareError):
            make_distributor().decisions_per_second(0.0)

    def test_storage_free_lead_time(self):
        dist = make_distributor()
        assert dist.max_storage_free_lead_time() == dist.delivery_latency()

    def test_heralded_erasure_matches_survival(self):
        fiber = FiberChannel(length_m=50_000.0, loss_db_per_km=0.2)
        assert fiber.heralded_erasure().survival_probability == (
            pytest.approx(fiber.survival_probability())
        )
        dist = make_distributor(fiber_a=fiber, fiber_b=fiber)
        assert dist.pair_erasure().loss_probability == pytest.approx(
            1.0 - dist.pair_survival_probability()
        )


class TestBudget:
    def test_clean_hardware_keeps_advantage(self):
        budget = evaluate_budget(make_distributor())
        assert budget.has_advantage
        assert budget.chsh_win_probability == pytest.approx(
            CHSH_QUANTUM_VALUE, abs=0.02
        )

    def test_dirty_hardware_loses_advantage(self):
        dist = make_distributor(
            source=SPDCSource(fidelity=0.6),
            qnic_a=QNIC(storage_limit=1.0, coherence_time=1e-4),
            qnic_b=QNIC(storage_limit=1.0, coherence_time=1e-4),
        )
        budget = evaluate_budget(dist, storage_a=5e-4, storage_b=5e-4)
        assert not budget.has_advantage

    def test_required_fidelity_threshold(self):
        """The closed-form threshold is exactly the break-even point."""
        from repro.games.chsh import chsh_win_probability_for_state
        from repro.quantum import werner_state

        threshold = required_fidelity_for_advantage()
        assert chsh_win_probability_for_state(
            werner_state(threshold)
        ) == pytest.approx(0.75, abs=1e-10)
        assert chsh_win_probability_for_state(
            werner_state(threshold + 0.01)
        ) > 0.75

    def test_budget_monotone_in_storage(self):
        dist = make_distributor()
        budgets = [
            evaluate_budget(dist, storage_a=t, storage_b=t)
            for t in (0.0, 30e-6, 60e-6, 90e-6)
        ]
        wins = [b.chsh_win_probability for b in budgets]
        assert wins == sorted(wins, reverse=True)
