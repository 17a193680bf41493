"""Tests for the network substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.net import (
    BernoulliTaskMix,
    DelayStats,
    FleetMetrics,
    Link,
    PoissonArrivals,
    Request,
    Server,
    SubtypedTaskMix,
    TaskType,
)
from repro.sim import Environment, Timeout


class TestTaskType:
    def test_bit_encoding(self):
        assert TaskType.COLOCATE.bit == 1
        assert TaskType.EXCLUSIVE.bit == 0

    def test_from_bit_roundtrip(self):
        for task in TaskType:
            assert TaskType.from_bit(task.bit) is task


class TestRequest:
    def test_unique_ids(self):
        a = Request(task_type=TaskType.COLOCATE)
        b = Request(task_type=TaskType.COLOCATE)
        assert a.request_id != b.request_id

    def test_delays_none_until_known(self):
        r = Request(task_type=TaskType.EXCLUSIVE, arrival_time=1.0)
        assert r.queueing_delay is None
        assert r.total_delay is None
        r.start_service_time = 3.0
        r.completion_time = 4.0
        assert r.queueing_delay == pytest.approx(2.0)
        assert r.total_delay == pytest.approx(3.0)


class TestLink:
    def test_propagation_delay(self):
        env = Environment()
        link = Link(env, propagation_delay=2.5)
        received = []
        link.transmit("hello", on_deliver=received.append)
        env.run()
        assert env.now == 2.5
        assert received == ["hello"]
        assert link.delivered == 1

    def test_bandwidth_serializes(self):
        env = Environment()
        link = Link(env, propagation_delay=1.0, bandwidth=1.0)
        times = []
        link.transmit("a", size=2.0, on_deliver=lambda p: times.append(env.now))
        link.transmit("b", size=2.0, on_deliver=lambda p: times.append(env.now))
        env.run()
        # First arrives at 2 (tx) + 1 (prop) = 3; second starts at 2,
        # arrives at 4 + 1 = 5.
        assert times == [3.0, 5.0]

    def test_rtt(self):
        env = Environment()
        assert Link(env, propagation_delay=3.0).rtt() == 6.0

    def test_validation(self):
        env = Environment()
        with pytest.raises(NetworkError):
            Link(env, propagation_delay=-1.0)
        with pytest.raises(NetworkError):
            Link(env, propagation_delay=1.0, bandwidth=0.0)
        with pytest.raises(NetworkError):
            Link(env, propagation_delay=1.0).transmit("x", size=0.0)


class TestServer:
    def test_single_exclusive_task(self):
        env = Environment()
        server = Server(env, service_time=2.0)
        request = Request(task_type=TaskType.EXCLUSIVE, arrival_time=0.0)
        done = server.submit(request)
        env.run()
        assert done.value.completion_time == 2.0
        assert server.completed == 1

    def test_two_colocate_tasks_run_in_parallel(self):
        env = Environment()
        server = Server(env, service_time=2.0)
        r1 = Request(task_type=TaskType.COLOCATE)
        r2 = Request(task_type=TaskType.COLOCATE)
        server.submit(r1)
        server.submit(r2)
        env.run()
        assert r1.completion_time == 2.0
        assert r2.completion_time == 2.0

    def test_third_colocate_waits(self):
        env = Environment()
        server = Server(env, service_time=2.0)
        requests = [Request(task_type=TaskType.COLOCATE) for _ in range(3)]
        for r in requests:
            server.submit(r)
        env.run()
        assert sorted(r.completion_time for r in requests) == [2.0, 2.0, 4.0]

    def test_exclusive_waits_for_idle_machine(self):
        env = Environment()
        server = Server(env, service_time=2.0)
        c = Request(task_type=TaskType.COLOCATE)
        e = Request(task_type=TaskType.EXCLUSIVE)
        server.submit(c)
        server.submit(e)
        env.run()
        assert c.completion_time == 2.0
        assert e.completion_time == 4.0

    def test_colocate_priority_over_queued_exclusive(self):
        env = Environment()
        server = Server(env, service_time=1.0)

        def scenario(env):
            e1 = Request(task_type=TaskType.EXCLUSIVE)
            server.submit(e1)
            # While e1 runs, an E and then a C arrive; the C should be
            # served first once the machine frees up.
            e2 = Request(task_type=TaskType.EXCLUSIVE)
            c = Request(task_type=TaskType.COLOCATE)
            server.submit(e2)
            server.submit(c)
            yield Timeout(env, 0.0)
            return e2, c

        proc = env.process(scenario(env))
        env.run()
        e2, c = proc.value
        assert c.completion_time == 2.0
        assert e2.completion_time == 3.0

    def test_queue_metric_time_average(self):
        env = Environment()
        server = Server(env, service_time=1.0)
        for _ in range(3):
            server.submit(Request(task_type=TaskType.EXCLUSIVE))
        env.run()
        assert server.queue_metric.time_average() > 0.0

    def test_validation(self):
        env = Environment()
        with pytest.raises(NetworkError):
            Server(env, service_time=0.0)
        with pytest.raises(NetworkError):
            Server(env, colocation_slots=0)


class TestWorkloads:
    def test_bernoulli_draw_shape(self, rng):
        mix = BernoulliTaskMix(10, 0.5)
        tasks = mix.draw_batch(rng, 3)
        assert tasks.shape == (3, 10)
        assert set(np.unique(tasks)) <= {0, 1}

    def test_bernoulli_extremes(self, rng):
        all_c = BernoulliTaskMix(20, 1.0).draw_batch(rng, 2)
        assert (all_c == TaskType.COLOCATE.bit).all()
        all_e = BernoulliTaskMix(20, 0.0).draw_batch(rng, 2)
        assert (all_e == TaskType.EXCLUSIVE.bit).all()

    def test_bernoulli_fraction(self):
        rng = np.random.default_rng(0)
        mix = BernoulliTaskMix(4000, 0.3)
        tasks = mix.draw_batch(rng, 1)
        assert tasks.mean() == pytest.approx(0.3, abs=0.03)

    def test_bernoulli_requests_carry_sources(self, rng):
        requests = BernoulliTaskMix(5).draw_requests(rng, time=3.0)
        assert [r.source for r in requests] == [0, 1, 2, 3, 4]
        assert all(r.arrival_time == 3.0 for r in requests)

    def test_bernoulli_requests_are_one_batch_row(self):
        mix = BernoulliTaskMix(9, 0.4)
        requests = mix.draw_requests(np.random.default_rng(3))
        row = mix.draw_batch(np.random.default_rng(3), 1)[0]
        assert [r.task_type.bit for r in requests] == row.tolist()

    def test_bernoulli_validation(self):
        with pytest.raises(ConfigurationError):
            BernoulliTaskMix(0)
        with pytest.raises(ConfigurationError):
            BernoulliTaskMix(5, 1.5)

    def test_subtyped_assigns_subtypes(self, rng):
        mix = SubtypedTaskMix(50, num_subtypes=3, p_colocate=1.0)
        requests = mix.draw_requests(rng)
        assert {r.subtype for r in requests} <= {0, 1, 2}
        assert len({r.subtype for r in requests}) > 1

    def test_subtyped_exclusive_keeps_zero(self, rng):
        mix = SubtypedTaskMix(20, num_subtypes=3, p_colocate=0.0)
        requests = mix.draw_requests(rng)
        assert all(r.subtype == 0 for r in requests)

    def test_subtyped_validation(self):
        with pytest.raises(ConfigurationError):
            SubtypedTaskMix(5, num_subtypes=0)

    def test_poisson_arrival_times_increase(self, rng):
        stream = PoissonArrivals(rate=2.0)
        times = [r.arrival_time for r in stream.arrivals_until(50.0, rng)]
        assert times == sorted(times)
        assert times[-1] <= 50.0

    def test_poisson_rate(self):
        rng = np.random.default_rng(1)
        stream = PoissonArrivals(rate=3.0)
        count = sum(1 for _ in stream.arrivals_until(1000.0, rng))
        assert count / 1000.0 == pytest.approx(3.0, rel=0.1)

    def test_poisson_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(rate=0.0)


class TestMetrics:
    def test_delay_stats(self):
        stats = DelayStats.from_samples([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.count == 4
        assert stats.p50 == pytest.approx(2.5)

    def test_delay_stats_empty_sentinel(self):
        stats = DelayStats.from_samples([])
        assert stats.is_empty
        assert stats.count == 0
        assert math.isnan(stats.mean)
        assert math.isnan(stats.p50)
        assert math.isnan(stats.p95)
        assert math.isnan(stats.p99)
        assert DelayStats.empty().is_empty

    def test_delay_stats_nonempty_not_sentinel(self):
        assert not DelayStats.from_samples([1.0]).is_empty

    def test_fleet_metrics(self):
        env = Environment()
        servers = [Server(env) for _ in range(3)]
        metrics = FleetMetrics(servers)
        assert metrics.mean_queue_length() == 0.0
        assert metrics.total_completed() == 0
        assert metrics.imbalance() == 0.0

    def test_fleet_requires_servers(self):
        with pytest.raises(NetworkError):
            FleetMetrics([])
