"""Tests for the parallel sweep engine: parity, caching, metrics."""

from __future__ import annotations

import os
import time
from functools import partial

import pytest

from repro.analysis import compare_seeded
from repro.errors import ConfigurationError
from repro.exec import ResultCache, SweepRunner, resolve_jobs
from repro.lb import (
    CHSHPairedAssignment,
    RandomAssignment,
    run_timestep_simulation,
    sweep_load,
)


def _identity_point(config, seed):
    return (config["tag"], seed)


def _simulate_point(config, seed):
    policy = config["factory"](config["n"], config["m"])
    return run_timestep_simulation(
        policy, timesteps=config["timesteps"], seed=seed
    )


def _counting_point(config, seed):
    marker = os.path.join(config["marker_dir"], f"{config['tag']}-{seed}")
    with open(marker, "a", encoding="utf-8") as fh:
        fh.write("x")
    return seed * 2


def _sleep_point(config, seed):
    time.sleep(config["sleep"])
    return seed


def _queue_metric(factory, n, m, timesteps, seed):
    return run_timestep_simulation(
        factory(n, m), timesteps=timesteps, seed=seed
    ).mean_queue_length


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_cpu_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)


class TestSerialRunner:
    def test_values_in_submission_order(self):
        runner = SweepRunner(_identity_point, jobs=1)
        report = runner.run(
            [({"tag": "a"}, 2), ({"tag": "b"}, 1), ({"tag": "a"}, 0)]
        )
        assert report.values() == [("a", 2), ("b", 1), ("a", 0)]

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(_identity_point, jobs=1).run([])

    def test_report_metrics(self):
        runner = SweepRunner(_identity_point, jobs=1, label="metrics")
        report = runner.run([({"tag": "a"}, s) for s in range(4)])
        assert report.points_completed == 4
        assert report.cache_hits == 0
        assert report.jobs == 1
        assert all(p.wall_seconds >= 0.0 for p in report.points)
        assert 0.0 <= report.worker_utilization <= 1.0
        assert "metrics" in report.summary()
        assert "4 points" in report.summary()

    def test_progress_lines(self):
        lines = []
        runner = SweepRunner(
            _identity_point, jobs=1, label="prog", progress=lines.append
        )
        runner.run([({"tag": "a"}, 0), ({"tag": "a"}, 1)])
        assert len(lines) == 3  # one per point + summary
        assert all("prog" in line for line in lines)


class TestParallelRunner:
    def test_matches_serial_bit_for_bit(self):
        points = [
            ({"factory": f, "n": 24, "m": 20, "timesteps": 120}, seed)
            for f in (RandomAssignment, CHSHPairedAssignment)
            for seed in (1, 2)
        ]
        serial = SweepRunner(_simulate_point, jobs=1).run(points)
        parallel = SweepRunner(_simulate_point, jobs=4).run(points)
        assert serial.values() == parallel.values()

    def test_closures_ride_through_fork(self):
        offset = 17
        runner = SweepRunner(lambda config, seed: seed + offset, jobs=2)
        report = runner.run([(None, 1), (None, 2), (None, 3)])
        assert report.values() == [18, 19, 20]

    def test_worker_exception_propagates(self):
        def boom(config, seed):
            raise ValueError(f"bad seed {seed}")

        with pytest.raises(ValueError, match="bad seed"):
            SweepRunner(boom, jobs=2).run([(None, 1), (None, 2)])

    def test_sleep_speedup(self):
        """Fan-out beats serial even when workers timeshare one core,
        because the stall here is a sleep, not compute."""
        points = [({"sleep": 0.15}, s) for s in range(6)]
        serial = SweepRunner(_sleep_point, jobs=1).run(points)
        parallel = SweepRunner(_sleep_point, jobs=3).run(points)
        assert parallel.values() == serial.values()
        assert serial.wall_clock > 1.5 * parallel.wall_clock
        assert parallel.worker_utilization > 0.3


class TestCompletionLoop:
    def test_waits_cover_only_the_batches_in_flight(self, monkeypatch):
        """The parent waits on at most one batch per worker, and fast
        points travel in batches, so it waits fewer times than the sweep
        has points. Waiting on every pending future afresh after each
        completion installed a waiter on each of them, so the parent's
        CPU grew quadratically with the number of points. Installs are
        counted instead of CPU time, which depends on how many batches
        finish between two waits."""
        from concurrent.futures import _base

        installs = []
        install = _base._create_and_install_waiters

        def counting_install(fs, return_when):
            installs.append(len(fs))
            return install(fs, return_when)

        monkeypatch.setattr(
            _base, "_create_and_install_waiters", counting_install
        )
        points = [({"tag": "t"}, seed) for seed in range(1000)]
        report = SweepRunner(_identity_point, jobs=2).run(points)
        assert report.values() == [("t", seed) for seed in range(1000)]
        assert installs and max(installs) <= 2
        assert len(installs) < len(points)


class TestSeededParity:
    def test_compare_seeded_jobs4_matches_serial(self):
        """The acceptance check: a CHSH-vs-random Fig 4 comparison gives
        identical SeededResults at jobs=4 and jobs=1."""
        metrics = {
            "classical random": partial(
                _queue_metric, RandomAssignment, 30, 27, 150
            ),
            "quantum CHSH": partial(
                _queue_metric, CHSHPairedAssignment, 30, 27, 150
            ),
        }
        seeds = [1, 2, 3]
        serial = compare_seeded(metrics, seeds, jobs=1)
        parallel = compare_seeded(metrics, seeds, jobs=4)
        assert serial == parallel  # dataclass equality: bit-identical floats

    def test_sweep_load_jobs_parity(self):
        kwargs = dict(
            num_balancers=20,
            loads=(0.8, 1.25),
            timesteps=100,
            seed=4,
        )
        assert sweep_load(RandomAssignment, jobs=1, **kwargs) == sweep_load(
            RandomAssignment, jobs=2, **kwargs
        )


class TestCacheIntegration:
    def test_second_run_is_pure_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = [
            ({"tag": "t", "marker_dir": str(tmp_path)}, s) for s in range(4)
        ]
        first = SweepRunner(_counting_point, jobs=1, cache=cache).run(points)
        assert first.cache_hits == 0
        second = SweepRunner(_counting_point, jobs=1, cache=cache).run(points)
        assert second.cache_hits == 4
        assert second.values() == first.values()
        # every point was computed exactly once
        for seed in range(4):
            marker = tmp_path / f"t-{seed}"
            assert marker.read_text() == "x"

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(_counting_point, jobs=1, cache=cache)
        runner.run([({"tag": "a", "marker_dir": str(tmp_path)}, 0)])
        report = runner.run([({"tag": "b", "marker_dir": str(tmp_path)}, 0)])
        assert report.cache_hits == 0
        assert (tmp_path / "b-0").exists()

    def test_code_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(_identity_point, jobs=1, cache=cache).run(
            [({"tag": "a"}, 0)]
        )
        report = SweepRunner(
            lambda config, seed: ("other", seed), jobs=1, cache=cache
        ).run([({"tag": "a"}, 0)])
        assert report.cache_hits == 0
        assert report.values() == [("other", 0)]

    def test_parallel_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = [({"tag": "p", "marker_dir": str(tmp_path)}, s) for s in (1, 2)]
        SweepRunner(_counting_point, jobs=2, cache=cache).run(points)
        report = SweepRunner(_counting_point, jobs=2, cache=cache).run(points)
        assert report.cache_hits == 2

    def test_cache_counters_track_hits_and_misses(self, tmp_path):
        from repro.obs import capture

        cache = ResultCache(tmp_path / "cache")
        points = [({"tag": "c"}, s) for s in range(3)]
        with capture() as cold:
            SweepRunner(_identity_point, jobs=1, cache=cache).run(points)
        assert cold.counter("cache.miss").value == 3
        assert cold.counter("cache.put").value == 3
        assert cold.counter("cache.hit").value == 0
        with capture() as warm:
            SweepRunner(_identity_point, jobs=1, cache=cache).run(points)
        assert warm.counter("cache.hit").value == 3
        assert warm.counter("cache.miss").value == 0


class TestObservability:
    def test_report_carries_manifest(self):
        report = SweepRunner(_identity_point, jobs=1, label="mf").run(
            [({"tag": "a"}, 3), ({"tag": "a"}, 5)]
        )
        manifest = report.manifest
        assert manifest is not None
        assert manifest.kind == "sweep"
        assert manifest.seeds == (3, 5)
        assert manifest.config["label"] == "mf"
        assert manifest.config["jobs"] == 1
        assert manifest.metrics["counters"]["sweep.points.computed"] == 2
        assert manifest.wall_seconds > 0.0

    def test_manifest_excluded_from_report_equality(self):
        from dataclasses import replace

        report = SweepRunner(_identity_point, jobs=1).run([({"tag": "a"}, 0)])
        stripped = replace(report, manifest=None)
        assert report == stripped

    def test_disabled_metrics_skip_manifest(self):
        from repro.obs import disabled

        with disabled():
            report = SweepRunner(_identity_point, jobs=1).run(
                [({"tag": "a"}, 0)]
            )
        assert report.manifest is None

    def test_parallel_counters_merge_exactly(self):
        """The acceptance invariant: the sum of per-worker counters
        equals a serial run's counters over the same points."""
        from repro.obs import capture

        points = [
            ({"factory": RandomAssignment, "n": 12, "m": 10,
              "timesteps": 60}, seed)
            for seed in range(4)
        ]
        with capture() as serial_registry:
            serial = SweepRunner(_simulate_point, jobs=1).run(points)
        with capture() as parallel_registry:
            parallel = SweepRunner(_simulate_point, jobs=4).run(points)
        assert serial.values() == parallel.values()
        serial_counters = serial_registry.snapshot()["counters"]
        parallel_counters = parallel_registry.snapshot()["counters"]
        assert serial_counters == parallel_counters
        assert serial_counters["fig4.runs"] == 4  # workers reported in
        # Timer observation counts merge exactly too (durations differ).
        serial_timers = serial_registry.snapshot()["timers"]
        parallel_timers = parallel_registry.snapshot()["timers"]
        assert {n: t["count"] for n, t in serial_timers.items()} == {
            n: t["count"] for n, t in parallel_timers.items()
        }


class TestWorkerUtilization:
    def test_pure_cache_replay_reports_zero(self, tmp_path):
        """Regression: utilization used to divide busy time by the whole
        run's wall clock, so a warm-cache replay (nothing computed)
        reported a meaningless near-zero busy fraction instead of a
        clean 0.0, and mixed runs were diluted by cache-scan time."""
        cache = ResultCache(tmp_path / "cache")
        points = [({"tag": "u"}, s) for s in range(3)]
        SweepRunner(_identity_point, jobs=1, cache=cache).run(points)
        warm = SweepRunner(_identity_point, jobs=2, cache=cache).run(points)
        assert warm.cache_hits == 3
        assert warm.points_computed == 0
        assert warm.worker_utilization == 0.0
        assert warm.cache_hit_rate == 1.0
        assert warm.compute_wall_clock == 0.0
        assert warm.cache_seconds >= 0.0

    def test_mixed_run_measures_compute_window_only(self, tmp_path):
        """A run with 3 cached points and 2 slow computed points must
        report utilization against the compute window, not against the
        full wall clock inflated by the replay scan."""
        cache = ResultCache(tmp_path / "cache")
        fast = [({"sleep": 0.0}, s) for s in range(3)]
        SweepRunner(_sleep_point, jobs=1, cache=cache).run(fast)
        mixed = fast + [({"sleep": 0.12}, s) for s in (10, 11)]
        report = SweepRunner(_sleep_point, jobs=1, cache=cache).run(mixed)
        assert report.cache_hits == 3
        assert report.points_computed == 2
        assert report.compute_wall_clock > 0.0
        assert report.compute_wall_clock <= report.wall_clock
        # Two back-to-back 0.12s sleeps in a ~0.24s compute window:
        # utilization must be high, not diluted toward busy/wall_clock.
        assert report.worker_utilization > 0.8

    def test_utilization_capacity_uses_effective_workers(self):
        """jobs=8 with a single computed point must measure against one
        worker's capacity, not eight idle ones."""
        report = SweepRunner(_sleep_point, jobs=8).run([({"sleep": 0.1}, 0)])
        assert report.points_computed == 1
        assert report.worker_utilization > 0.5
