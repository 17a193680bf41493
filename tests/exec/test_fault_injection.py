"""Adversarial fault injection against the sweep runner's fault plane.

The :class:`~tests.exec._faultlib.FlakyWorker` fixture injects
configurable misbehavior — raise-on-Nth-call, hangs (caught by the
per-point timeout), and ``os._exit`` worker death (caught by the
``BrokenProcessPool`` recovery path) — and the suite proves the three
contract points of the fault plane:

1. bounded retry with deterministic backoff *recovers*;
2. an exhausted budget yields a structured :class:`PointFailure`, not a
   raised sweep (under ``failures="record"``);
3. a recovered run is **bit-identical** to an unfaulted run.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.exec import PointFailure, SweepRunner
from repro.exec.runner import _backoff_delay
from repro.obs import capture
from tests.exec._faultlib import FlakyWorker, deterministic_value

#: Keep injected-fault retries fast: ~1-2 ms sleeps, not the 50 ms
#: production default.
FAST = {"retry_backoff": 0.001}

#: Pool size of the ``jobs``-parametrized cases: ``REPRO_JOBS``, at least
#: 2 (default 2), so the fault plane can be rerun under a wider pool. The
#: runner still caps a pool at the number of points a case submits.
POOL = max(2, int(os.environ.get("REPRO_JOBS") or 2))


def _points(n: int, tag: str = "fi"):
    return [({"tag": tag}, 100 + i) for i in range(n)]


def _clean_values(points):
    return [deterministic_value(config, seed) for config, seed in points]


class PoisonSeed:
    """Fails every attempt at one seed; every other point is clean."""

    def __init__(self, poisoned: int) -> None:
        self.poisoned = poisoned

    def __call__(self, config, seed):
        if seed == self.poisoned:
            raise ValueError("poisoned point")
        return deterministic_value(config, seed)


@pytest.fixture
def flaky(tmp_path):
    """Factory for :class:`FlakyWorker` instances with a fresh scratch
    directory per worker (call counts never leak between cases)."""
    counter = {"n": 0}

    def make(mode: str = "fail", faults: int = 1, **kwargs) -> FlakyWorker:
        counter["n"] += 1
        scratch = tmp_path / f"scratch-{counter['n']}"
        return FlakyWorker(str(scratch), mode=mode, faults=faults, **kwargs)

    return make


class TestValidation:
    def test_bad_failures_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(deterministic_value, jobs=1, failures="explode")

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(deterministic_value, jobs=1, retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(deterministic_value, jobs=1, timeout=0.0)


class TestRetryRecovery:
    @pytest.mark.parametrize("jobs", [1, POOL])
    def test_retry_recovers_bit_identically(self, flaky, jobs):
        """Two injected failures per point, three retries: the sweep
        recovers and every value equals the unfaulted computation."""
        points = _points(3)
        worker = flaky("fail", faults=2)
        report = SweepRunner(
            worker, jobs=jobs, retries=3, failures="record", **FAST
        ).run(points)
        assert report.values() == _clean_values(points)
        assert report.points_failed == ()
        assert report.retries >= 2 * len(points)
        for config, seed in points:
            assert worker.calls(seed) == 3  # 2 failures + 1 success

    def test_retry_metrics_recorded(self, flaky):
        points = _points(2)
        with capture() as registry:
            SweepRunner(
                flaky("fail", faults=1),
                jobs=1,
                retries=2,
                failures="record",
                **FAST,
            ).run(points)
        assert registry.counter("exec.retry.attempts").value == 2
        assert registry.counter("exec.retry.errors").value == 2
        assert registry.timer("exec.retry.backoff").count == 2

    def test_point_retry_counts_on_results(self, flaky):
        points = _points(2)
        report = SweepRunner(
            flaky("fail", faults=1), jobs=1, retries=2,
            failures="record", **FAST,
        ).run(points)
        assert [p.retries for p in report.points] == [1, 1]
        assert report.retries == 2


class TestBackoffDeterminism:
    def test_same_seed_same_schedule(self):
        assert _backoff_delay(7, 0, 0.05) == _backoff_delay(7, 0, 0.05)
        assert _backoff_delay(7, 1, 0.05) == _backoff_delay(7, 1, 0.05)

    def test_attempts_and_seeds_decorrelate(self):
        assert _backoff_delay(7, 0, 0.05) != _backoff_delay(7, 1, 0.05)
        assert _backoff_delay(7, 0, 0.05) != _backoff_delay(8, 0, 0.05)

    def test_exponential_envelope(self):
        for attempt in range(4):
            delay = _backoff_delay(3, attempt, 0.05)
            assert 0.05 * 2**attempt * 0.5 <= delay <= 0.05 * 2**attempt


class TestExhaustedRetries:
    @pytest.mark.parametrize("jobs", [1, POOL])
    def test_exhaustion_records_failure_not_raise(self, flaky, jobs):
        """A point that never stops failing becomes a PointFailure; the
        rest of the sweep completes normally."""
        points = _points(3)
        report = SweepRunner(
            flaky("fail", faults=99),
            jobs=jobs,
            retries=1,
            failures="record",
            **FAST,
        ).run(points)
        assert len(report.points_failed) == 3
        failure = report.points_failed[0]
        assert isinstance(failure, PointFailure)
        assert "injected fault" in failure.error
        assert failure.retries == 1
        assert report.values() == [None, None, None]
        assert all(p.failed for p in report.points)

    @pytest.mark.parametrize("jobs", [1, POOL])
    def test_failed_point_retries_counted_once(self, jobs):
        """Regression: a failed point sits in both ``points`` and
        ``points_failed``, and the report used to sum its retries from
        both, so one always-failing point with ``retries=2`` reported 4."""
        report = SweepRunner(
            PoisonSeed(poisoned=101),
            jobs=jobs,
            retries=2,
            failures="record",
            **FAST,
        ).run(_points(2))
        assert [f.index for f in report.points_failed] == [1]
        assert report.points_failed[0].retries == 2
        assert report.retries == 2
        assert "2 retries" in report.summary()

    def test_partial_failure_keeps_good_points(self, flaky, tmp_path):
        """Only seed 101 is poisoned; the other points' values are
        bit-identical to a clean run."""
        points = _points(3)
        scratch = tmp_path / "poison"

        class PoisonOne(FlakyWorker):
            def __call__(self, config, seed):
                if seed == 101:
                    raise ValueError("poisoned point")
                return deterministic_value(config, seed)

        report = SweepRunner(
            PoisonOne(str(scratch)),
            jobs=1,
            retries=1,
            failures="record",
            **FAST,
        ).run(points)
        clean = _clean_values(points)
        assert report.values()[0] == clean[0]
        assert report.values()[2] == clean[2]
        assert report.values()[1] is None
        assert [f.index for f in report.points_failed] == [1]
        with capture() as registry:
            SweepRunner(
                PoisonOne(str(scratch)), jobs=1, failures="record",
            ).run(points)
        assert registry.counter("sweep.points.failed").value == 1

    def test_default_mode_still_raises(self, flaky):
        """Compatibility: without opting into failures="record", a bad
        point aborts the sweep exactly as before."""
        with pytest.raises(ValueError, match="injected fault"):
            SweepRunner(flaky("fail", faults=99), jobs=1, **FAST).run(
                _points(2)
            )
        with pytest.raises(ValueError, match="injected fault"):
            SweepRunner(flaky("fail", faults=99), jobs=2, **FAST).run(
                _points(2)
            )


class TestTimeouts:
    @pytest.mark.parametrize("jobs", [1, POOL])
    def test_hang_is_timed_out_and_retried(self, flaky, jobs):
        """A first-call hang trips the per-point SIGALRM deadline, the
        retry recomputes, and values match the unfaulted run."""
        points = _points(2)
        with capture() as registry:
            report = SweepRunner(
                flaky("hang", faults=1, hang_seconds=30.0),
                jobs=jobs,
                timeout=0.2,
                retries=2,
                failures="record",
                **FAST,
            ).run(points)
        assert report.values() == _clean_values(points)
        assert report.points_failed == ()
        assert registry.counter("exec.timeout.hits").value == 2

    def test_persistent_hang_becomes_failure(self, flaky):
        report = SweepRunner(
            flaky("hang", faults=99, hang_seconds=30.0),
            jobs=1,
            timeout=0.1,
            retries=1,
            failures="record",
            **FAST,
        ).run(_points(1))
        assert len(report.points_failed) == 1
        assert "PointTimeoutError" in report.points_failed[0].error


class TestWorkerDeath:
    def test_broken_pool_recovers_bit_identically(self, flaky):
        """os._exit kills the worker and the pool; the runner rebuilds
        the executor, requeues the in-flight points, and the recovered
        sweep equals the unfaulted one bit for bit."""
        points = _points(3, tag="exit")
        with capture() as registry:
            report = SweepRunner(
                flaky("exit", faults=1),
                jobs=2,
                retries=5,
                failures="record",
                **FAST,
            ).run(points)
        assert report.values() == _clean_values(points)
        assert report.points_failed == ()
        assert registry.counter("exec.pool.rebuilds").value >= 1

    def test_broken_pool_without_budget_raises(self, flaky):
        """Compatibility: no retries means a dead worker still aborts
        the sweep (as BrokenProcessPool)."""
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            SweepRunner(flaky("exit", faults=99), jobs=2, **FAST).run(
                _points(2, tag="exit-raise")
            )

    def test_poison_pill_exhausts_to_failure(self, flaky):
        """A point that always kills its worker consumes its requeue
        budget and settles as a PointFailure instead of looping."""
        report = SweepRunner(
            flaky("exit", faults=99),
            jobs=2,
            retries=1,
            failures="record",
            **FAST,
        ).run(_points(2, tag="pill"))
        assert len(report.points_failed) == 2
        assert all(
            "worker process died" in f.error for f in report.points_failed
        )
