"""The fault-tolerant parallel seeded-experiment execution engine.

:class:`SweepRunner` fans (config, seed) points out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, consults a
content-addressed on-disk :class:`~repro.exec.cache.ResultCache` before
computing anything, and reports per-run metrics through a
:class:`RunReport`. ``jobs=1`` runs the points in-process, without an
executor. Both paths run each point through the same
:func:`_execute_point` (metrics capture, ``point`` span, fault plan)
and hand its outcome to the same writeback, so they differ only in
where the point runs. The engine guarantees parallel and serial runs of
the same points are bit-identical: every point is computed by the same
pure function of ``(config, seed)``, each in a fresh context, and
results are returned in submission order regardless of completion
order.

The pool takes points a batch per executor task, at most one batch per
worker in flight. A batch holds one point until the run's first
outcome is back, then about :data:`BATCH_SECONDS` of points (never
more than half a worker's fair share of what is left, so the workers
finish together); a point slower than that travels alone. So a sweep
of fast points pays one task, result pickle and wakeup per batch
instead of per point, while everything else stays per point: journal
records, cache puts, retries, timeouts, :class:`PointFailure` entries,
progress lines and metrics merges.

Long sweeps survive faults on three planes:

- **Checkpoint/resume** — with ``journal=True`` every finished point is
  appended (CRC-framed, flushed) to
  ``<cache dir>/journal/<run_key>.jsonl`` the moment it is recorded,
  and a re-invocation of the same points replays journaled values
  instead of recomputing. The journal is the sweep's durable store:
  the pool path fsyncs it once per returned batch (skipped while
  another batch waits to be recorded), serial runs after every point.
  A SIGKILL of the parent loses no recorded point, only the finished
  but unreturned points of the batches in flight (at most about
  :data:`BATCH_SECONDS` of compute per worker); a power cut loses at
  most the batches recorded since the last fsync. Resume recomputes
  either loss bit for bit, and when :meth:`SweepRunner.run` returns,
  every record is on disk. ``python -m repro resume`` lists and
  restarts interrupted CLI sweeps.
- **Worker fault plane** — a per-point ``timeout`` (SIGALRM-enforced
  inside the worker), bounded ``retries`` with exponential backoff
  whose jitter comes from the point's own
  :class:`~repro.sim.RandomStreams` substream (retries are
  deterministic), and a ``BrokenProcessPool`` recovery path that
  rebuilds the executor. A worker death charges one retry to every
  point of the batches in flight, never to a point not yet submitted;
  those points then rerun one at a time, each alone, so a second death
  is charged only to the point that caused it. A point reports every
  retry it consumed, the charges of pool deaths included. With
  ``failures="record"``, exhausted points degrade to structured
  :class:`PointFailure` entries on the report instead of aborting the
  sweep; under ``"raise"`` the point's exception propagates, and the
  batch-mates that finished before it go unrecorded (resume recomputes
  them).
- **Crash-consistent cache** — results are published per point, without
  fsync, through the CRC-verified, atomic
  :meth:`ResultCache.put_if_absent`, so concurrent sweeps on a shared
  cache directory never interleave partial writes. An entry torn by a
  power cut reads as a miss, and resume refills it from the journal.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
import warnings
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.exec import journal as _journal
from repro.exec.cache import ResultCache, cache_key, stable_fingerprint
from repro.obs import manifest as _manifest
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans

__all__ = [
    "PointFailure",
    "PointResult",
    "PointTimeoutError",
    "RunReport",
    "SweepRunner",
    "resolve_jobs",
]


#: Compute time, in seconds, that one pool task aims to carry. A worker
#: returns a batch's outcomes only when the whole batch ends, so this
#: bounds the finished work a parent SIGKILL can lose per worker; a
#: point slower than it travels alone.
BATCH_SECONDS = 0.05


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_JOBS`` > CPU count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError as exc:
                raise ConfigurationError(
                    f"REPRO_JOBS={env!r} is not an integer"
                ) from exc
        else:
            jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ConfigurationError(f"need at least one worker, got jobs={jobs}")
    return jobs


class PointTimeoutError(Exception):
    """A sweep point overran its per-point ``timeout``."""


@dataclass(frozen=True)
class PointResult:
    """Outcome of one (config, seed) sweep point.

    Attributes:
        config: the point's configuration, as submitted.
        seed: the point's root seed.
        value: whatever the work function returned (``None`` for a
            failed point — see :attr:`failed`).
        wall_seconds: compute time for this point (cache-lookup time
            when ``cached``; 0.0 when replayed from a journal).
        cached: whether the value came from the result cache.
        resumed: whether the value replayed from a sweep journal.
        failed: whether the point exhausted its retries (the matching
            :class:`PointFailure` on the report has the details).
        retries: retry attempts this point consumed before settling.
    """

    config: object
    seed: int
    value: object
    wall_seconds: float
    cached: bool
    resumed: bool = False
    failed: bool = False
    retries: int = 0


@dataclass(frozen=True)
class PointFailure:
    """A point that exhausted its fault budget (``failures="record"``).

    Attributes:
        index: the point's submission index.
        config / seed: the point as submitted.
        error: ``"ExceptionType: message"`` of the final attempt, or a
            description of the worker's death.
        retries: retry attempts consumed before giving up.
        wall_seconds: total time spent on the point across attempts.
    """

    index: int
    config: object
    seed: int
    error: str
    retries: int = 0
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class RunReport:
    """Per-run metrics for one :meth:`SweepRunner.run` call.

    Attributes:
        label: the runner's label (shows up in progress lines).
        jobs: resolved worker count.
        points: per-point outcomes, in submission order.
        wall_clock: end-to-end run time in seconds, including the
            cache-replay scan and result writeback.
        cache_hits: points served from the result cache.
        compute_wall_clock: wall time of the compute phase alone (zero
            when every point replayed from cache). Utilization is
            measured against this window, not ``wall_clock``, so a
            warm-cache run does not dilute it toward zero.
        points_resumed: points replayed from the sweep journal.
        points_failed: structured failures for points that exhausted
            their retry budget (empty unless ``failures="record"``).
        retries: total retry attempts consumed across all points.
        run_key: content-addressed identity of this point set (names
            the journal file), when journaling was on.
        manifest: provenance record for this run (never part of
            equality — parallel and serial reports of the same points
            stay equal).
    """

    label: str
    jobs: int
    points: tuple[PointResult, ...]
    wall_clock: float
    cache_hits: int
    compute_wall_clock: float = 0.0
    points_resumed: int = 0
    points_failed: tuple[PointFailure, ...] = ()
    retries: int = 0
    run_key: str | None = field(default=None, compare=False)
    manifest: object | None = field(default=None, compare=False, repr=False)

    @property
    def points_completed(self) -> int:
        """Total points this run produced (computed + cached + resumed)."""
        return len(self.points)

    @property
    def points_computed(self) -> int:
        """Points actually computed (not cache- or journal-replayed)."""
        return (
            self.points_completed - self.cache_hits - self.points_resumed
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of points served from the result cache."""
        if not self.points:
            return 0.0
        return self.cache_hits / self.points_completed

    @property
    def busy_seconds(self) -> float:
        """Summed per-point compute time across workers."""
        return sum(
            p.wall_seconds
            for p in self.points
            if not p.cached and not p.resumed
        )

    @property
    def cache_seconds(self) -> float:
        """Summed cache-lookup time of the replayed points."""
        return sum(p.wall_seconds for p in self.points if p.cached)

    @property
    def worker_utilization(self) -> float:
        """Busy time as a fraction of compute-phase worker capacity.

        Measured over the compute window only and against the workers
        that could actually be used (``min(jobs, points computed)``), so
        warm-cache replays neither dilute nor inflate the figure. A run
        with nothing to compute reports 0.0.
        """
        if self.points_computed == 0:
            return 0.0
        window = (
            self.compute_wall_clock
            if self.compute_wall_clock > 0.0
            else self.wall_clock
        )
        capacity = min(self.jobs, self.points_computed) * window
        if capacity <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)

    def values(self) -> list:
        """The per-point values, in submission order (``None`` for a
        failed point)."""
        return [p.value for p in self.points]

    def summary(self) -> str:
        """One-line human summary of the run."""
        extras = ""
        if self.points_resumed:
            extras += f", {self.points_resumed} resumed"
        if self.points_failed:
            extras += f", {len(self.points_failed)} FAILED"
        if self.retries:
            extras += f", {self.retries} retries"
        return (
            f"[sweep:{self.label}] {self.points_completed} points "
            f"({self.points_computed} computed, {self.cache_hits} cached"
            f"{extras}) in "
            f"{self.wall_clock:.2f}s with {self.jobs} worker(s); "
            f"busy {self.busy_seconds:.2f}s, "
            f"utilization {self.worker_utilization:.0%}"
        )


@dataclass(frozen=True)
class _FaultPlan:
    """The per-point fault budget, shipped to every worker."""

    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.05
    failures: str = "raise"


# The work function and fault plan for the current run. Set in the
# parent before the executor forks so closures (unpicklable) ride into
# workers by memory inheritance; spawn-based platforms receive a pickled
# copy through the pool initializer instead.
_WORKER_FN: Callable | None = None
_WORKER_FAULT: _FaultPlan = _FaultPlan()


def _install_worker_fn(payload, fault: _FaultPlan = _FaultPlan()) -> None:
    global _WORKER_FN, _WORKER_FAULT
    _WORKER_FN = pickle.loads(payload) if isinstance(payload, bytes) else payload
    _WORKER_FAULT = fault


@contextmanager
def _point_deadline(timeout: float | None):
    """Raise :class:`PointTimeoutError` if the block overruns ``timeout``.

    Enforced with ``SIGALRM``, so it fires even when the point is stuck
    in a C extension. Platforms/threads without alarm support (Windows,
    non-main threads) run the block unguarded — the retry plane still
    covers crashes and exceptions there.
    """
    if (
        not timeout
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise PointTimeoutError(f"point exceeded timeout={timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _backoff_delay(seed: int, attempt: int, backoff: float) -> float:
    """Deterministic exponential backoff with jitter.

    The jitter draws from a :class:`~repro.sim.RandomStreams` substream
    named by the point's seed and the attempt number — never from the
    point's own work streams — so a retried sweep sleeps the same
    schedule every run without perturbing the point's result.
    """
    from repro.sim import RandomStreams

    rng = RandomStreams(int(seed)).fresh(f"exec.retry:attempt={attempt}")
    return backoff * (2.0 ** attempt) * (0.5 + 0.5 * float(rng.random()))


def _compute_with_faults(
    fn: Callable, config, seed: int, fault: _FaultPlan, base_attempt: int = 0
):
    """Run ``fn(config, seed)`` under the fault plan.

    Returns ``(value, retries)``, where ``retries`` counts every retry
    the point consumed: the ``base_attempt`` that pool deaths already
    charged to it plus the attempts made here. Raises the final
    attempt's exception once that shared budget is exhausted.
    """
    registry = _metrics.get_registry()
    attempt = base_attempt
    while True:
        try:
            with _point_deadline(fault.timeout):
                return fn(config, seed), attempt
        except Exception as exc:
            if isinstance(exc, PointTimeoutError):
                registry.counter("exec.timeout.hits").inc()
            else:
                registry.counter("exec.retry.errors").inc()
            if attempt >= fault.retries:
                raise
            delay = _backoff_delay(seed, attempt, fault.backoff)
            registry.counter("exec.retry.attempts").inc()
            registry.timer("exec.retry.backoff").observe(delay)
            with _spans.span(
                "exec.retry", seed=seed, attempt=attempt + 1
            ):
                time.sleep(delay)
            attempt += 1


class _Outcome(NamedTuple):
    """How one computed point settled; ``error`` is set when it failed."""

    value: object
    wall: float
    retries: int
    snapshot: dict
    error: str | None = None


def _execute_point(fn: Callable, fault: _FaultPlan, item) -> _Outcome:
    """Run one point under the fault plan: the serial and pool paths' shared
    per-point work.

    A failed outcome is only produced under ``failures="record"``; in
    ``"raise"`` mode the exhausted exception propagates (through the
    future, on the pool path), aborting the sweep.
    """
    _, config, seed, base_attempt = item
    value, error = None, None
    retries = fault.retries  # what an exhausted point has consumed
    start = time.perf_counter()
    # Capture the point's metrics in isolation so the caller merges
    # exactly this point's delta — the invariant that per-worker counter
    # sums equal a serial run's counters over the same point set. The
    # caller records OUTSIDE this capture, into the run registry.
    with _metrics.capture() as registry, _spans.span("point", seed=seed):
        try:
            value, retries = _compute_with_faults(
                fn, config, seed, fault, base_attempt
            )
        except Exception as exc:
            if fault.failures != "record":
                raise
            error = f"{type(exc).__name__}: {exc}"
    return _Outcome(
        value, time.perf_counter() - start, retries, registry.snapshot(), error
    )


def _pool_batch(items) -> list[_Outcome]:
    """Pool worker entry: :func:`_execute_point` with the installed fn
    over a batch of points, returning their outcomes in order."""
    return [_execute_point(_WORKER_FN, _WORKER_FAULT, item) for item in items]


class _Pace:
    """Sizes pool batches from the mean wall of the points back so far."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.points = 0

    def observe(self, outcomes) -> None:
        self.wall += sum(outcome.wall for outcome in outcomes)
        self.points += len(outcomes)

    def batch_size(self, unsubmitted: int, jobs: int) -> int:
        """One point until the first outcome is back; then about
        :data:`BATCH_SECONDS` of points, but no more than half of a fair
        share of the points left, so the workers finish together."""
        if not self.points:
            return 1
        size = -(-unsubmitted // (2 * jobs))
        if self.wall > 0.0:
            size = min(size, int(BATCH_SECONDS * self.points / self.wall))
        return max(1, size)


def _replay_point(record: dict, config, seed: int) -> PointResult | None:
    """A journaled completion as a result, or ``None`` to recompute."""
    if record.get("status") != "done":
        return None
    try:
        value = _journal.decode_value(record["value"])
    except Exception:
        _metrics.get_registry().counter("journal.corrupt").inc()
        return None
    return PointResult(
        config=config,
        seed=seed,
        value=value,
        wall_seconds=0.0,
        cached=False,
        resumed=True,
    )


class SweepRunner:
    """Run a pure function of (config, seed) over many sweep points.

    With ``jobs > 1`` the points go to a process pool a batch at a time,
    each batch about :data:`BATCH_SECONDS` of compute (a slower point
    travels alone), at most one batch per worker in flight. A parent
    SIGKILL loses no recorded point, only the finished but unreturned
    points of those batches; a power cut loses at most the batches
    recorded since the last journal commit. Resume recomputes either
    bit for bit.

    Args:
        fn: the work function, ``fn(config, seed) -> result``. It must be
            deterministic in its arguments for the engine's bit-identical
            parallel/serial guarantee to hold, and its result must be
            picklable when ``jobs > 1``.
        jobs: worker processes. ``None`` resolves ``REPRO_JOBS`` then
            ``os.cpu_count()``; ``1`` runs serially in-process.
        cache: ``True`` for the default on-disk cache, ``False``/``None``
            to disable, or a :class:`ResultCache` instance.
        cache_dir: cache directory when ``cache=True`` (defaults to
            ``REPRO_CACHE_DIR`` or ``.repro_cache``).
        label: name used in progress lines and the report.
        progress: callable receiving progress strings. ``None`` enables
            stderr lines only when ``REPRO_SWEEP_PROGRESS`` is set.
        timeout: per-point wall-clock budget in seconds (``None`` = no
            limit). Overruns raise :class:`PointTimeoutError` inside the
            point and feed the retry plane.
        retries: how many times a failing point (exception, timeout, or
            dead worker) is re-attempted before giving up. Retries are
            deterministic: backoff jitter comes from the point's seed.
            A worker death charges one retry to each point of the
            batches in flight (see :meth:`_run_parallel`).
        retry_backoff: base backoff in seconds; attempt ``k`` sleeps
            ``backoff * 2**k * uniform(0.5, 1.0)``.
        failures: ``"raise"`` (default) aborts the sweep when a point
            exhausts its budget — the historical behavior — while
            ``"record"`` degrades it to a :class:`PointFailure` on the
            report and keeps sweeping.
        journal: ``True`` to checkpoint every finished point to a
            CRC-framed journal keyed by :meth:`run_key`, fsync'd once
            per returned pool batch (per point when serial); a re-run of
            the same points resumes instead of recomputing.
        journal_dir: journal directory override (default
            ``<cache root>/journal``, where the cache root is the
            cache's directory, else ``cache_dir``, else
            ``REPRO_CACHE_DIR`` or ``.repro_cache``).
        journal_meta: plain-JSON metadata stored in the journal header
            (the CLI records its argv here so ``python -m repro
            resume`` can restart the sweep).
    """

    def __init__(
        self,
        fn: Callable,
        *,
        jobs: int | None = None,
        cache: bool | ResultCache | None = False,
        cache_dir: str | os.PathLike | None = None,
        label: str | None = None,
        progress: Callable[[str], None] | None = None,
        timeout: float | None = None,
        retries: int = 0,
        retry_backoff: float = 0.05,
        failures: str = "raise",
        journal: bool = False,
        journal_dir: str | os.PathLike | None = None,
        journal_meta: dict | None = None,
    ) -> None:
        if not callable(fn):
            raise ConfigurationError("fn must be callable")
        if failures not in ("raise", "record"):
            raise ConfigurationError(
                f"failures must be 'raise' or 'record', got {failures!r}"
            )
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        self._fn = fn
        self.jobs = resolve_jobs(jobs)
        self.label = label or getattr(fn, "__name__", "sweep")
        if isinstance(cache, ResultCache):
            self._cache: ResultCache | None = cache
        elif cache:
            self._cache = ResultCache(cache_dir)
        else:
            self._cache = None
        self._fault = _FaultPlan(
            timeout=timeout,
            retries=int(retries),
            backoff=float(retry_backoff),
            failures=failures,
        )
        self._journal_enabled = bool(journal)
        if journal_dir is None:
            cache_root = self._cache.root if self._cache is not None else cache_dir
            journal_dir = _journal.default_journal_dir(cache_root)
        self._journal_dir = journal_dir
        self._journal_meta = journal_meta
        if progress is not None:
            self._progress = progress
        elif os.environ.get("REPRO_SWEEP_PROGRESS", "").strip():
            self._progress = lambda msg: print(msg, file=sys.stderr, flush=True)
        else:
            self._progress = None
        self._code_token: str | None = None

    @property
    def cache(self) -> ResultCache | None:
        """The result cache in use, if any."""
        return self._cache

    def _key(self, config, seed: int) -> str:
        if self._code_token is None:
            self._code_token = stable_fingerprint(self._fn)
        return cache_key(config, seed, code_token=self._code_token)

    def run_key(self, points: Iterable[tuple[object, int]]) -> str:
        """Content-addressed identity of a point set under this runner.

        Derived from the label and every point's cache key, so the same
        sweep (same configs, seeds and code) maps to the same
        journal file across invocations.
        """
        return self._run_key(
            [self._key(config, int(seed)) for config, seed in points]
        )

    def _run_key(self, keys: Sequence[str]) -> str:
        material = "|".join([self.label, *keys])
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def run(
        self,
        points: Iterable[tuple[object, int]],
        *,
        resume: bool = True,
    ) -> RunReport:
        """Evaluate every (config, seed) point and return the report.

        Results come back in submission order. Worker exceptions
        propagate to the caller after the pool is torn down (under the
        default ``failures="raise"``; ``"record"`` degrades them to
        :class:`PointFailure` entries instead). With journaling on,
        ``resume=True`` (the default) replays any journaled completions
        for this exact point set before computing the remainder. The
        report's manifest carries the run's merged metrics: serial and
        parallel runs of the same points produce identical counters,
        except ``journal.syncs``, which counts group commits.
        """
        submitted: Sequence[tuple[object, int]] = [
            (config, int(seed)) for config, seed in points
        ]
        if not submitted:
            raise ConfigurationError("need at least one sweep point")
        start = time.perf_counter()
        total = len(submitted)
        progress = self._progress  # progress text is built only for a sink
        outcomes: list[PointResult | None] = [None] * total
        failures: list[PointFailure] = []
        pending: list[tuple[int, object, int, int]] = []
        cache_hits = 0
        resumed = 0
        compute_wall = 0.0
        keys: list[str | None] = [None] * total
        run_key: str | None = None
        journal: _journal.SweepJournal | None = None
        if self._cache is not None or self._journal_enabled:
            keys = [self._key(config, seed) for config, seed in submitted]
        if self._journal_enabled:
            run_key = self._run_key(keys)
            journal = _journal.SweepJournal(run_key, self._journal_dir)
        try:
            with _metrics.capture(propagate=True) as run_registry, _spans.span(
                f"sweep.{self.label}", points=total
            ):
                run_registry.counter("sweep.runs").inc()
                # Journaled point records by key. The torn tail is cut
                # back to a frame boundary on every run, so new appends
                # stay replayable; only a resumed run skips journaled
                # points.
                journaled: dict[str, dict] = {}
                if journal is not None:
                    state = journal.replay()
                    journal.repair(state)
                    journal.write_header(
                        label=self.label, total=total, meta=self._journal_meta
                    )
                    journaled = state.points
                for index, (config, seed) in enumerate(submitted):
                    key = keys[index]
                    if self._cache is not None:
                        lookup = time.perf_counter()
                        hit, value = self._cache.get(key)
                        if hit:
                            outcomes[index] = PointResult(
                                config=config,
                                seed=seed,
                                value=value,
                                wall_seconds=time.perf_counter() - lookup,
                                cached=True,
                            )
                            cache_hits += 1
                            run_registry.counter("sweep.points.cached").inc()
                            if journal is not None and key not in journaled:
                                # Checkpoint cache-served points too, so
                                # the journal stays a complete record of
                                # the sweep once the cache is cleared.
                                journal.record_point(
                                    key=key,
                                    index=index,
                                    seed=seed,
                                    status="done",
                                    value=value,
                                )
                            if progress is not None:
                                progress(
                                    f"[sweep:{self.label}] point "
                                    f"{index + 1}/{total} seed={seed} cached"
                                )
                            continue
                    if resume and key in journaled:
                        replayed = _replay_point(journaled[key], config, seed)
                        if replayed is not None:
                            outcomes[index] = replayed
                            resumed += 1
                            run_registry.counter("sweep.points.resumed").inc()
                            if self._cache is not None:
                                # The cache missed but the journal has
                                # the value: repopulate (cache cleared
                                # or torn between crash and resume).
                                self._cache.put_if_absent(key, replayed.value)
                            if progress is not None:
                                progress(
                                    f"[sweep:{self.label}] point "
                                    f"{index + 1}/{total} seed={seed} "
                                    "resumed from journal"
                                )
                            continue
                    pending.append((index, config, seed, 0))
                if journal is not None:
                    journal.commit()  # the header and cache-served points

                if pending:
                    compute_start = time.perf_counter()
                    jobs = min(self.jobs, len(pending))
                    sink = _RecordSink(
                        self,
                        outcomes,
                        failures,
                        journal,
                        keys,
                        done=total - len(pending),
                    )
                    if jobs == 1:
                        self._run_serial(pending, sink)
                    else:
                        self._run_parallel(pending, sink, jobs)
                    sink.commit()
                    compute_wall = time.perf_counter() - compute_start
                metrics_snapshot = run_registry.snapshot()
        finally:
            if journal is not None:
                journal.close()  # commits what an exception left behind

        wall_clock = time.perf_counter() - start
        run_manifest = _manifest.RunManifest.collect(
            "sweep",
            seeds=tuple(seed for _, seed in submitted),
            config={
                "label": self.label,
                "jobs": self.jobs,
                "points": total,
                "cache": self._cache is not None,
                "journal": self._journal_enabled,
                "run_key": run_key,
                "resumed": resumed,
                "failed": len(failures),
            },
            cache_hits=cache_hits,
            cache_misses=len(pending),
            metrics=metrics_snapshot,
            wall_seconds=wall_clock,
        ) if _metrics.get_registry().enabled else None
        report = RunReport(
            label=self.label,
            jobs=self.jobs,
            points=tuple(outcomes),
            wall_clock=wall_clock,
            cache_hits=cache_hits,
            compute_wall_clock=compute_wall,
            points_resumed=resumed,
            points_failed=tuple(failures),
            # Failed points are in ``outcomes`` too: count each point once.
            retries=sum(p.retries for p in outcomes),
            run_key=run_key,
            manifest=run_manifest,
        )
        registry = _metrics.get_registry()
        registry.gauge("sweep.worker_utilization").set(
            report.worker_utilization
        )
        registry.gauge("sweep.cache_hit_rate").set(report.cache_hit_rate)
        if progress is not None:
            progress(report.summary())
        return report

    def _run_serial(self, pending, sink: "_RecordSink") -> None:
        for item in pending:
            sink.record(item, _execute_point(self._fn, self._fault, item))
            sink.commit()

    def _make_executor(self, jobs: int) -> ProcessPoolExecutor:
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            # Workers inherit the parent's memory, so even closure-based
            # work functions ride along without pickling.
            ctx = multiprocessing.get_context("fork")
            payload = self._fn
        else:  # spawn-only platform: the function must pickle
            ctx = multiprocessing.get_context()
            payload = pickle.dumps(self._fn)
        return ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=ctx,
            initializer=_install_worker_fn,
            initargs=(payload, self._fault),
        )

    def _run_parallel(self, pending, sink: "_RecordSink", jobs) -> None:
        """Run the points on a pool of ``jobs`` workers, a batch per task.

        At most ``jobs`` batches are in flight, one per worker. Batches
        hold one point until the first outcome is back, then about
        :data:`BATCH_SECONDS` of points (:class:`_Pace`); a point slower
        than that travels alone. When a batch comes back, the next one
        is submitted before its points are recorded, and the journal is
        committed once no other batch has finished.

        A worker death (``BrokenProcessPool``) charges one retry to every
        point of the batches in flight, and never to a point not yet
        submitted. Those points then rerun one at a time, each alone on
        the rebuilt pool, so a second death is charged only to the point
        that caused it; normal dispatch resumes once they settle. Under
        ``failures="raise"`` a point's exception propagates from its
        batch, and the batch-mates that finished before it are not
        recorded (resume recomputes them).
        """
        try:
            executor = self._make_executor(jobs)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            warnings.warn(
                f"sweep work function is not picklable ({exc}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
            self._run_serial(pending, sink)
            return
        queue = deque(pending)  # not submitted yet, so never charged
        suspects: deque = deque()  # charged by a death, to rerun alone
        pace = _Pace()
        registry = _metrics.get_registry()
        while True:
            with executor:
                lost = self._isolate(executor, suspects, sink, pace)
                if not lost:
                    lost = self._dispatch(executor, jobs, queue, sink, pace)
            if not (lost or queue or suspects):
                return
            registry.counter("exec.pool.rebuilds").inc()
            for item in lost:
                index, config, seed, base_attempt = item
                if base_attempt < self._fault.retries:
                    suspects.append((index, config, seed, base_attempt + 1))
                elif self._fault.failures != "record":
                    raise BrokenProcessPool(
                        "sweep worker died and the retry budget is "
                        f"exhausted (point index {index}, seed {seed})"
                    )
                else:
                    sink.record(
                        item,
                        _Outcome(
                            value=None,
                            wall=0.0,
                            retries=base_attempt,
                            snapshot={},
                            error="BrokenProcessPool: worker process died",
                        ),
                    )
            sink.commit()
            if not (queue or suspects):
                return
            if self._progress is not None:
                self._progress(
                    f"[sweep:{self.label}] worker pool died; rebuilding it, "
                    f"{len(suspects)} point(s) to rerun one at a time"
                )
            jobs = min(jobs, len(queue) + len(suspects))
            executor = self._make_executor(jobs)

    def _isolate(self, executor, suspects, sink, pace) -> list:
        """Rerun each suspect alone until it settles.

        Returns ``[item]`` for a suspect that took the pool down again
        (the others stay in ``suspects``), else ``[]``.
        """
        while suspects:
            item = suspects.popleft()
            try:
                outcomes = executor.submit(_pool_batch, [item]).result()
            except BrokenProcessPool:
                return [item]
            pace.observe(outcomes)
            sink.record(item, outcomes[0])
            sink.commit()
        return []

    def _dispatch(self, executor, jobs, queue, sink, pace) -> list:
        """Run the queue's points in batches until it empties or the pool
        dies.

        Returns the points of the batches in flight when the pool died
        (the batches that finished before the death are recorded), else
        ``[]``; points still queued were never submitted.
        """
        in_flight: dict = {}

        def submit() -> None:
            if queue:
                size = min(pace.batch_size(len(queue), jobs), len(queue))
                batch = [queue.popleft() for _ in range(size)]
                try:
                    in_flight[executor.submit(_pool_batch, batch)] = batch
                except BrokenProcessPool:
                    # A worker died since the last batch came back. This
                    # batch never ran: it stays queued and uncharged.
                    queue.extendleft(reversed(batch))

        for _ in range(jobs):
            submit()
        while in_flight:
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in [f for f in in_flight if f in done]:
                batch = in_flight.pop(future)
                try:
                    outcomes = future.result()
                except BrokenProcessPool:
                    return self._drain_dead_pool(batch, in_flight, sink)
                pace.observe(outcomes)
                submit()
                for item, outcome in zip(batch, outcomes):
                    sink.record(item, outcome)
                if not any(other.done() for other in in_flight):
                    sink.commit()
        return []

    def _drain_dead_pool(self, lost, in_flight, sink) -> list:
        """Settle the batches in flight with a dead pool.

        Records every batch that finished before the death and returns
        the points of the others, ``lost`` first.
        """
        lost = list(lost)
        wait(in_flight)  # a dead pool fails every pending future at once
        for future, batch in in_flight.items():
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                lost.extend(batch)
                continue
            for item, outcome in zip(batch, outcomes):
                sink.record(item, outcome)
        return lost


class _RecordSink:
    """Per-run writeback: outcomes, metrics, journal, cache, progress.

    Every computed point flows through :meth:`record` — from the serial
    loop, the pool's batch loop, and the pool-rebuild path — so
    checkpoint appends and cache publication happen the moment a point
    settles, not at the end of the sweep. That per-point record is what
    makes a SIGKILLed sweep resumable at the granularity of single
    points; :meth:`commit` makes the records so far survive a power cut.
    """

    def __init__(
        self, runner: SweepRunner, outcomes, failures, journal, keys, done
    ) -> None:
        self.runner = runner
        self.outcomes = outcomes
        self.failures = failures
        self.journal = journal
        self.keys = keys
        self.done = done

    def record(self, item, outcome: _Outcome) -> None:
        index, config, seed, _ = item
        value, wall, retries, snapshot, error = outcome
        failed = error is not None
        self.outcomes[index] = PointResult(
            config=config,
            seed=seed,
            value=value,
            wall_seconds=wall,
            cached=False,
            failed=failed,
            retries=retries,
        )
        registry = _metrics.get_registry()
        registry.merge_snapshot(snapshot)
        if failed:
            registry.counter("sweep.points.failed").inc()
            self.failures.append(
                PointFailure(
                    index=index,
                    config=config,
                    seed=seed,
                    error=error,
                    retries=retries,
                    wall_seconds=wall,
                )
            )
        else:
            registry.counter("sweep.points.computed").inc()
            registry.timer("sweep.point").observe(wall)
            if self.runner._cache is not None:
                self.runner._cache.put_if_absent(self.keys[index], value)
        if self.journal is not None:
            self.journal.record_point(
                key=self.keys[index],
                index=index,
                seed=seed,
                status="failed" if failed else "done",
                value=value,
                wall_seconds=wall,
                retries=retries,
                error=error,
            )
        self.done += 1
        progress = self.runner._progress
        if progress is None:
            return
        if failed:
            status = f"FAILED after {retries} retries: {error}"
        else:
            status = f"{wall:.3f}s"
            if retries:
                status += f" ({retries} retries)"
        progress(
            f"[sweep:{self.runner.label}] point {self.done}/"
            f"{len(self.outcomes)} seed={seed} {status}"
        )

    def commit(self) -> None:
        """Make every journal record so far durable (one fsync)."""
        if self.journal is not None:
            self.journal.commit()
