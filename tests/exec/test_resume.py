"""Checkpoint/resume correctness for journaled sweeps.

Four guarantees:

1. A sweep SIGKILLed mid-run (no cleanup, no atexit) resumes from its
   journal, and the merged :class:`RunReport` values are bit-identical
   to a clean serial run.
2. Resume is correct after *any* prefix truncation of the journal — a
   hypothesis property sweeping the cut point over every byte offset.
3. A power cut loses at most the journal frames written since the last
   fsync, plus whatever cache entries they name; resume recomputes
   exactly those points and republishes their entries.
4. When ``run()`` returns, the last fsync covers the whole journal.

``TestJournalFormat`` pins the v2 frame: the record's key in front of
its JSON, and the JSON decoded only when a record is used.
"""

from __future__ import annotations

import binascii
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import (
    ResultCache,
    SweepRunner,
    default_journal_dir,
    list_journals,
)
from repro.exec.cache import source_digest
from repro.exec.journal import SweepJournal, _unframe, encode_value
from repro.obs import capture
from tests.exec._faultlib import (
    FlakyWorker,
    deterministic_value,
    sleepy_point,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _points(n: int, tag: str = "resume"):
    return [({"tag": tag}, 300 + i) for i in range(n)]


def _clean_values(points):
    return [deterministic_value(config, seed) for config, seed in points]


def _runner(**kwargs) -> SweepRunner:
    defaults = dict(
        jobs=1, cache=False, label="resume-suite", journal=True
    )
    defaults.update(kwargs)
    return SweepRunner(deterministic_value, **defaults)


def _record_commits(monkeypatch, path: Path) -> list[int]:
    """Wrap ``os.fsync`` to record the journal's size at each commit.

    Only fsyncs of ``path`` count (a cache or another file is never the
    journal). The sizes are what a power cut right after each commit
    would leave on disk.
    """
    sizes: list[int] = []
    fsync = os.fsync

    def recording(fd):
        fsync(fd)
        stat = os.fstat(fd)
        if path.exists() and os.path.samestat(stat, path.stat()):
            sizes.append(stat.st_size)

    monkeypatch.setattr(os, "fsync", recording)
    return sizes


def _eager_records(path: Path) -> dict[str, dict]:
    """Every point record of a journal, decoded up front from the
    ``<crc> <key> <json>`` frames."""
    records = {}
    for line in path.read_bytes().splitlines()[1:]:
        _, key, body = line.split(b" ", 2)
        records[key.decode()] = json.loads(body)
    return records


def _poisoned(config, seed: int) -> float:
    """:func:`deterministic_value`, except that odd seeds fail."""
    if seed % 2:
        raise ValueError(f"poisoned seed {seed}")
    return deterministic_value(config, seed)


class TestJournalLifecycle:
    def test_journal_written_and_listed(self):
        points = _points(3)
        report = _runner().run(points)
        assert report.run_key is not None
        path = default_journal_dir() / f"{report.run_key}.jsonl"
        assert path.exists()
        states = list_journals()
        assert len(states) == 1
        assert states[0].header["label"] == "resume-suite"
        assert states[0].header["run_key"] == report.run_key
        assert states[0].total == 3
        assert states[0].completed == 3

    @pytest.mark.parametrize("cache", [False, True, "instance"])
    def test_journal_defaults_under_cache_root(self, tmp_path, cache):
        """Without ``journal_dir`` the journal lives in ``<cache root>/
        journal``, never under ``REPRO_CACHE_DIR`` — otherwise a sweep
        with its own cache dir replays another run's journal."""
        root = tmp_path / "own_cache"
        if cache == "instance":
            runner = _runner(cache=ResultCache(root))
        else:
            runner = _runner(cache=cache, cache_dir=root)
        report = runner.run(_points(2))
        assert (root / "journal" / f"{report.run_key}.jsonl").exists()
        assert list_journals() == []
        assert not _runner(cache_dir=tmp_path / "fresh").run(
            _points(2)
        ).points_resumed

    def test_rerun_resumes_every_point(self):
        points = _points(4)
        first = _runner().run(points)
        with capture() as registry:
            second = _runner().run(points)
        assert second.values() == first.values()
        assert second.points_resumed == 4
        assert second.points_computed == 0
        assert registry.counter("sweep.points.resumed").value == 4

    def test_resume_disabled_recomputes(self):
        points = _points(3)
        _runner().run(points)
        report = _runner().run(points, resume=False)
        assert report.points_resumed == 0
        assert report.points_computed == 3
        assert report.values() == _clean_values(points)

    def test_run_key_is_content_addressed(self):
        runner = _runner()
        points = _points(3)
        assert runner.run_key(points) == runner.run_key(points)
        assert runner.run_key(points) != runner.run_key(_points(4))
        assert runner.run_key(points) != runner.run_key(
            _points(3, tag="other")
        )
        assert runner.run_key(points) != _runner(
            label="something-else"
        ).run_key(points)

    def test_changed_points_do_not_false_resume(self):
        """A different point set gets a different journal; nothing leaks
        across run keys."""
        _runner().run(_points(3))
        report = _runner().run(_points(3, tag="fresh"))
        assert report.points_resumed == 0
        assert report.values() == _clean_values(_points(3, tag="fresh"))

    def test_cache_served_points_are_journaled_once(self, tmp_path):
        """A journaled run over a cache that an unjournaled run filled
        checkpoints every cache-served point once; re-runs append
        nothing, and the journal alone later replays the whole sweep."""
        points = _points(4, tag="served")
        cache = ResultCache(tmp_path / "cache")
        _runner(cache=cache, journal=False).run(points)
        with capture() as registry:
            served = _runner(cache=cache).run(points)
        assert served.cache_hits == 4
        assert registry.counter("journal.appends").value == 5  # header + 4
        with capture() as registry:
            _runner(cache=cache).run(points)
        assert registry.counter("journal.appends").value == 0
        cache.clear()
        replayed = _runner(cache=cache).run(points)
        assert replayed.points_resumed == 4
        assert replayed.values() == _clean_values(points)

    def test_journal_repopulates_cleared_cache(self):
        """Cache wiped between runs: values come back from the journal
        and get republished, so a third run is pure cache hits."""
        points = _points(3, tag="repop")
        cache_root = Path(os.environ["REPRO_CACHE_DIR"])
        first = _runner(cache=True).run(points)
        assert first.cache_hits == 0
        # Wipe cache payloads but keep the journal directory.
        for child in cache_root.iterdir():
            if child.name != "journal":
                import shutil

                shutil.rmtree(child)
        second = _runner(cache=True).run(points)
        assert second.points_resumed == 3
        assert second.values() == first.values()
        third = _runner(cache=True).run(points)
        assert third.cache_hits == 3
        assert third.values() == first.values()


class TestSigkillResume:
    def test_sigkilled_sweep_resumes_bit_identically(self):
        """SIGKILL a journaled subprocess sweep mid-run, resume it
        in-process, and compare against a clean serial run."""
        n_points, seed, sleep = 6, 7000, 0.25
        # Both sides key the journal by this process's source digest, so
        # a package file edited while the test runs cannot split them.
        spec = {
            "points": n_points,
            "seed": seed,
            "sleep": sleep,
            "jobs": 1,
            "source_digest": source_digest(),
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT}"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; import tests.exec._faultlib as f; "
                "f.main_subprocess()",
                json.dumps(spec),
            ],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            bufsize=1,
        )
        completed = 0
        try:
            deadline = time.monotonic() + 60
            for line in proc.stdout:
                if line.startswith("POINT"):
                    completed += 1
                    if completed >= 3:
                        break
                assert time.monotonic() < deadline, "subprocess too slow"
                assert not line.startswith("DONE"), (
                    "sweep finished before we could kill it"
                )
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.stdout.close()
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        assert completed >= 3

        points = [
            ({"tag": "sigkill", "sleep": sleep}, seed + i)
            for i in range(n_points)
        ]
        resumed = SweepRunner(
            sleepy_point,
            jobs=1,
            cache=False,
            label="sigkill-demo",
            journal=True,
        ).run(points)
        # The journal survived the kill: at least the points we saw
        # reported are replayed, and nothing is lost or duplicated.
        assert resumed.points_resumed >= 3
        assert resumed.points_resumed < n_points
        assert resumed.points_completed == n_points
        clean = [deterministic_value(config, seed_) for config, seed_ in points]
        assert resumed.values() == clean


class TestPrefixTruncation:
    @pytest.fixture
    def baseline(self):
        points = _points(5, tag="trunc")
        report = _runner(label="trunc-suite").run(points)
        path = default_journal_dir() / f"{report.run_key}.jsonl"
        raw = path.read_bytes()
        assert raw  # the journal must exist for truncation to mean anything
        return points, report.values(), path, raw

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_resume_correct_after_any_truncation(self, baseline, data):
        """Chop the journal at ANY byte offset; the resumed sweep still
        produces the clean values and completes every point."""
        points, clean_values, path, raw = baseline
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
        path.write_bytes(raw[:cut])
        report = _runner(label="trunc-suite").run(points)
        assert report.values() == clean_values
        assert report.points_completed == len(points)
        assert report.points_resumed + report.points_computed == len(points)
        # The journal must be whole again: a second resume replays
        # every point even though the first resume started from a
        # (possibly torn) prefix.
        again = _runner(label="trunc-suite").run(points)
        assert again.points_resumed == len(points)
        assert again.values() == clean_values

    def test_midframe_truncation_counts_corrupt(self, baseline):
        points, clean_values, path, raw = baseline
        # Cut inside the final frame: prefix replays, tail is torn.
        path.write_bytes(raw[: len(raw) - 5])
        with capture() as registry:
            report = _runner(label="trunc-suite").run(points)
        assert report.values() == clean_values
        assert registry.counter("journal.corrupt").value >= 1
        assert report.points_resumed == len(points) - 1
        assert report.points_computed == 1

    def test_fresh_run_repairs_torn_tail(self):
        """Regression: ``resume=False`` used to append its first frame
        onto a torn tail line, so a later resume lost every point that
        run journaled."""
        points = _points(4, tag="torn")
        report = _runner().run(points)
        path = default_journal_dir() / f"{report.run_key}.jsonl"
        path.write_bytes(path.read_bytes()[:-7])
        assert _runner().run(points, resume=False).points_computed == 4
        again = _runner().run(points)
        assert again.points_resumed == 4
        assert again.values() == _clean_values(points)

    def test_bitflip_stops_replay_at_corrupt_frame(self, baseline):
        points, clean_values, path, raw = baseline
        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(flipped))
        with capture() as registry:
            report = _runner(label="trunc-suite").run(points)
        assert report.values() == clean_values
        assert report.points_completed == len(points)
        assert registry.counter("journal.corrupt").value >= 1

    def test_unknown_format_version_replays_empty(self, baseline):
        points, clean_values, path, raw = baseline
        state = SweepJournal(path.stem, path.parent).replay()
        bad_header = dict(state.header, format=999)
        from repro.exec.journal import _frame

        body = _frame(bad_header)
        rest = raw.split(b"\n", 1)[1]
        path.write_bytes(body + rest)
        with capture() as registry:
            report = _runner(label="trunc-suite").run(points)
        assert report.values() == clean_values
        assert report.points_resumed == 0
        assert registry.counter("journal.corrupt").value >= 1


class TestPowerLoss:
    """The journal is fsync'd once per group of recorded points and the
    cache never, so a power cut can cut the journal back to any commit
    and leave the cache entries of the points after it torn."""

    @pytest.mark.parametrize("cut", ["earlier", "last"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_resume_after_power_loss(self, tmp_path, monkeypatch, jobs, cut):
        points = _points(24, tag=f"power-{jobs}")
        cache = ResultCache(tmp_path / "cache")
        runner = _runner(jobs=jobs, cache=cache)
        path = cache.root / "journal" / f"{runner.run_key(points)}.jsonl"
        commits = _record_commits(monkeypatch, path)
        runner.run(points)
        raw = path.read_bytes()
        assert commits[-1] == len(raw)
        earlier = [size for size in commits if size < len(raw)]
        size = earlier[len(earlier) // 2] if cut == "earlier" else len(raw)
        # The power cut: the journal keeps its committed prefix, and
        # every point recorded after it loses its cache entry's bytes.
        path.write_bytes(raw[:size])
        lost = [_unframe(line)[0] for line in raw[size:].splitlines()]
        assert bool(lost) == (cut == "earlier")
        for n, key in enumerate(lost):
            entry = Path(cache._path(key))
            data = entry.read_bytes()
            entry.write_bytes(
                bytes(len(data)) if n % 2 else data[: len(data) // 2]
            )
        with capture() as registry:
            resumed = _runner(jobs=jobs, cache=cache).run(points)
        clean = _runner(jobs=1, journal=False).run(points)
        assert resumed.values() == clean.values()
        keys = [runner._key(config, seed) for config, seed in points]
        recomputed = {
            keys[index]
            for index, point in enumerate(resumed.points)
            if not point.cached and not point.resumed
        }
        assert recomputed == set(lost)
        assert resumed.cache_hits == len(points) - len(lost)
        assert registry.counter("cache.corrupt").value == len(lost)
        for key in lost:
            value = clean.points[keys.index(key)].value
            assert cache.get(key) == (True, value)
        again = _runner(jobs=jobs, cache=cache).run(points)
        assert again.cache_hits == len(points)
        assert again.values() == clean.values()


class TestFinalCommit:
    """When ``run()`` returns, the last fsync covers the whole journal,
    so no record of a finished sweep waits on a later commit."""

    def _journal(self, runner, points) -> Path:
        return default_journal_dir() / f"{runner.run_key(points)}.jsonl"

    def test_normal_run(self, monkeypatch):
        points = _points(40, tag="final")
        runner = _runner(jobs=2)
        path = self._journal(runner, points)
        commits = _record_commits(monkeypatch, path)
        with capture() as registry:
            report = runner.run(points)
        assert commits[-1] == path.stat().st_size
        assert registry.counter("journal.appends").value == 41
        assert 1 <= registry.counter("journal.syncs").value == len(commits)
        assert report.values() == _clean_values(points)

    def test_serial_run_commits_every_point(self, monkeypatch):
        points = _points(5, tag="final-serial")
        runner = _runner(jobs=1)
        path = self._journal(runner, points)
        commits = _record_commits(monkeypatch, path)
        runner.run(points)
        # The header, then one commit per point.
        assert len(commits) == 6
        assert commits == sorted(set(commits))
        assert commits[-1] == path.stat().st_size

    def test_slow_points_commit_as_they_finish(self, monkeypatch):
        """Points slower than an fsync find the parent idle, so each
        group of points that finish together is committed before the
        next one finishes, not at the end of the run."""
        points = [
            ({"tag": "final-slow", "sleep": 0.15}, 400 + i) for i in range(8)
        ]
        runner = SweepRunner(
            sleepy_point, jobs=2, label="resume-suite", journal=True
        )
        path = self._journal(runner, points)
        commits = _record_commits(monkeypatch, path)
        runner.run(points)
        # The header, then at least one more group before the last.
        assert len(commits) >= 3
        assert commits[-1] == path.stat().st_size

    def test_recorded_failures(self, monkeypatch):
        points = _points(12, tag="final-failures")
        runner = SweepRunner(
            _poisoned,
            jobs=2,
            label="resume-suite",
            journal=True,
            failures="record",
        )
        path = self._journal(runner, points)
        commits = _record_commits(monkeypatch, path)
        report = runner.run(points)
        assert len(report.points_failed) == 6
        assert commits[-1] == path.stat().st_size
        state = SweepJournal(path.stem, path.parent).replay()
        statuses = sorted(r["status"] for r in state.points.values())
        assert statuses == ["done"] * 6 + ["failed"] * 6

    @pytest.mark.parametrize(
        "faults, retries", [(1, 5), (99, 1)], ids=["recovers", "exhausts"]
    )
    def test_after_pool_rebuild(self, tmp_path, monkeypatch, faults, retries):
        """Worker deaths rebuild the pool. Points that exhaust their
        budget are recorded on the rebuild path, after the completion
        loop's last commit, so only the final commit covers them."""
        points = _points(6, tag=f"final-rebuild-{faults}")
        runner = SweepRunner(
            FlakyWorker(str(tmp_path / "faults"), mode="exit", faults=faults),
            jobs=2,
            label="resume-suite",
            journal=True,
            retries=retries,
            retry_backoff=0.001,
            failures="record",
        )
        path = self._journal(runner, points)
        commits = _record_commits(monkeypatch, path)
        with capture() as registry:
            report = runner.run(points)
        assert registry.counter("exec.pool.rebuilds").value >= 1
        assert commits[-1] == path.stat().st_size
        state = SweepJournal(path.stem, path.parent).replay()
        if faults == 1:
            assert report.values() == _clean_values(points)
            assert state.completed == 6
        else:
            assert len(report.points_failed) == 6
            assert state.failed == 6


class TestJournalFormat:
    """Journal format v2: ``<crc> <key|-> <json>`` frames, indexed by key
    on replay and decoded on use."""

    @staticmethod
    def _v1_frame(record: dict) -> bytes:
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        data = body.encode("utf-8")
        return b"%08x %s\n" % (binascii.crc32(data), data)

    @pytest.mark.parametrize("label", ["resume-suite", "label with spaces"])
    def test_v1_journal_replays_empty_and_keeps_its_bytes(self, label):
        """A journal an older build wrote (the JSON right after the CRC)
        is foreign: it replays as empty, counts as corrupt, is not
        listed, and a repair leaves every byte of it in place."""
        points = _points(3, tag="v1")
        runner = _runner(label=label)
        run_key = runner.run_key(points)
        frames = [
            self._v1_frame(
                {
                    "kind": "header",
                    "format": 1,
                    "run_key": run_key,
                    "label": label,
                    "total": len(points),
                }
            )
        ]
        for index, (config, seed) in enumerate(points):
            frames.append(
                self._v1_frame(
                    {
                        "kind": "point",
                        "key": runner._key(config, seed),
                        "index": index,
                        "seed": seed,
                        "status": "done",
                        "value": encode_value(deterministic_value(config, seed)),
                        "wall_seconds": 0.5,
                        "retries": 0,
                    }
                )
            )
        raw = b"".join(frames)
        path = default_journal_dir() / f"{run_key}.jsonl"
        path.parent.mkdir(parents=True)
        path.write_bytes(raw)
        journal = SweepJournal(run_key)
        with capture() as registry:
            state = journal.replay()
            journal.repair(state)
        assert state.header is None
        assert len(state.points) == 0
        assert state.valid_bytes is None
        assert registry.counter("journal.corrupt").value == 1
        assert path.read_bytes() == raw
        assert list_journals() == []

    @pytest.mark.parametrize("key", ["-", "", "a b", "a\nb", " a"])
    def test_record_point_rejects_keys_that_break_the_frame(self, key):
        """A space or newline in a key would split its frame, and ``-``
        marks the header."""
        journal = SweepJournal("feedfacecafe0002")
        with pytest.raises(ValueError, match="not a journal key"):
            journal.record_point(key=key, index=0, seed=0, status="done")
        journal.close()
        assert not journal.path.exists()

    def test_records_decode_on_use_like_an_eager_decode(self, monkeypatch):
        points = _points(6, tag="lazy")
        runner = SweepRunner(
            _poisoned,
            jobs=1,
            label="resume-suite",
            journal=True,
            failures="record",
        )
        report = runner.run(points)
        path = default_journal_dir() / f"{report.run_key}.jsonl"
        loads = json.loads
        decoded = []

        def counting(text, *args, **kwargs):
            decoded.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        state = SweepJournal(report.run_key).replay()
        assert len(decoded) == 1  # the header only
        eager = _eager_records(path)
        decoded.clear()
        assert dict(state.points) == eager
        assert len(decoded) == len(points)
        assert dict(state.points) == eager  # decoded once, then kept
        assert len(decoded) == len(points)
        assert sorted(r["status"] for r in eager.values()) == (
            ["done"] * 3 + ["failed"] * 3
        )

    def test_listing_tallies_match_an_eager_decode(self, capsys):
        """``list_journals`` and ``python -m repro resume`` read the same
        completed, failed and s/point figures from decode-on-use records
        as from every record decoded up front."""
        from repro.cli import main

        points = _points(6, tag="tallies")
        runner = SweepRunner(
            _poisoned,
            jobs=1,
            label="resume-suite",
            journal=True,
            failures="record",
        )
        report = runner.run(points)
        eager = _eager_records(
            default_journal_dir() / f"{report.run_key}.jsonl"
        ).values()
        completed = sum(r["status"] == "done" for r in eager)
        failed = sum(r["status"] == "failed" for r in eager)
        walls = [r["wall_seconds"] for r in eager if r["wall_seconds"] > 0.0]
        mean = sum(walls) / len(walls)
        (state,) = list_journals()
        assert (state.completed, state.failed) == (completed, failed) == (3, 3)
        assert state.mean_compute_seconds == mean
        assert main(["resume"]) == 0
        header, _, row = capsys.readouterr().out.splitlines()[1:4]
        cells = dict(
            zip(
                [c.strip() for c in header.split("|")],
                [c.strip() for c in row.split("|")],
            )
        )
        assert cells["points"] == f"{completed}/{len(points)}"
        assert cells["failed"] == str(failed)
        assert cells["s/point"] == f"{mean:.3f}"

    def test_undecodable_record_recomputes_its_point(self):
        """A frame whose CRC holds but whose JSON does not decode is not
        torn, so replay keeps the frames after it; only its own point
        recomputes, and its fresh record wins on the next replay."""
        points = _points(4, tag="bad-json")
        runner = _runner()
        first = runner.run(points)
        path = default_journal_dir() / f"{first.run_key}.jsonl"
        key = runner._key(*points[1]).encode()
        data = key + b' {"status":"done",'
        broken = b"%08x %s\n" % (binascii.crc32(data), data)
        lines = path.read_bytes().splitlines(keepends=True)
        lines = [
            broken if line.split(b" ", 2)[1] == key else line for line in lines
        ]
        path.write_bytes(b"".join(lines))
        with capture() as registry:
            again = _runner().run(points)
        assert again.values() == first.values()
        assert again.points_resumed == len(points) - 1
        assert again.points_computed == 1
        assert not again.points[1].resumed
        assert registry.counter("journal.corrupt").value == 1
        third = _runner().run(points)
        assert third.points_resumed == len(points)
        assert third.values() == first.values()
