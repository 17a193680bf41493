"""Crash-safe sweep checkpoints: an append-only, CRC-framed journal.

A :class:`SweepJournal` records one line per finished sweep point in
``<journal_dir>/<run_key>.jsonl``. Every line is a frame::

    <crc32 of payload, 8 hex digits> <payload JSON>\\n

:meth:`SweepJournal.append` writes and flushes each frame, and
:meth:`SweepJournal.commit` fsyncs every frame written since the last
commit, so the sweep runner pays one fsync per group of finished
points. The durability contract:

- a SIGKILL loses no recorded point (flushed frames live in the OS
  page cache, which outlives the process);
- a power cut loses at most the frames written since the last commit,
  and resume recomputes those points bit for bit;
- :meth:`SweepJournal.close` commits, so when a sweep returns every
  record is on disk.

A torn tail line fails its CRC and is simply ignored on replay. The
journal is therefore *prefix-valid*: any byte-truncation of the file
replays to a correct prefix of the sweep, which is exactly the property
resume needs (and which ``tests/exec/test_resume.py`` property-tests
with hypothesis).

Records are content-addressed: each ``point`` record carries the
point's result-cache key (:func:`repro.exec.cache.cache_key`), so a
re-invocation only skips a journaled point when the *same computation*
— config, seed and work-function code — produced it. Values
ride inline as base64 pickles, so resume works even with the result
cache disabled.

Only the sweep *parent* appends (workers ship results back first), so
there is never multi-process write contention on one journal file.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.obs.metrics import get_registry

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "SweepJournal",
    "default_journal_dir",
    "list_journals",
]

#: Bump when the frame or record layout changes; mismatched journals
#: are ignored (treated as empty) rather than misread.
JOURNAL_FORMAT_VERSION = 1


def default_journal_dir(cache_root: str | os.PathLike | None = None) -> Path:
    """The journal directory: ``<cache root>/journal``."""
    from repro.exec.cache import DEFAULT_CACHE_DIR

    root = (
        cache_root
        or os.environ.get("REPRO_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )
    return Path(root) / "journal"


def _frame(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    data = body.encode("utf-8")
    return b"%08x %s\n" % (binascii.crc32(data) & 0xFFFFFFFF, data)


def _unframe(line: bytes) -> dict | None:
    """Decode one journal line; ``None`` for torn/corrupt frames."""
    line = line.rstrip(b"\n")
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    data = line[9:]
    if binascii.crc32(data) & 0xFFFFFFFF != crc:
        return None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def encode_value(value) -> str:
    """Pickle ``value`` to a base64 string for inline journaling."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_value(blob: str):
    """Inverse of :func:`encode_value`."""
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


@dataclass(frozen=True)
class JournalState:
    """Everything a valid journal prefix says about a sweep.

    Attributes:
        header: the ``header`` record (run metadata), or ``None`` when
            the journal has no valid first line.
        points: point records keyed by the point's cache key — the last
            record per key wins, so a point retried after a recorded
            failure is looked up by its final status.
        valid_bytes: byte length of the longest valid frame prefix
            (``None`` when unknown, e.g. a foreign format version).
            :meth:`SweepJournal.repair` truncates a torn tail to this
            offset so resumed appends land on a frame boundary.
    """

    header: dict | None
    points: dict[str, dict]
    valid_bytes: int | None = None

    @property
    def completed(self) -> int:
        """Journaled points whose final status is ``"done"``."""
        return sum(1 for r in self.points.values() if r.get("status") == "done")

    @property
    def failed(self) -> int:
        """Journaled points whose final status is ``"failed"``."""
        return sum(
            1 for r in self.points.values() if r.get("status") == "failed"
        )

    @property
    def mean_compute_seconds(self) -> float | None:
        """Mean ``wall_seconds`` of the computed points, or ``None``
        before the first; cache-served records carry 0.0 and are
        skipped."""
        walls = [
            r["wall_seconds"]
            for r in self.points.values()
            if r.get("wall_seconds", 0.0) > 0.0
        ]
        return sum(walls) / len(walls) if walls else None

    @property
    def remaining_compute_seconds(self) -> float | None:
        """Worker-seconds the points not yet done (failed ones included)
        would take at :attr:`mean_compute_seconds`; ``None`` when the
        size or the mean is unknown."""
        if self.total is None:
            return None
        left = max(self.total - self.completed, 0)
        if left == 0:
            return 0.0
        mean = self.mean_compute_seconds
        return None if mean is None else left * mean

    @property
    def total(self) -> int | None:
        """Declared sweep size, when the header survived."""
        if self.header is None:
            return None
        return self.header.get("total")


class SweepJournal:
    """Append-only, CRC-framed, group-committed checkpoint file for one sweep.

    Args:
        run_key: content-addressed identity of the sweep (see
            :meth:`SweepRunner.run_key`). Names the journal file.
        directory: journal directory (default
            ``<REPRO_CACHE_DIR or .repro_cache>/journal``).
    """

    def __init__(
        self, run_key: str, directory: str | os.PathLike | None = None
    ) -> None:
        self.run_key = run_key
        self.directory = (
            Path(directory) if directory is not None else default_journal_dir()
        )
        self.path = self.directory / f"{run_key}.jsonl"
        self._fh = None
        self._uncommitted = False

    # -- writing ----------------------------------------------------------

    def _handle(self):
        if self._fh is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, payload: dict) -> None:
        """Frame, append and flush one record; :meth:`commit` makes it
        durable."""
        fh = self._handle()
        fh.write(_frame(payload))
        fh.flush()
        self._uncommitted = True
        get_registry().counter("journal.appends").inc()

    def commit(self) -> None:
        """Fsync every record appended since the last commit (a no-op
        when there is none)."""
        if not self._uncommitted:
            return
        os.fsync(self._fh.fileno())
        self._uncommitted = False
        get_registry().counter("journal.syncs").inc()

    def write_header(
        self, *, label: str, total: int, meta: dict | None = None
    ) -> None:
        """Record the sweep's identity as the first journal line.

        A header is only written to a fresh (empty or absent) journal;
        resumed runs keep the original header.
        """
        if self.path.exists() and self.path.stat().st_size > 0:
            return
        record = {
            "kind": "header",
            "format": JOURNAL_FORMAT_VERSION,
            "run_key": self.run_key,
            "label": label,
            "total": int(total),
        }
        if meta:
            record["meta"] = meta
        self.append(record)

    def record_point(
        self,
        *,
        key: str,
        index: int,
        seed: int,
        status: str,
        value=None,
        wall_seconds: float = 0.0,
        retries: int = 0,
        error: str | None = None,
    ) -> None:
        """Journal one finished point (``status`` is ``done``/``failed``)."""
        record = {
            "kind": "point",
            "key": key,
            "index": int(index),
            "seed": int(seed),
            "status": status,
            "wall_seconds": float(wall_seconds),
            "retries": int(retries),
        }
        if status == "done":
            record["value"] = encode_value(value)
        if error is not None:
            record["error"] = error
        self.append(record)

    def close(self) -> None:
        """Commit and close the append handle (replay works regardless)."""
        if self._fh is not None:
            try:
                self.commit()
            finally:
                self._fh.close()
                self._fh = None

    # -- replay -----------------------------------------------------------

    def replay(self) -> JournalState:
        """Read the longest valid prefix of the journal.

        The first corrupt frame ends the replay: everything after a torn
        line was written later and cannot be trusted to be in sync with
        the (possibly also torn) cache. Corrupt frames count under the
        ``journal.corrupt`` metric; a journal whose header declares an
        unknown format version replays as empty.
        """
        header: dict | None = None
        points: dict[str, dict] = {}
        try:
            raw = self.path.read_bytes()
        except OSError:
            return JournalState(header=None, points={}, valid_bytes=0)
        pos = 0
        valid = 0
        for line in raw.split(b"\n"):
            end = pos + len(line)
            has_newline = end < len(raw)
            next_pos = end + 1
            if not line:
                pos = next_pos
                valid = min(next_pos, len(raw))
                continue
            record = _unframe(line)
            if record is None:
                get_registry().counter("journal.corrupt").inc()
                break
            if not has_newline:
                # Frame data survived but its terminator didn't: treat
                # as torn, or a resumed append would glue onto it.
                get_registry().counter("journal.corrupt").inc()
                break
            kind = record.get("kind")
            if kind == "header":
                if record.get("format") != JOURNAL_FORMAT_VERSION:
                    get_registry().counter("journal.corrupt").inc()
                    # Foreign format: don't claim a valid prefix — a
                    # repair must not truncate someone else's journal.
                    return JournalState(
                        header=None, points={}, valid_bytes=None
                    )
                header = record
            elif kind == "point" and isinstance(record.get("key"), str):
                points[record["key"]] = record
            pos = next_pos
            valid = next_pos
        return JournalState(header=header, points=points, valid_bytes=valid)

    def repair(self, state: JournalState) -> None:
        """Truncate a torn tail so new appends land on a frame boundary.

        Without this, a run after mid-frame truncation would append its
        first record onto the torn line, leaving every later frame
        unreadable by the next resume. Standard WAL recovery:
        cut back to the longest valid prefix, then append.
        """
        if state.valid_bytes is None:
            return
        self.close()
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size <= state.valid_bytes:
            return
        with open(self.path, "r+b") as fh:
            fh.truncate(state.valid_bytes)
            fh.flush()
            os.fsync(fh.fileno())


def list_journals(
    directory: str | os.PathLike | None = None,
) -> list[JournalState]:
    """Replay every journal in ``directory``, newest first.

    Used by ``python -m repro resume`` to list interrupted sweeps; the
    returned states carry their headers (run key, label, recorded CLI
    argv) and per-point completion tallies.
    """
    journal_dir = (
        Path(directory) if directory is not None else default_journal_dir()
    )
    if not journal_dir.is_dir():
        return []
    states = []
    for path in sorted(
        journal_dir.glob("*.jsonl"),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    ):
        journal = SweepJournal(path.stem, journal_dir)
        state = journal.replay()
        if state.header is not None or state.points:
            states.append(state)
    return states
