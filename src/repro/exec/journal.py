"""Crash-safe sweep checkpoints: an append-only, CRC-framed journal.

A :class:`SweepJournal` records one line per finished sweep point in
``<journal_dir>/<run_key>.jsonl``. Every line is a frame::

    <crc32, 8 hex digits> <key> <record JSON>\\n

``<key>`` is the point's result-cache key (:func:`repro.exec.cache.cache_key`),
or ``-`` on the header frame, and the CRC covers everything after the
CRC's own space: key, space and JSON. The first frame is the header
(run key, label, declared size, format version); every later one is a
point record.

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

Replay CRC-checks every frame and indexes the point frames by their
key, but decodes only the header's JSON. A point record is decoded when
it is used: when a run resumes that point, or when ``python -m repro
resume`` tallies the journal. A re-run whose points all hit the result
cache decodes no record at all. A CRC-valid record whose JSON does not
decode counts under ``journal.corrupt``, and its point recomputes.

Records are content-addressed: a re-invocation only skips a journaled
point when the *same computation* (config, seed and work-function
code) produced it. Values ride inline as base64 pickles, so resume
works even with the result cache disabled.

Only the sweep *parent* appends (workers ship results back first), so
there is never multi-process write contention on one journal file.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import pickle
from collections.abc import Iterator, Mapping
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
#: are ignored (treated as empty) rather than misread. v2 put the
#: record's key in front of its JSON.
JOURNAL_FORMAT_VERSION = 2

#: The key field of the header frame.
_HEADER_KEY = "-"


def default_journal_dir(cache_root: str | os.PathLike | None = None) -> Path:
    """The journal directory: ``<cache root>/journal``."""
    from repro.exec.cache import DEFAULT_CACHE_DIR

    root = (
        cache_root
        or os.environ.get("REPRO_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )
    return Path(root) / "journal"


def _frame(record: dict) -> bytes:
    """One frame: ``<crc> <key> <json>`` and a newline. The record's
    ``key`` moves in front of its JSON (``-`` for a record without one,
    the header), and the CRC covers both."""
    body = dict(record)
    key = body.pop("key", _HEADER_KEY)
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    data = f"{key} {text}".encode("utf-8")
    return b"%08x %s\n" % (binascii.crc32(data), data)


def _unframe(line: bytes) -> tuple[str, bytes] | None:
    """Check one frame (without its newline): its ``(key, record JSON)``,
    or ``None`` when the CRC fails (a torn or corrupt frame)."""
    if line[8:9] != b" ":
        return None
    data = line[9:]
    try:
        if binascii.crc32(data) != int(line[:8], 16):
            return None
    except ValueError:
        return None
    key, _, body = data.partition(b" ")
    return key.decode("utf-8", "replace"), body


def _loads(body: bytes) -> dict | None:
    """A record's JSON as a dict, or ``None`` when it does not decode."""
    try:
        record = json.loads(body)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None
    return record if isinstance(record, dict) else None


class _Records(Mapping):
    """Point records by key, each decoded from its frame's JSON the
    first time it is read.

    A record whose JSON does not decode reads as ``{}``: it has no
    status, so its point recomputes, and it counts once under
    ``journal.corrupt``.
    """

    def __init__(self, frames: dict[str, bytes]) -> None:
        self._records: dict[str, bytes | dict] = frames

    def __getitem__(self, key: str) -> dict:
        record = self._records[key]
        if isinstance(record, bytes):
            record = _loads(record)
            if record is None:
                get_registry().counter("journal.corrupt").inc()
                record = {}
            self._records[key] = record
        return record

    def __contains__(self, key) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


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
        points: point records keyed by the point's cache key, each
            decoded on first read. The last record per key wins, so a
            point retried after a recorded failure is looked up by its
            final status.
        valid_bytes: byte length of the longest valid frame prefix
            (``None`` when unknown, e.g. a foreign format version).
            :meth:`SweepJournal.repair` truncates a torn tail to this
            offset so resumed appends land on a frame boundary.
    """

    header: dict | None
    points: Mapping[str, dict]
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
        """Journal one finished point (``status`` is ``done``/``failed``).

        ``key`` names the point in the frame: one token, no whitespace,
        and not the header's ``-``.
        """
        if key == _HEADER_KEY or key.split() != [key]:
            raise ValueError(f"not a journal key: {key!r}")
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

        Every frame's CRC is checked and every point frame is indexed by
        its key; only the header's JSON is decoded here. The first
        corrupt frame ends the replay: everything after a torn line was
        written later and cannot be trusted to be in sync with the
        (possibly also torn) cache. Corrupt frames count under the
        ``journal.corrupt`` metric. A journal whose first frame is not a
        header of this format version (one written by an older build
        included) replays as empty, and :meth:`repair` leaves it alone.
        """
        header: dict | None = None
        frames: dict[str, bytes] = {}
        try:
            raw = self.path.read_bytes()
        except OSError:
            return JournalState(header=None, points=_Records({}), valid_bytes=0)
        pos = 0
        valid = 0
        for line in raw.split(b"\n"):
            end = pos + len(line)
            next_pos = end + 1
            if not line:
                pos = next_pos
                valid = min(next_pos, len(raw))
                continue
            frame = _unframe(line)
            if frame is None or end == len(raw):
                # A CRC failure, or frame data that survived without its
                # terminator: torn either way, and a resumed append would
                # glue onto the latter.
                get_registry().counter("journal.corrupt").inc()
                break
            key, body = frame
            if header is None:
                record = _loads(body) if key == _HEADER_KEY else None
                if (
                    record is None
                    or record.get("kind") != "header"
                    or record.get("format") != JOURNAL_FORMAT_VERSION
                ):
                    get_registry().counter("journal.corrupt").inc()
                    # Foreign format: don't claim a valid prefix — a
                    # repair must not truncate someone else's journal.
                    return JournalState(
                        header=None, points=_Records({}), valid_bytes=None
                    )
                header = record
            elif key != _HEADER_KEY:
                frames[key] = body
            pos = next_pos
            valid = next_pos
        return JournalState(
            header=header, points=_Records(frames), valid_bytes=valid
        )

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
