"""Content-addressed on-disk cache for sweep point results.

A sweep point is identified by *what would be computed*. Its key hashes:

- the config (callables in it, such as policy classes, by their code)
  and the seed;
- a fingerprint of the work function's own code (module, qualname,
  source text, default arguments, and closure cells), which covers
  work functions that live outside the package, in benchmarks, tests
  and scripts;
- :func:`source_digest`, a digest of every ``.py`` file of the
  installed ``repro`` package, so editing any package module — a
  simulator helper deep in an import chain included — invalidates every
  entry at once.

The key does **not** cover code outside ``repro`` that the work
function reaches through imports (a helper module next to a benchmark
script, or a third-party library such as NumPy): after editing such
code, call :meth:`ResultCache.clear` or delete the cache directory
(``REPRO_CACHE_DIR``, default ``.repro_cache``).
"""

from __future__ import annotations

import binascii
import functools
import hashlib
import inspect
import os
import pickle
import struct
import tempfile
import types
from collections.abc import Mapping, Sequence, Set
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "cache_key",
    "source_digest",
    "stable_fingerprint",
]

#: Version of the on-disk entry format (v8: ``RPC1`` magic + CRC32 +
#: pickle). Bump it only when that format changes; code changes
#: invalidate entries through :func:`source_digest`.
CACHE_VERSION = 8

#: Default cache directory (relative to the working directory) when
#: neither the ``REPRO_CACHE_DIR`` environment variable nor an explicit
#: root is given.
DEFAULT_CACHE_DIR = ".repro_cache"


def _callable_fingerprint(fn, seen: set[int]) -> str:
    """Fingerprint a function/class/partial/callable instance by code."""
    if isinstance(fn, functools.partial):
        inner = [
            _fingerprint(fn.func, seen),
            _fingerprint(list(fn.args), seen),
            _fingerprint(dict(fn.keywords), seen),
        ]
        return "partial(" + ",".join(inner) + ")"
    if isinstance(fn, types.MethodType):
        return (
            "method("
            + _fingerprint(fn.__func__, seen)
            + ","
            + _fingerprint(fn.__self__, seen)
            + ")"
        )
    if not isinstance(fn, (types.FunctionType, types.BuiltinFunctionType, type)):
        # A callable instance: identify it by its class plus its state.
        state = getattr(fn, "__dict__", {})
        return (
            "instance("
            + _fingerprint(type(fn), seen)
            + ","
            + _fingerprint(dict(state), seen)
            + ")"
        )
    parts = [
        getattr(fn, "__module__", "?") or "?",
        getattr(fn, "__qualname__", repr(fn)),
    ]
    try:
        source = inspect.getsource(fn)
        parts.append(hashlib.sha256(source.encode("utf-8")).hexdigest())
    except (OSError, TypeError):
        pass  # builtins / REPL definitions: qualname is all we have
    closure = getattr(fn, "__closure__", None)
    if closure:
        cells = [cell.cell_contents for cell in closure]
        parts.append(_fingerprint(cells, seen))
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        parts.append(_fingerprint(list(defaults), seen))
    return "callable(" + ",".join(parts) + ")"


def _fingerprint(obj, seen: set[int]) -> str:
    if obj is None:
        return "none"
    if isinstance(obj, bool):
        return f"bool:{obj}"
    if isinstance(obj, int):
        return f"int:{obj}"
    if isinstance(obj, float):
        return f"float:{obj.hex()}"
    if isinstance(obj, complex):
        return f"complex:{obj.real.hex()},{obj.imag.hex()}"
    if isinstance(obj, str):
        return "str:" + hashlib.sha256(obj.encode("utf-8")).hexdigest()[:32]
    if isinstance(obj, bytes):
        return "bytes:" + hashlib.sha256(obj).hexdigest()[:32]
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return _fingerprint(obj.item(), seen)
    if isinstance(obj, np.ndarray):
        return "ndarray:" + hashlib.sha256(
            repr(obj.shape).encode() + obj.tobytes()
        ).hexdigest()[:32]
    # Containers and callables can be self-referential; guard on identity.
    if id(obj) in seen:
        return "cycle"
    seen = seen | {id(obj)}
    if isinstance(obj, Mapping):
        items = sorted(
            (_fingerprint(k, seen), _fingerprint(v, seen))
            for k, v in obj.items()
        )
        return "map{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    if isinstance(obj, Set):
        return "set{" + ",".join(sorted(_fingerprint(v, seen) for v in obj)) + "}"
    if isinstance(obj, Sequence):
        return "seq[" + ",".join(_fingerprint(v, seen) for v in obj) + "]"
    if is_dataclass(obj) and not isinstance(obj, type):
        body = {f.name: getattr(obj, f.name) for f in fields(obj)}
        return (
            "dataclass("
            + _fingerprint(type(obj), seen)
            + ","
            + _fingerprint(body, seen)
            + ")"
        )
    if callable(obj):
        return _callable_fingerprint(obj, seen)
    raise ConfigurationError(
        f"cannot build a stable cache fingerprint for {type(obj).__name__!r}; "
        "use plain data (numbers, strings, dicts, lists), dataclasses, or "
        "importable callables in sweep configs"
    )


def stable_fingerprint(obj) -> str:
    """A deterministic, content-addressed fingerprint of ``obj``.

    Plain data maps to its values, callables map to their code (source
    hash, defaults, closure cells), so the fingerprint changes exactly
    when the described computation changes. Raises
    :class:`~repro.errors.ConfigurationError` for objects with no stable
    identity (e.g. open files, raw object reprs with addresses).
    """
    return _fingerprint(obj, set())


@functools.cache
def source_digest() -> str:
    """SHA-256 over the source of the installed ``repro`` package.

    Hashes every ``.py`` file under the package root — its relative
    path, its length and its bytes, in sorted path order — so the digest
    changes whenever any package module does, and not when the package
    is merely copied or installed elsewhere. Computed once per process.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    paths = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py"))
    for relative in paths:
        data = (root / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def cache_key(config, seed: int, *, code_token: str = "") -> str:
    """The cache key for one (config, seed) sweep point.

    ``code_token`` fingerprints the work function (see
    :func:`stable_fingerprint`); :func:`source_digest` stands for the
    package code that function reaches.
    """
    material = "|".join(
        [
            f"v{CACHE_VERSION}",
            f"repro-src:{source_digest()}",
            code_token,
            stable_fingerprint(config),
            f"seed:{int(seed)}",
        ]
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


#: On-disk entry framing: magic + CRC32 of the pickle payload. The CRC
#: is verified on every read, so a half-written or bit-flipped entry is
#: detected as corrupt instead of being half-unpickled.
_MAGIC = b"RPC1"
_HEADER = struct.Struct(">4sI")


def _frame_entry(value) -> bytes:
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_MAGIC, binascii.crc32(payload) & 0xFFFFFFFF) + payload


class CorruptEntryError(Exception):
    """A cache file whose frame (magic/CRC) does not verify."""


def _unframe_entry(raw: bytes) -> bytes:
    if len(raw) < _HEADER.size:
        raise CorruptEntryError("truncated header")
    magic, crc = _HEADER.unpack_from(raw)
    payload = raw[_HEADER.size:]
    if magic != _MAGIC:
        raise CorruptEntryError("bad magic")
    if binascii.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptEntryError("payload CRC mismatch")
    return payload


class ResultCache:
    """Pickle-backed, content-addressed result store.

    Crash-consistent, not durable: entries are framed with a CRC32 that
    is verified on every read, written to a temp file without ``fsync``,
    and published whole (:func:`os.link` or :func:`os.replace`), so
    neither a SIGKILLed writer nor a concurrent sweep on a shared cache
    directory can surface a partial pickle to a reader. A power cut can
    leave a published entry torn or zeroed; it reads as a miss, and
    :meth:`put_if_absent` republishes over it. The durable record of a
    sweep is its journal (:mod:`repro.exec.journal`), which refills
    such entries on resume. Unreadable entries of any kind are treated
    as misses.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        root = root or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, object]:
        """Return ``(hit, value)``; corrupt or missing entries miss.

        "Unreadable" splits into two observable classes, both clean
        misses. Frame-level damage — truncation, bit flips, zero-length
        files, anything failing the magic/CRC check — counts under
        ``cache.corrupt``. A frame that verifies but will not unpickle
        (a stale entry referencing a class since renamed, moved, or
        deleted raises ``ImportError``/``AttributeError``; exotic torn
        protocol streams surface ``IndexError``/``ValueError``) counts
        under ``cache.stale``, so refactor fallout is visible next to
        disk damage. Either way ``cache.stale`` also tallies "entry
        present but unloadable" as the umbrella count.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            get_registry().counter("cache.miss").inc()
            return False, None
        try:
            value = pickle.loads(_unframe_entry(raw))
        except CorruptEntryError:
            get_registry().counter("cache.corrupt").inc()
            get_registry().counter("cache.stale").inc()
            get_registry().counter("cache.miss").inc()
            return False, None
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
            ValueError,
        ):
            get_registry().counter("cache.stale").inc()
            get_registry().counter("cache.miss").inc()
            return False, None
        get_registry().counter("cache.hit").inc()
        return True, value

    def _write_tmp(self, path: Path, value) -> str:
        """Frame and write ``value`` to a temp file next to ``path``;
        return its name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_frame_entry(value))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return tmp

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` atomically (last writer wins)."""
        get_registry().counter("cache.put").inc()
        path = self._path(key)
        tmp = self._write_tmp(path, value)
        try:
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put_if_absent(self, key: str, value) -> bool:
        """Compare-and-swap store: publish ``value`` only if ``key`` has
        no complete entry. Returns ``True`` when this call published.

        The swap uses :func:`os.link`, which fails atomically when the
        destination exists — so concurrent sweeps sharing a cache
        directory each keep exactly one complete entry per key and
        never interleave partial writes. An existing entry that fails
        its frame check (torn by a power cut) is replaced, as is a
        missing one on a file system without hard links (exFAT, some
        FUSE and network mounts). Those two cases check, then replace,
        so racers over them may each publish a complete value; a
        complete entry is never overwritten.
        """
        path = self._path(key)
        tmp = self._write_tmp(path, value)
        try:
            try:
                os.link(tmp, path)
            except OSError:
                if self._is_complete(path):
                    return False
                os.replace(tmp, path)
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        get_registry().counter("cache.put").inc()
        return True

    def _is_complete(self, path: Path) -> bool:
        """Whether ``path`` holds an entry that passes its frame check."""
        try:
            _unframe_entry(path.read_bytes())
        except (OSError, CorruptEntryError):
            return False
        return True

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry, and the temp files that killed writers
        left behind; returns the number of entries removed.

        Do not clear a cache that a sweep is writing to: its in-flight
        temp files go too.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.glob("*/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        for orphan in self.root.glob("*/*.tmp"):
            try:
                orphan.unlink()
            except OSError:
                pass
        get_registry().counter("cache.evicted").inc(removed)
        return removed
