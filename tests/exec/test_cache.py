"""Tests for the content-addressed result cache and its fingerprints."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import ResultCache, cache_key, stable_fingerprint
from repro.lb import CHSHPairedAssignment, RandomAssignment

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs one cached ``sweep_load`` point with whichever ``repro`` package
#: comes first on ``sys.path`` and prints its cache keys and run key.
_SWEEP_KEYS = """
import json, pathlib, sys

import repro
from repro.exec import SweepRunner
from repro.lb import RandomAssignment, sweep_load

run_keys = []
run = SweepRunner.run


def spy(self, points, **kwargs):
    points = list(points)
    run_keys.append(self.run_key(points))
    return run(self, points, **kwargs)


SweepRunner.run = spy
cache = pathlib.Path(sys.argv[1])
sweep_load(
    RandomAssignment, num_balancers=6, loads=(1.0,), timesteps=20, seed=5,
    cache=True, cache_dir=cache,
)
print(json.dumps({
    "package": repro.__file__,
    "cache_keys": sorted(p.stem for p in cache.glob("*/*.pkl")),
    "run_keys": run_keys,
}))
"""


def _sweep_keys(src_root: Path, cache_dir: Path) -> dict:
    env = dict(
        os.environ, PYTHONPATH=str(src_root), PYTHONDONTWRITEBYTECODE="1"
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_KEYS, str(cache_dir)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cache_dir.parent,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    keys = json.loads(proc.stdout.strip().splitlines()[-1])
    assert Path(keys["package"]).is_relative_to(src_root)
    return keys


def _module_fn(config, seed):
    return seed


def _other_fn(config, seed):
    return seed + 1


class TestStableFingerprint:
    def test_deterministic(self):
        config = {"a": 1, "b": [1.5, "x"], "c": {"d": None}}
        assert stable_fingerprint(config) == stable_fingerprint(dict(config))

    def test_dict_order_irrelevant(self):
        assert stable_fingerprint({"a": 1, "b": 2}) == stable_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_value_changes_fingerprint(self):
        base = {"timesteps": 800, "p": 0.5}
        assert stable_fingerprint(base) != stable_fingerprint(
            {"timesteps": 801, "p": 0.5}
        )

    def test_bool_int_float_distinct(self):
        assert stable_fingerprint(True) != stable_fingerprint(1)
        assert stable_fingerprint(1) != stable_fingerprint(1.0)

    def test_numpy_scalars_match_python(self):
        assert stable_fingerprint(np.int64(7)) == stable_fingerprint(7)
        assert stable_fingerprint(np.float64(0.5)) == stable_fingerprint(0.5)

    def test_classes_fingerprint_by_identity_and_source(self):
        assert stable_fingerprint(RandomAssignment) != stable_fingerprint(
            CHSHPairedAssignment
        )
        assert stable_fingerprint(RandomAssignment) == stable_fingerprint(
            RandomAssignment
        )

    def test_functions_differ(self):
        assert stable_fingerprint(_module_fn) != stable_fingerprint(_other_fn)

    def test_closure_cells_included(self):
        def make(offset):
            return lambda s: s + offset

        assert stable_fingerprint(make(1)) != stable_fingerprint(make(2))
        assert stable_fingerprint(make(3)) == stable_fingerprint(make(3))

    def test_unstable_object_rejected(self):
        with pytest.raises(ConfigurationError):
            stable_fingerprint(object())

    def test_subclasses_match_their_plain_types(self):
        """Exact-type dispatch must not split a subclass from its base:
        the isinstance fallback encodes it as the plain value."""
        import enum
        from collections import OrderedDict, namedtuple

        class Level(enum.IntEnum):
            HIGH = 7

        class Name(str):
            pass

        Pair = namedtuple("Pair", "left right")
        assert stable_fingerprint(Level.HIGH) == stable_fingerprint(7)
        assert stable_fingerprint(Name("x")) == stable_fingerprint("x")
        assert stable_fingerprint(np.str_("x")) == stable_fingerprint("x")
        assert stable_fingerprint(Pair(1, "a")) == stable_fingerprint((1, "a"))
        assert stable_fingerprint(OrderedDict(b=2, a=1)) == stable_fingerprint(
            {"a": 1, "b": 2}
        )

    def test_cycles_encode_without_recursing(self):
        loop = [1]
        loop.append(loop)
        assert stable_fingerprint(loop) == "seq[int:1,cycle]"
        shared = [2]
        # A shared child that is not its own ancestor is encoded in full.
        assert stable_fingerprint([shared, shared]) == stable_fingerprint(
            [[2], [2]]
        )


class TestKeyEncoding:
    """Strings enter the key material as ``str:<len>:<text>``. Without
    the length, each pair below would encode to the same text: a string
    that spells a delimiter and the nodes around it would shift a
    boundary."""

    @pytest.mark.parametrize(
        "left, right",
        [
            (["a", "b"], ["a,str:b"]),
            ({"a": "b=str:c"}, {"a=str:b": "c"}),
            ([{"a": "b"}, {"c": "d"}], [{"a": "b},map{str:c=str:d"}]),
            (["a", 1], ["a,int:1"]),
            ({"a": "b", "c": "d"}, {"a": "b,str:c=str:d"}),
        ],
        ids=["comma", "equals", "brace", "colon", "value-spells-a-field"],
    )
    def test_delimiters_in_strings_stay_distinct(self, left, right):
        assert stable_fingerprint(left) != stable_fingerprint(right)

    def test_pipe_cannot_move_the_config_boundary(self):
        """``|`` separates the parts of a key's material; a config
        string cannot claim part of the code token's place."""
        assert cache_key("a|seed:0|str:b", 0, code_token="t") != cache_key(
            "b", 0, code_token="t|str:a|seed:0"
        )

    def test_int_and_str_keys_differ(self):
        assert stable_fingerprint({1: "x"}) != stable_fingerprint({"1": "x"})


class TestCacheKey:
    def test_seed_and_config_and_code_matter(self):
        base = cache_key({"a": 1}, 0, code_token="t")
        assert cache_key({"a": 1}, 1, code_token="t") != base
        assert cache_key({"a": 2}, 0, code_token="t") != base
        assert cache_key({"a": 1}, 0, code_token="u") != base
        assert cache_key({"a": 1}, 0, code_token="t") == base


class TestSourceDigest:
    def test_keys_follow_the_package_source(self, tmp_path):
        """Editing a module that the work function reaches only through
        imports (the Fig 4 engine, under ``sweep_load``) changes the
        point's cache keys and its run key; a byte-identical copy of the
        package elsewhere keeps them."""
        copy = tmp_path / "copy"
        shutil.copytree(
            REPO_SRC / "repro",
            copy / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        original = _sweep_keys(REPO_SRC, tmp_path / "original")
        unedited = _sweep_keys(copy, tmp_path / "unedited")
        with open(copy / "repro" / "lb" / "engine.py", "a") as fh:
            fh.write("\n# edited\n")
        edited = _sweep_keys(copy, tmp_path / "edited")
        assert len(original["cache_keys"]) == 1
        assert len(original["run_keys"]) == 1
        assert unedited["cache_keys"] == original["cache_keys"]
        assert unedited["run_keys"] == original["run_keys"]
        assert edited["cache_keys"] != original["cache_keys"]
        assert edited["run_keys"] != original["run_keys"]


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 1}, 5)
        assert cache.get(key) == (False, None)
        cache.put(key, {"value": 42})
        hit, value = cache.get(key)
        assert hit and value == {"value": 42}
        assert len(cache) == 1

    def test_entry_larger_than_the_first_read_roundtrips(self, tmp_path):
        from repro.exec.cache import _FIRST_READ

        cache = ResultCache(tmp_path)
        key = cache_key({"x": "large"}, 5)
        value = bytes(range(256)) * (_FIRST_READ // 128)
        cache.put(key, value)
        assert Path(cache._path(key)).stat().st_size > _FIRST_READ
        assert cache.get(key) == (True, value)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 1}, 5)
        cache.put(key, "fine")
        path = Path(cache._path(key))
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            cache.put(cache_key({}, seed), seed)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_clear_removes_orphaned_temp_files(self, tmp_path):
        """A writer killed between writing its temp file and publishing
        it leaves ``*.tmp`` in the key's subdir; clear() removes those
        too, and counts only entries."""
        cache = ResultCache(tmp_path)
        key = cache_key({"orphan": 1}, 0)
        cache.put(key, "entry")
        orphan = Path(cache._path(key)).parent / "abc123.tmp"
        orphan.write_bytes(b"half a frame")
        assert cache.clear() == 1
        assert list(tmp_path.glob("*/*")) == []

    def test_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ResultCache()
        assert cache.root == tmp_path / "envcache"

    def test_stale_module_entry_is_a_clean_miss(self, tmp_path, monkeypatch):
        # Regression: a cached pickle referencing a class whose module
        # was since renamed/deleted raises ModuleNotFoundError from the
        # unpickler; get() used to propagate it instead of missing.
        import sys

        from repro.obs import MetricsRegistry, use_registry

        moddir = tmp_path / "mods"
        moddir.mkdir()
        (moddir / "ghost_module.py").write_text(
            "class Ghost:\n    pass\n", encoding="utf-8"
        )
        monkeypatch.syspath_prepend(str(moddir))
        import ghost_module

        cache = ResultCache(tmp_path / "cache")
        key = cache_key({"x": 1}, 0)
        cache.put(key, ghost_module.Ghost())
        (moddir / "ghost_module.py").unlink()
        monkeypatch.delitem(sys.modules, "ghost_module")

        with use_registry(MetricsRegistry()) as registry:
            assert cache.get(key) == (False, None)
        assert registry.counter("cache.stale").value == 1
        assert registry.counter("cache.miss").value == 1
        assert registry.counter("cache.hit").value == 0

    def test_torn_frame_is_a_stale_miss(self, tmp_path):
        # Truncating a pickle mid-frame exercises the torn-bytes arm of
        # the same except clause (UnpicklingError/EOFError/ValueError
        # depending on where the cut lands).
        from repro.obs import MetricsRegistry, use_registry

        cache = ResultCache(tmp_path)
        key = cache_key({"x": 2}, 0)
        cache.put(key, {"payload": list(range(100))})
        path = Path(cache._path(key))
        path.write_bytes(path.read_bytes()[:20])
        with use_registry(MetricsRegistry()) as registry:
            assert cache.get(key) == (False, None)
        assert registry.counter("cache.stale").value == 1

    def test_absent_entry_is_miss_without_stale(self, tmp_path):
        from repro.obs import MetricsRegistry, use_registry

        cache = ResultCache(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            assert cache.get(cache_key({"x": 3}, 0)) == (False, None)
        assert registry.counter("cache.stale").value == 0
        assert registry.counter("cache.miss").value == 1


class TestCrashSafety:
    """Frame-level corruption: every flavor of on-disk damage must read
    as a clean miss under ``cache.corrupt`` — never an exception, never
    a partial value."""

    def _put_one(self, tmp_path, value="fine"):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 9}, 0)
        cache.put(key, value)
        return cache, key, Path(cache._path(key))

    def _assert_corrupt_miss(self, cache, key):
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as registry:
            assert cache.get(key) == (False, None)
        assert registry.counter("cache.corrupt").value == 1
        assert registry.counter("cache.miss").value == 1
        assert registry.counter("cache.hit").value == 0

    def test_zero_length_entry(self, tmp_path):
        cache, key, path = self._put_one(tmp_path)
        path.write_bytes(b"")
        self._assert_corrupt_miss(cache, key)

    def test_truncated_entry(self, tmp_path):
        cache, key, path = self._put_one(tmp_path, list(range(50)))
        path.write_bytes(path.read_bytes()[:-7])
        self._assert_corrupt_miss(cache, key)

    def test_bitflipped_payload(self, tmp_path):
        cache, key, path = self._put_one(tmp_path, list(range(50)))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        self._assert_corrupt_miss(cache, key)

    def test_bad_magic(self, tmp_path):
        cache, key, path = self._put_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        self._assert_corrupt_miss(cache, key)

    def test_reader_never_observes_partial_write(self, tmp_path):
        """The paused-writer scenario behind the non-atomic-put bug: a
        reader must see either nothing or a complete value, at EVERY
        byte a lagging writer could have stopped at."""
        cache, key, path = self._put_one(tmp_path, {"payload": "x" * 64})
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            hit, value = cache.get(key)
            assert not hit and value is None
        path.write_bytes(raw)
        assert cache.get(key) == (True, {"payload": "x" * 64})

    def test_put_is_atomic_under_concurrent_reads(self, tmp_path):
        """Overwrite one key from a writer thread while reading it hot:
        every hit is one of the complete values, nothing in between."""
        import threading

        cache = ResultCache(tmp_path)
        key = cache_key({"x": 10}, 0)
        values = [{"generation": g, "blob": "y" * 256} for g in range(40)]
        cache.put(key, values[0])

        def writer():
            for value in values[1:]:
                cache.put(key, value)

        thread = threading.Thread(target=writer)
        thread.start()
        observed = []
        while thread.is_alive():
            hit, value = cache.get(key)
            assert hit, "a complete entry must never vanish mid-overwrite"
            observed.append(value["generation"])
        thread.join()
        assert all(0 <= g < len(values) for g in observed)
        assert observed == sorted(observed)  # generations only move forward


class TestPutIfAbsent:
    def test_first_writer_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"cas": 1}, 0)
        assert cache.put_if_absent(key, "first") is True
        assert cache.put_if_absent(key, "second") is False
        assert cache.get(key) == (True, "first")

    def test_does_not_clobber_plain_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"cas": 2}, 0)
        cache.put(key, "already-here")
        assert cache.put_if_absent(key, "usurper") is False
        assert cache.get(key) == (True, "already-here")

    @pytest.mark.parametrize("damage", ["zeroed", "truncated", "empty"])
    def test_torn_entry_is_republished(self, tmp_path, damage):
        """Entries are written without fsync, so a power cut can leave a
        published entry torn. put_if_absent over it wins and replaces
        it; over the complete entry it then loses."""
        from repro.obs import MetricsRegistry, use_registry

        cache = ResultCache(tmp_path)
        key = cache_key({"cas": 3}, 0)
        cache.put(key, list(range(50)))
        path = Path(cache._path(key))
        raw = path.read_bytes()
        path.write_bytes(
            {
                "zeroed": bytes(len(raw)),
                "truncated": raw[: len(raw) // 2],
                "empty": b"",
            }[damage]
        )
        with use_registry(MetricsRegistry()) as registry:
            assert cache.put_if_absent(key, "repaired") is True
            assert cache.put_if_absent(key, "usurper") is False
        assert registry.counter("cache.put").value == 1
        assert cache.get(key) == (True, "repaired")
        assert list(path.parent.glob("*.tmp")) == []

    def test_without_hard_links_the_winner_stays(self, tmp_path, monkeypatch):
        """Regression: on a file system without hard links the fallback
        replaced the entry unconditionally, so a loser got ``False``
        back while its value overwrote the winner's (and counted a
        ``cache.put``)."""
        from repro.obs import MetricsRegistry, use_registry

        def no_links(src, dst):
            raise PermissionError(1, "hard links not supported", str(dst))

        monkeypatch.setattr(os, "link", no_links)
        cache = ResultCache(tmp_path)
        key = cache_key({"cas": 4}, 0)
        with use_registry(MetricsRegistry()) as registry:
            assert cache.put_if_absent(key, "first") is True
            assert cache.put_if_absent(key, "second") is False
        assert cache.get(key) == (True, "first")
        assert registry.counter("cache.put").value == 1
        assert list(Path(cache._path(key)).parent.glob("*.tmp")) == []

    def test_multiprocess_hammer_single_winner(self, tmp_path):
        """Four processes race put_if_absent on the same keys: exactly
        one winner per key, and the stored value is the winner's."""
        from concurrent.futures import ProcessPoolExecutor

        from tests.exec._faultlib import hammer_put_if_absent

        keys = [cache_key({"hammer": i}, 0) for i in range(24)]
        specs = [(str(tmp_path), keys, worker) for worker in range(4)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = dict(pool.map(hammer_put_if_absent, specs))
        cache = ResultCache(tmp_path)
        for key in keys:
            winners = [w for w, wins in results.items() if wins[key]]
            assert len(winners) == 1, f"{len(winners)} winners for {key}"
            hit, value = cache.get(key)
            assert hit
            assert value == f"writer-{winners[0]}:{key}"
