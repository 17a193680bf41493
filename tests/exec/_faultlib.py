"""Shared work functions for the exec fault-injection/resume suites.

These live in an importable module (not inside a test) for two reasons:

1. The SIGKILL resume test runs a sweep in a *subprocess* and then
   resumes it in-process; both sides must import the same function so
   its :func:`repro.exec.cache.stable_fingerprint` — and therefore the
   cache keys and the journal ``run_key`` — agree.
2. :class:`FlakyWorker` needs cross-process call counting (sweep
   workers are separate processes), which it does with marker files in
   a scratch directory.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time


def deterministic_value(config, seed: int) -> float:
    """A pure, deterministic function of (config, seed)."""
    from repro.sim import RandomStreams

    rng = RandomStreams(seed).fresh(f"faultlib:{config.get('tag', '')}")
    return float(rng.random(4).sum())


def sleepy_point(config, seed: int) -> float:
    """Deterministic value, after sleeping ``config["sleep"]`` seconds.

    The sleep gives the SIGKILL test a window to land mid-sweep; the
    value itself never depends on timing.
    """
    time.sleep(float(config.get("sleep", 0.0)))
    return deterministic_value(config, seed)


class FlakyWorker:
    """A configurable misbehaving work function.

    For each point (keyed by seed), the first ``faults`` calls misbehave
    according to ``mode``; later calls succeed with the same
    deterministic value an unfaulted worker would return:

    - ``"fail"`` — raise ``ValueError``.
    - ``"hang"`` — sleep ``hang_seconds`` (pair with a per-point
      ``timeout`` well below it).
    - ``"exit"`` — ``os._exit(13)``: kills the worker process without
      cleanup, breaking the pool.
    - ``"ok"`` — never misbehaves.

    Calls are counted with marker files under ``scratch`` so the count
    survives worker-process death and crosses process boundaries.
    """

    def __init__(
        self,
        scratch: str,
        mode: str = "fail",
        faults: int = 1,
        hang_seconds: float = 60.0,
    ) -> None:
        self.scratch = str(scratch)
        self.mode = mode
        self.faults = int(faults)
        self.hang_seconds = float(hang_seconds)

    def calls(self, seed: int) -> int:
        """How many times the point with ``seed`` has been attempted."""
        prefix = f"call-{seed}-"
        try:
            return sum(
                1
                for name in os.listdir(self.scratch)
                if name.startswith(prefix)
            )
        except OSError:
            return 0

    def __call__(self, config, seed: int) -> float:
        os.makedirs(self.scratch, exist_ok=True)
        nth = self.calls(seed)
        fd, _ = tempfile.mkstemp(prefix=f"call-{seed}-", dir=self.scratch)
        os.close(fd)
        if nth < self.faults and self.mode != "ok":
            if self.mode == "fail":
                raise ValueError(f"injected fault {nth + 1} for seed {seed}")
            if self.mode == "hang":
                time.sleep(self.hang_seconds)
            elif self.mode == "exit":
                os._exit(13)
        return deterministic_value(config, seed)


def hammer_put_if_absent(spec):
    """Worker for the multi-process CAS hammer test.

    ``spec`` is ``(cache_root, keys, worker_id)``; every worker races
    :meth:`ResultCache.put_if_absent` on the same keys with its own
    values and reports which races it won.
    """
    root, keys, worker_id = spec
    from repro.exec import ResultCache

    cache = ResultCache(root)
    wins = {}
    for key in keys:
        wins[key] = cache.put_if_absent(key, f"writer-{worker_id}:{key}")
    return worker_id, wins


def main_subprocess() -> None:
    """Entry point for the SIGKILL test's sacrificial sweep process.

    Reads a JSON config from ``argv[1]``: ``points`` (count), ``sleep``
    (per-point seconds), ``seed``, ``jobs`` and ``source_digest``, the
    parent's :func:`repro.exec.cache.source_digest`, which this process
    uses in place of its own so both sides agree on the run key. Runs a
    journaled sweep of :func:`sleepy_point`, printing ``POINT <n>`` to
    stdout as each point completes so the parent test knows when to pull
    the trigger.
    """
    import repro.exec.cache
    from repro.exec import SweepRunner

    spec = json.loads(sys.argv[1])
    digest = spec["source_digest"]
    repro.exec.cache.source_digest = lambda: digest

    def progress(message: str) -> None:
        if "resumed" in message or "cached" in message or "point" in message:
            print(f"POINT {message}", flush=True)

    runner = SweepRunner(
        sleepy_point,
        jobs=spec.get("jobs", 1),
        cache=bool(spec.get("cache", False)),
        label="sigkill-demo",
        journal=True,
        progress=progress,
    )
    print("START", flush=True)
    report = runner.run(
        [
            ({"tag": "sigkill", "sleep": spec["sleep"]}, spec["seed"] + i)
            for i in range(spec["points"])
        ]
    )
    print(f"DONE {report.points_completed}", flush=True)


if __name__ == "__main__":
    main_subprocess()
