"""Run manifests: what ran, where, with which seeds and knobs.

A :class:`RunManifest` is the provenance record attached to every
:class:`~repro.lb.simulation.SimulationResult` and
:class:`~repro.exec.runner.RunReport`, and emitted by the CLI under
``--telemetry``. It pins the environment (git SHA, package and numpy
versions, platform), the experiment inputs (seeds, engine choice,
config, fault-plane settings), and the run's accounting (cache
hits/misses, degradation summary, merged metrics snapshot).

Manifests never participate in result equality — they ride along as
``field(compare=False)`` — so bit-identical parallel/serial and
cross-engine guarantees are unaffected by volatile provenance.

For golden-file regression tests, :func:`mask_volatile` replaces every
host- or timing-dependent value (timestamps, SHAs, hostnames, timer
durations, span times, gauge readings) with a fixed marker while
keeping the deterministic skeleton: counters, seeds, configs, and
structure.
"""

from __future__ import annotations

import datetime
import functools
import json
import os
import platform as _platform
import socket
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from repro._version import __version__

__all__ = [
    "RunManifest",
    "VOLATILE_FIELDS",
    "environment_info",
    "git_revision",
    "mask_volatile",
]

#: Manifest fields masked by :func:`mask_volatile`: anything that varies
#: across hosts, checkouts, or runs of the same experiment.
VOLATILE_FIELDS = frozenset(
    {
        "created_at",
        "git_sha",
        "hostname",
        "platform",
        "python_version",
        "numpy_version",
        "package_version",
        "wall_seconds",
    }
)

DEFAULT_MASK = "<masked>"


@functools.lru_cache(maxsize=1)
def git_revision() -> str:
    """The checkout's commit SHA, ``REPRO_GIT_SHA``, or ``"unknown"``.

    Resolution is attempted once per process: the environment variable
    wins (CI images often strip ``.git``), then ``git rev-parse`` run
    from this file's directory, then ``"unknown"`` for installed wheels.
    """
    env = os.environ.get("REPRO_GIT_SHA", "").strip()
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@functools.lru_cache(maxsize=1)
def environment_info() -> dict:
    """Host/toolchain facts shared by every manifest of this process."""
    return {
        "git_sha": git_revision(),
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "platform": _platform.platform(),
        "hostname": socket.gethostname(),
    }


@dataclass(frozen=True)
class RunManifest:
    """Provenance and accounting for one run.

    Attributes:
        kind: what produced this manifest — ``"simulation"`` (one
            :func:`run_timestep_simulation` call), ``"sweep"`` (one
            :meth:`SweepRunner.run`), or ``"cli"`` (one CLI command).
        created_at: UTC ISO-8601 creation time.
        git_sha / package_version / python_version / numpy_version /
            platform / hostname: environment pins.
        seeds: every root seed the run consumed, in submission order.
        engine: resolved simulation engine (``"vectorized"`` /
            ``"reference"``), if one ran.
        config: the run's knobs (timesteps, loads, jobs, …) as plain
            JSON-serializable data.
        cache_hits / cache_misses: result-cache accounting for the run.
        fault_config: fault-plane settings when a degraded policy ran.
        degradation: degradation summary (realized rates and win
            probabilities), when available.
        metrics: merged :meth:`MetricsRegistry.snapshot` for the run.
        wall_seconds: end-to-end wall time of the run.
    """

    kind: str
    created_at: str
    git_sha: str
    package_version: str
    python_version: str
    numpy_version: str
    platform: str
    hostname: str
    seeds: tuple[int, ...] = ()
    engine: str | None = None
    config: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    fault_config: dict | None = None
    degradation: dict | None = None
    metrics: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    @classmethod
    def collect(cls, kind: str, **kwargs) -> "RunManifest":
        """Build a manifest, filling environment fields automatically."""
        return cls(
            kind=kind,
            created_at=datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="microseconds"),
            **environment_info(),
            **kwargs,
        )

    def to_dict(self) -> dict:
        """JSON-serializable view (tuples become lists)."""
        return {
            "kind": self.kind,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
            "package_version": self.package_version,
            "python_version": self.python_version,
            "numpy_version": self.numpy_version,
            "platform": self.platform,
            "hostname": self.hostname,
            "seeds": [int(s) for s in self.seeds],
            "engine": self.engine,
            "config": dict(self.config),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "fault_config": None
            if self.fault_config is None
            else dict(self.fault_config),
            "degradation": None
            if self.degradation is None
            else dict(self.degradation),
            "metrics": self.metrics,
            "wall_seconds": self.wall_seconds,
        }

    def to_json(self, *, indent: int = 2) -> str:
        """Pretty JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def masked(self, mask: str = DEFAULT_MASK) -> dict:
        """:meth:`to_dict` with volatile values masked (golden diffs)."""
        return mask_volatile(self.to_dict(), mask)


def _mask_metrics(metrics: dict, mask: str) -> dict:
    """Keep counters and timer counts; mask every duration and gauge."""
    masked: dict = {"counters": dict(metrics.get("counters", {}))}
    masked["gauges"] = {name: mask for name in metrics.get("gauges", {})}
    masked["timers"] = {
        name: {"count": stats["count"], "total": mask, "min": mask, "max": mask}
        for name, stats in metrics.get("timers", {}).items()
    }
    return masked


def _mask_span(entry: dict, mask: str) -> dict:
    return {
        "name": entry["name"],
        "attributes": dict(entry.get("attributes", {})),
        "wall_seconds": mask,
        "cpu_seconds": mask,
        "children": [_mask_span(c, mask) for c in entry.get("children", [])],
    }


def mask_volatile(payload: dict, mask: str = DEFAULT_MASK) -> dict:
    """Mask host- and timing-dependent values in telemetry data.

    Accepts either a bare manifest dict (:meth:`RunManifest.to_dict`)
    or a full CLI telemetry payload ``{"manifest": ..., "spans": ...}``.
    Counters, seeds, configs, and tree structure are preserved —
    exactly the deterministic parts a golden test should pin.
    """
    if "manifest" in payload or "spans" in payload:
        result = dict(payload)
        if isinstance(payload.get("manifest"), dict):
            result["manifest"] = mask_volatile(payload["manifest"], mask)
        if isinstance(payload.get("spans"), list):
            result["spans"] = [
                _mask_span(entry, mask) for entry in payload["spans"]
            ]
        return result
    result = {}
    for key, value in payload.items():
        if key in VOLATILE_FIELDS:
            result[key] = mask
        elif key == "metrics" and isinstance(value, dict):
            result[key] = _mask_metrics(value, mask)
        else:
            result[key] = value
    return result
