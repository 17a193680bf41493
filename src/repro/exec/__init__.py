"""Fault-tolerant parallel seeded-experiment execution.

The paper's headline figures are Monte-Carlo sweeps over (config, seed)
points; this subsystem executes those points over a process pool with a
content-addressed on-disk cache, while guaranteeing bit-identical
results between parallel and serial runs of the same points. Sweeps are
resumable (per-point CRC-framed checkpoint journal), and a worker fault
plane (per-point timeout, deterministic bounded retries,
``BrokenProcessPool`` recovery) lets long runs degrade gracefully
instead of aborting.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": (
        "CACHE_VERSION",
        "DEFAULT_CACHE_DIR",
        "ResultCache",
        "cache_key",
        "stable_fingerprint",
    ),
    "journal": ("SweepJournal", "default_journal_dir", "list_journals"),
    "runner": (
        "PointFailure",
        "PointResult",
        "PointTimeoutError",
        "RunReport",
        "SweepRunner",
        "resolve_jobs",
    ),
})
