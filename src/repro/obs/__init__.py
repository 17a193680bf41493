"""Observability: metrics registry, tracing spans, and run manifests.

The layer every engine reports through (``docs/observability.md``):

- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  of counters/gauges/timers, mergeable across worker processes.
- :mod:`repro.obs.spans` — hierarchical wall/CPU tracing spans.
- :mod:`repro.obs.manifest` — :class:`RunManifest` provenance records
  attached to simulation results, sweep reports, and CLI telemetry.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "manifest": (
        "RunManifest",
        "VOLATILE_FIELDS",
        "environment_info",
        "git_revision",
        "mask_volatile",
    ),
    "metrics": (
        "Counter",
        "Gauge",
        "MetricsRegistry",
        "Timer",
        "capture",
        "disabled",
        "get_registry",
        "time_block",
        "timed",
        "use_registry",
    ),
    "spans": (
        "Span",
        "clear_spans",
        "current_span",
        "finished_spans",
        "format_span_tree",
        "span",
    ),
})
