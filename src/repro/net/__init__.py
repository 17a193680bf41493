"""Network substrate: requests, links, servers, workloads, metrics."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "latency": (
        "LatencyModel",
        "deadline_limited_availability",
        "effective_win_probability",
    ),
    "link": ("Link",),
    "metrics": ("DelayStats", "FleetMetrics"),
    "packet": ("Packet", "Request", "TaskType"),
    "server": ("Server",),
    "trace": ("Trace",),
    "workload": ("BernoulliTaskMix", "PoissonArrivals", "SubtypedTaskMix"),
})
