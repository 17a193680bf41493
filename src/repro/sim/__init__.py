"""Discrete-event simulation engine (simpy-like, built from scratch).

See DESIGN.md §2: the offline environment has no simpy, so this package
provides the generator-based engine the network substrate runs on.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core": ("Environment", "Event", "Interrupt", "Process", "Timeout"),
    "events": ("AllOf", "AnyOf"),
    "monitor": ("Counter", "SeriesRecorder", "TimeWeightedValue"),
    "resources": ("Resource", "Store"),
    "rng": ("RandomStreams",),
})
