"""Statistics, series containers, and table formatting for experiments."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "series": ("FigureData", "Series"),
    "stats": (
        "OnlineStats",
        "bootstrap_mean_ci",
        "jain_fairness",
        "mean_confidence_interval",
    ),
    "sweep": (
        "SeededResult",
        "compare_seeded",
        "compare_seeded_detailed",
        "run_seeded",
        "run_seeded_detailed",
    ),
    "tables": ("format_figure", "format_table"),
})
