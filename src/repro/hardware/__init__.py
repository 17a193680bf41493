"""Hardware realism models: SPDC sources, fiber, QNICs, noise budgets."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "calibration": (
        "CHSHEstimate",
        "estimate_chsh",
        "estimate_werner_fidelity",
        "pairs_needed_to_certify",
        "s_value_to_win_probability",
        "win_probability_to_s_value",
    ),
    "budget": (
        "AdvantageBudget",
        "evaluate_budget",
        "required_fidelity_for_advantage",
    ),
    "distribution": (
        "FIBER_LIGHT_SPEED",
        "DistributedPair",
        "EntanglementDistributor",
        "FiberChannel",
    ),
    "qnic": (
        "QNIC",
        "apply_measurement_flips",
        "storage_depolarizing_probability",
    ),
    "scheduler": (
        "analytic_pair_availability",
        "effective_win_probability",
        "pair_availability_upper_bound",
        "simulate_pair_availability",
    ),
    "source": ("SPDCSource",),
})
