"""ECMP routing study: collision games and the §4.2 negative results."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "collision": ("collision_game", "independent_random_value"),
    "fabric": ("FabricResult", "run_fabric_experiment"),
    "reduction": (
        "ab_statistics_invariant_under_c",
        "all_pair_statistics_invariant",
        "decompose_after_c_measurement",
        "ghz_pairwise_marginal_is_separable",
        "joint_ab_distribution",
    ),
    "switch": ("CollisionStats", "EcmpSwitch", "measure_collisions"),
})
