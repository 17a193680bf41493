"""Non-local game framework: CHSH, XOR, graph, and multiplayer games.

The paper's core mapping (§4.1) — task affinity problems onto non-local
games — lives here: game definitions, classical/quantum value
computations, optimal strategy construction, and a Monte-Carlo referee.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("TwoPlayerGame", "uniform_distribution"),
    "biased": (
        "biased_chsh_game",
        "biased_colocation_game",
        "biased_game_values",
        "matched_quantum_strategy",
    ),
    "correlations": (
        "alice_marginal",
        "behavior_win_probability",
        "bob_marginal",
        "classical_mixture_behavior",
        "is_no_signaling",
        "is_valid_behavior",
        "pr_box",
    ),
    "chsh": (
        "CHSH_CLASSICAL_VALUE",
        "CHSH_QUANTUM_VALUE",
        "chsh_colocation_game",
        "chsh_game",
        "chsh_win_probability_for_state",
        "colocation_quantum_strategy",
        "optimal_classical_strategy",
        "optimal_quantum_strategy",
    ),
    "batch": (
        "CascadeReport",
        "GameBatch",
        "alternating_lower_bound_batch",
        "classical_bias_batch",
        "sample_game_batch",
        "screen_advantage_batch",
        "screen_game_batch",
    ),
    "bounds": (
        "BOUND_METHODS",
        "GAME_FAMILIES",
        "NONLOCAL_STAGES",
        "NonlocalScreenReport",
        "QuantumValueBounds",
        "quantum_value_bounds",
        "sample_game_family",
        "screen_nonlocal_games",
    ),
    "graph_games": (
        "AffinityGraph",
        "advantage_decisions",
        "advantage_probability",
        "random_affinity_graph",
        "xor_game_from_graph",
    ),
    "multiplayer": (
        "MultiplayerQuantumStrategy",
        "mermin_classical_value",
        "mermin_game",
        "mermin_optimal_strategy",
    ),
    "nonlocal_games": (
        "FFL_CLASSICAL_VALUE",
        "MAGIC_SQUARE_CLASSICAL_VALUE",
        "MultipartyNonlocalGame",
        "NonlocalGame",
        "chsh_nonlocal_game",
        "ffl_game",
        "magic_square_game",
        "magic_square_optimal_strategy",
        "multi_class_colocation_game",
        "multiplayer_behavior",
        "tilted_chsh_classical_value",
        "tilted_chsh_game",
        "tilted_chsh_quantum_value",
    ),
    "npa": (
        "NPA_LEVELS",
        "NPARelaxation",
        "build_npa_relaxation",
        "npa_upper_bound",
        "npa_upper_bounds",
    ),
    "seesaw": (
        "SeesawResult",
        "random_projective_povms",
        "seesaw_lower_bound",
    ),
    "products": ("xor_power", "xor_product"),
    "quantum_value": (
        "XORValue",
        "alternating_bias_lower_bound",
        "anticommuting_observables",
        "has_quantum_advantage",
        "tsirelson_strategy",
        "xor_quantum_bias",
        "xor_quantum_value",
    ),
    "referee": ("GameRecord", "play_rounds"),
    "weighted": (
        "advantage_boundary_cc_weight",
        "weighted_colocation_game",
        "weighted_values",
    ),
    "strategies": (
        "BinaryObservable",
        "DeterministicStrategy",
        "QuantumStrategy",
        "SharedRandomnessStrategy",
        "Strategy",
        "exact_win_probability",
    ),
    "xor": ("XORGame", "classical_strategy_batch"),
})
