"""Dense ADMM SDP solvers and Gram-vector utilities.

Standing in for Toqito's SDP backends (DESIGN.md §2): one ADMM core per
problem form. ``solve_diagonal_sdp_batch`` computes the Tsirelson
quantum value of a stack of XOR games (one game is a stack of one), and
``solve_partition_sdp`` the NPA upper bounds.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "admm": ("solve_partition_sdp",),
    "batch": (
        "dual_upper_bound_batch",
        "repair_feasible_batch",
        "solve_diagonal_sdp_batch",
    ),
    "gram": ("gram_vectors",),
    "projections": (
        "project_psd_batch",
        "symmetrize",
        "symmetrize_batch",
    ),
    "result": ("SDPResult",),
})
