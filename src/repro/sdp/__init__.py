"""Dense ADMM SDP solvers and Gram-vector utilities.

Standing in for Toqito's SDP backends (DESIGN.md §2): computes the
Tsirelson quantum value of XOR games, serially or as a stack, and NPA
upper bounds.
"""

from repro.sdp.admm import solve_diagonal_sdp, solve_partition_sdp
from repro.sdp.batch import (
    dual_upper_bound_batch,
    repair_feasible_batch,
    solve_diagonal_sdp_batch,
)
from repro.sdp.gram import gram_rank, gram_vectors
from repro.sdp.projections import (
    project_psd,
    project_psd_batch,
    symmetrize,
    symmetrize_batch,
)
from repro.sdp.result import SDPResult

__all__ = [
    "solve_diagonal_sdp",
    "solve_diagonal_sdp_batch",
    "solve_partition_sdp",
    "dual_upper_bound_batch",
    "repair_feasible_batch",
    "gram_rank",
    "gram_vectors",
    "project_psd",
    "project_psd_batch",
    "symmetrize",
    "symmetrize_batch",
    "SDPResult",
]
