"""Single-matrix reference forms that the stacked solvers are checked against.

:func:`solve_partition_serial` is the partition ADMM loop one matrix at
a time, as it ran before the stacked solver replaced it. It does the
same arithmetic in the same order, so the stacked solver must match it
bit for bit. It skips input validation and counters.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.sdp import SDPResult, symmetrize
from repro.sdp.batch import LINE_CHECK_PERIOD, _cost_scales


def project_psd(matrix: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone (Frobenius-nearest)."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SolverError(f"cannot PSD-project shape {matrix.shape}")
    sym = symmetrize(matrix)
    eigs, vecs = np.linalg.eigh(sym)
    clipped = eigs.clip(min=0.0)
    return (vecs * clipped) @ vecs.T


def solve_partition_serial(
    cost: np.ndarray,
    classes,
    zero_entries=(),
    *,
    corner_value: float = 1.0,
    diagonal_cap: float = 1.0,
    tolerance: float = 1e-8,
    max_iterations: int = 20_000,
    stop_below: float | None = None,
) -> SDPResult:
    """The partition SDP of one ``(n, n)`` cost, solved on its own."""
    c = symmetrize(np.asarray(cost, dtype=float))
    n = c.shape[0]
    rows, cols, ids, weights = [], [], [], []
    for cid, group in enumerate(classes):
        for i, j in group:
            i, j = min(i, j), max(i, j)
            rows.append(i)
            cols.append(j)
            ids.append(cid)
            weights.append(1.0 if i == j else 2.0)
    rows, cols, ids = (np.asarray(a, dtype=np.intp) for a in (rows, cols, ids))
    weights = np.asarray(weights, dtype=float)
    num_classes = len(classes)
    weight_sums = np.bincount(ids, weights=weights, minlength=num_classes)
    zr = np.asarray([min(i, j) for i, j in zero_entries], dtype=np.intp)
    zc = np.asarray([max(i, j) for i, j in zero_entries], dtype=np.intp)

    def class_means(mat):
        sums = np.bincount(
            ids, weights=weights * mat[rows, cols], minlength=num_classes
        )
        return sums / weight_sums

    def project_affine(mat):
        out = symmetrize(mat)
        if num_classes:
            means = class_means(out)
            out[rows, cols] = means[ids]
            out[cols, rows] = means[ids]
        out[zr, zc] = 0.0
        out[zc, zr] = 0.0
        out[0, 0] = corner_value
        return out

    constrained = np.zeros((n, n), dtype=bool)
    for r, k in ((rows, cols), (cols, rows), (zr, zc), (zc, zr), (0, 0)):
        constrained[r, k] = True
    scale = _cost_scales(c[None])[0]

    def dual_bound(u):
        slack = -scale * symmetrize(u)
        m = c + slack
        residual = np.zeros_like(m)
        if rows.size:
            means = class_means(m)
            residual[rows, cols] = means[ids]
            residual[cols, rows] = means[ids]
        residual[~constrained] = m[~constrained]
        min_eig = float(np.linalg.eigvalsh(symmetrize(slack - residual)).min())
        return float(corner_value * m[0, 0] + max(0.0, -min_eig) * n * diagonal_cap)

    c_hat = c / scale
    z = np.eye(n) * min(corner_value, diagonal_cap)
    u = np.zeros((n, n))
    primal = dual = float("inf")
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        x = project_affine(z - u + c_hat)
        z_prev = z
        z = project_psd(x + u)
        u = u + x - z
        primal = float(np.linalg.norm(x - z))
        dual = float(np.linalg.norm(z - z_prev))
        if primal < tolerance and dual < tolerance:
            break
        if (
            stop_below is not None
            and iteration % LINE_CHECK_PERIOD == 0
            and dual_bound(u) <= stop_below
        ):
            break
    return SDPResult(
        matrix=z,
        objective=float(np.sum(c * z)),
        upper_bound=dual_bound(u),
        iterations=iteration,
        primal_residual=primal,
        dual_residual=dual,
        converged=primal < tolerance and dual < tolerance,
    )
