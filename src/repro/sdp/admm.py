"""The partition SDP solver, the ADMM core for NPA moment matrices.

:func:`solve_partition_sdp` solves a moment-matrix SDP whose entries are
identified in classes or pinned to zero: the NPA relaxations of
:mod:`repro.games.npa` (the ECMP conjecture, §4.2, and the general-game
cascade). The other problem form, ``max <C, X> s.t. diag(X) = d, X PSD``
(the Tsirelson SDP behind Fig 3), has its own core,
:func:`repro.sdp.batch.solve_diagonal_sdp_batch`, which a single game
calls with a stack of one.

The method alternates between an affine projection (X-step, absorbing the
linear objective), a PSD cone projection (Z-step, one eigendecomposition),
and a scaled dual update. Both cores step on the cost divided by its
Frobenius norm, which is the penalty ``rho = ||C||_F`` (Boyd et al.,
*Distributed Optimization and Statistical Learning via ADMM*, 2011,
§3.4.1). The iterates then depend only on ``C / ||C||_F``: scaling a cost
leaves the iteration count unchanged, and the small XOR cost blocks
(``||C||_F`` ~ 0.1 at n = 8) no longer take steps ten times too short.
The stop test reads both residuals in units of ``X``. For the matrix
sizes in this repo (n <= ~40) each iteration costs microseconds.

The returned :class:`~repro.sdp.result.SDPResult` carries the last PSD
iterate with its objective, and a repaired dual certificate that is a
true upper bound at every iterate, so callers can make rigorous
no-advantage calls.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SolverError
from repro.obs import metrics as _metrics
from repro.sdp.batch import LINE_CHECK_PERIOD, _cost_scales, _require_finite
from repro.sdp.projections import project_psd, symmetrize
from repro.sdp.result import SDPResult

__all__ = ["solve_partition_sdp"]


def solve_partition_sdp(
    cost: np.ndarray,
    classes: Sequence[Sequence[tuple[int, int]]],
    zero_entries: Sequence[tuple[int, int]] = (),
    *,
    corner_value: float = 1.0,
    diagonal_cap: float = 1.0,
    tolerance: float = 1e-8,
    max_iterations: int = 20_000,
    stop_below: float | None = None,
) -> SDPResult:
    """Solve a moment-matrix SDP with entry-identification constraints.

    ``max <C, X>  s.t.  X PSD,  X[0, 0] = corner_value,
    X[e] = 0 for e in zero_entries, and all entries within each class
    equal`` — the constraint structure of an NPA moment matrix, where
    distinct index pairs carry the same canonical monomial. The affine
    step is an exact O(nnz) scatter/gather (weighted class means), so
    thousands of identifications stay cheap.

    The returned ``upper_bound`` is rigorous for any matrix that is
    feasible *and* has every diagonal entry at most ``diagonal_cap``
    (true for moment matrices of products of projectors): the ADMM
    dual iterate is projected onto the exact span of the constraint
    matrices and the projection residual plus any negative eigenvalue
    of the dual slack is charged against the trace cap
    ``n * diagonal_cap``. The bound therefore holds even before
    convergence — early stopping only loosens it.

    A caller that needs only to know whether the optimum lies at or
    below some value passes it as ``stop_below``. Every
    :data:`~repro.sdp.batch.LINE_CHECK_PERIOD` iterations the solve then
    evaluates the bound at the current iterate, and it stops as soon as
    the bound is at or below the line. The check only reads the
    iterate, so a solve whose bound never reaches the line returns
    exactly what it returns without one.

    Args:
        cost: symmetric cost matrix ``C`` (symmetrized if not).
        classes: groups of ``(i, j)`` index pairs (``i <= j``) whose
            entries must agree; singleton groups are allowed no-ops.
        zero_entries: index pairs pinned to zero.
        corner_value: required value of ``X[0, 0]`` (moment
            normalization).
        diagonal_cap: per-entry diagonal bound used only in the dual
            repair; must hold for every feasible matrix of interest.
        tolerance: threshold on both residuals, ``||X - Z||_F`` and
            ``||Z - Z_prev||_F``.
        max_iterations: iteration cap (no exception on hitting it —
            the repaired bound stays valid, just looser).
        stop_below: optional decision line for ``upper_bound``, in the
            units of ``<C, X>``; a solve that stops there returns with
            ``converged=False`` and counts in ``npa.verdict_stops``.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise SolverError(f"cost must be square, got shape {c.shape}")
    c = symmetrize(_require_finite(c, "cost"))
    n = c.shape[0]
    # A NaN fails every comparison, so test for the valid range.
    if not (np.isfinite(corner_value) and corner_value > 0):
        raise SolverError("corner_value must be positive and finite")
    if not (np.isfinite(diagonal_cap) and diagonal_cap > 0):
        raise SolverError("diagonal_cap must be positive and finite")

    cls_rows, cls_cols, cls_ids, cls_w = [], [], [], []
    for cid, group in enumerate(classes):
        for i, j in group:
            i, j = (int(i), int(j)) if i <= j else (int(j), int(i))
            if not 0 <= i <= j < n:
                raise SolverError(f"class entry {(i, j)} out of range")
            if (i, j) == (0, 0):
                raise SolverError("corner entry (0, 0) cannot join a class")
            cls_rows.append(i)
            cls_cols.append(j)
            cls_ids.append(cid)
            # Frobenius weight: off-diagonal entries appear twice.
            cls_w.append(1.0 if i == j else 2.0)
    num_classes = len(classes)
    cls_rows = np.asarray(cls_rows, dtype=np.intp)
    cls_cols = np.asarray(cls_cols, dtype=np.intp)
    cls_ids = np.asarray(cls_ids, dtype=np.intp)
    cls_w = np.asarray(cls_w, dtype=float)
    weight_sums = np.bincount(cls_ids, weights=cls_w, minlength=num_classes)
    if num_classes and (weight_sums == 0).any():
        raise SolverError("every class needs at least one entry")

    zr, zc = [], []
    for i, j in zero_entries:
        i, j = (int(i), int(j)) if i <= j else (int(j), int(i))
        if not 0 <= i <= j < n:
            raise SolverError(f"zero entry {(i, j)} out of range")
        if (i, j) == (0, 0):
            raise SolverError("corner entry (0, 0) cannot be pinned to zero")
        zr.append(i)
        zc.append(j)
    zr = np.asarray(zr, dtype=np.intp)
    zc = np.asarray(zc, dtype=np.intp)

    def class_means(mat: np.ndarray) -> np.ndarray:
        vals = mat[cls_rows, cls_cols]
        sums = np.bincount(
            cls_ids, weights=cls_w * vals, minlength=num_classes
        )
        return sums / weight_sums

    def project_affine(mat: np.ndarray) -> np.ndarray:
        out = symmetrize(mat)
        if num_classes:
            means = class_means(out)
            out[cls_rows, cls_cols] = means[cls_ids]
            out[cls_cols, cls_rows] = means[cls_ids]
        out[zr, zc] = 0.0
        out[zc, zr] = 0.0
        out[0, 0] = corner_value
        return out

    scale = _cost_scales(c[None])[0]
    c_hat = c / scale

    def dual_bound(u: np.ndarray) -> float:
        # The scaled iteration's dual variable is U; the slack of the
        # original problem is -||C||_F * U.
        return _partition_dual_bound(
            c,
            -scale * symmetrize(u),
            class_means,
            (cls_rows, cls_cols, cls_ids),
            (zr, zc),
            corner_value=corner_value,
            diagonal_cap=diagonal_cap,
        )

    registry = _metrics.get_registry()
    z = np.eye(n) * min(corner_value, diagonal_cap)
    u = np.zeros((n, n))
    primal_res = dual_res = float("inf")
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        # X-step: the augmented-Lagrangian quadratic is isotropic, so
        # the exact minimizer is the affine projection of z - u + C_hat.
        x = project_affine(z - u + c_hat)
        z_prev = z
        z = project_psd(x + u)
        u = u + x - z
        primal_res = float(np.linalg.norm(x - z))
        dual_res = float(np.linalg.norm(z - z_prev))
        if primal_res < tolerance and dual_res < tolerance:
            break
        if (
            stop_below is not None
            and iteration % LINE_CHECK_PERIOD == 0
            and dual_bound(u) <= stop_below
        ):
            registry.counter("npa.verdict_stops").inc()
            break

    converged = primal_res < tolerance and dual_res < tolerance
    registry.counter("admm.iterations").inc(iteration)
    objective = float(np.sum(c * z))
    upper = dual_bound(u)
    return SDPResult(
        matrix=z,
        objective=objective,
        upper_bound=upper,
        iterations=iteration,
        primal_residual=primal_res,
        dual_residual=dual_res,
        converged=converged,
    )


def _partition_dual_bound(
    cost: np.ndarray,
    slack: np.ndarray,
    class_means,
    class_index,
    zero_index,
    *,
    corner_value: float,
    diagonal_cap: float,
) -> float:
    """Rigorous upper bound from the partition SDP's repaired dual.

    ``M = C + S`` (with ``S = -||C||_F U`` the ADMM dual iterate) is split
    into a part lying exactly in the span of the constraint matrices
    and a residual ``R`` (the weighted class means plus everything on
    unconstrained entries). For any feasible ``X`` with
    ``diag(X) <= diagonal_cap``::

        <C, X> = <M - R, X> - <S - R, X>
               <= corner_value * M[0, 0] + max(0, -lambda_min(S - R)) * n * cap

    because ``M - R`` is a combination of constraint matrices whose
    only inhomogeneous term is the corner, and ``<S - R, X>`` is
    bounded below by the most negative eigenvalue times the trace.
    """
    n = cost.shape[0]
    m = cost + slack
    residual = np.zeros_like(m)
    cls_rows, cls_cols, cls_ids = class_index
    if cls_rows.size:
        means = class_means(m)
        residual[cls_rows, cls_cols] = means[cls_ids]
        residual[cls_cols, cls_rows] = means[cls_ids]
    constrained = np.zeros(m.shape, dtype=bool)
    constrained[cls_rows, cls_cols] = True
    constrained[cls_cols, cls_rows] = True
    zr, zc = zero_index
    constrained[zr, zc] = True
    constrained[zc, zr] = True
    constrained[0, 0] = True
    residual[~constrained] = m[~constrained]
    repaired = slack - residual
    min_eig = float(np.linalg.eigvalsh(symmetrize(repaired)).min())
    shift = max(0.0, -min_eig)
    return float(corner_value * m[0, 0] + shift * n * diagonal_cap)
