"""The partition SDP solver, the ADMM core for NPA moment matrices.

:func:`solve_partition_sdp` solves a stack of moment-matrix SDPs that
share one partition: entries identified in classes or pinned to zero.
These are the NPA relaxations of :mod:`repro.games.npa` (the ECMP
conjecture, §4.2, and the general-game cascade), whose partition depends
only on the alphabets and the level, so a screen's whole NPA residue is
one stack per alphabet. The other problem form,
``max <C, X> s.t. diag(X) = d, X PSD`` (the Tsirelson SDP behind Fig 3),
has its own core, :func:`repro.sdp.batch.solve_diagonal_sdp_batch`. A
single problem of either form is a stack of one.

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

Every step acts on each slice alone: the class sums are one ``bincount``
over ``(slice, class)`` bins, the projection one stacked ``eigh``, and
the residuals one BLAS dot product per slice. A slice leaves the stack
at its own convergence or decision line, so slice ``i`` of a stack
returns its stack-of-one solve bit for bit.

Each returned :class:`~repro.sdp.result.SDPResult` carries the last PSD
iterate with its objective, and a repaired dual certificate that is a
true upper bound at every iterate, so callers can make rigorous
no-advantage calls.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import SolverError
from repro.obs import metrics as _metrics
from repro.sdp.batch import (
    LINE_CHECK_PERIOD,
    _cost_scales,
    _decision_line,
    _require_finite,
)
from repro.sdp.projections import symmetrize_batch
from repro.sdp.result import SDPResult

__all__ = ["solve_partition_sdp"]


def solve_partition_sdp(
    costs: np.ndarray,
    classes: Sequence[Sequence[tuple[int, int]]],
    zero_entries: Sequence[tuple[int, int]] = (),
    *,
    corner_value: float = 1.0,
    diagonal_cap: float = 1.0,
    tolerance: float = 1e-8,
    max_iterations: int = 20_000,
    stop_below: np.ndarray | None = None,
) -> list[SDPResult]:
    """Solve a stack of moment-matrix SDPs that share one partition.

    For every slice ``C`` of ``costs``:
    ``max <C, X>  s.t.  X PSD,  X[0, 0] = corner_value,
    X[e] = 0 for e in zero_entries, and all entries within each class
    equal`` — the constraint structure of an NPA moment matrix, where
    distinct index pairs carry the same canonical monomial. The affine
    step is an exact O(nnz) scatter/gather (weighted class means), so
    thousands of identifications stay cheap.

    Each returned ``upper_bound`` is rigorous for any matrix that is
    feasible *and* has every diagonal entry at most ``diagonal_cap``
    (true for moment matrices of products of projectors): the ADMM
    dual iterate is projected onto the exact span of the constraint
    matrices and the projection residual plus any negative eigenvalue
    of the dual slack is charged against the trace cap
    ``n * diagonal_cap``. The bound therefore holds even before
    convergence — early stopping only loosens it.

    A caller that needs only to know whether each optimum lies at or
    below some value passes those values as ``stop_below``. Every
    :data:`~repro.sdp.batch.LINE_CHECK_PERIOD` iterations the solve then
    evaluates the bound of each slice that did not converge at that
    iteration, and a slice stops as soon as its bound is at or below
    its line. The check only reads the iterate, so a slice whose bound
    never reaches its line returns exactly what it returns without one.

    Args:
        costs: ``(B, n, n)`` stack of cost matrices ``C`` (symmetrized).
        classes: groups of ``(i, j)`` index pairs (``i <= j``) whose
            entries must agree; singleton groups are allowed no-ops.
        zero_entries: index pairs pinned to zero.
        corner_value: required value of ``X[0, 0]`` (moment
            normalization).
        diagonal_cap: per-entry diagonal bound used only in the dual
            repair; must hold for every feasible matrix of interest.
        tolerance: per-slice threshold on both residuals,
            ``||X - Z||_F`` and ``||Z - Z_prev||_F``.
        max_iterations: iteration cap (no exception on hitting it —
            the repaired bound stays valid, just looser).
        stop_below: optional ``(B,)`` decision lines for
            ``upper_bound``, in the units of ``<C, X>``; a slice that
            stops at its line returns with ``converged=False`` and
            counts in ``npa.verdict_stops``.

    Returns:
        One :class:`SDPResult` per slice, in input order; each equals
        the result of solving that slice as a stack of one.
    """
    c = np.asarray(costs, dtype=float)
    if c.ndim != 3 or c.shape[1] != c.shape[2]:
        raise SolverError(
            f"costs must be a (B, n, n) stack, got shape {c.shape}"
        )
    num_slices, n = c.shape[0], c.shape[1]
    check_lines = stop_below is not None
    below = _decision_line(stop_below, num_slices, "stop_below", -np.inf)
    c = symmetrize_batch(_require_finite(c, "costs"))
    # A NaN fails every comparison, so test for the valid range.
    if not (np.isfinite(corner_value) and corner_value > 0):
        raise SolverError("corner_value must be positive and finite")
    if not (np.isfinite(diagonal_cap) and diagonal_cap > 0):
        raise SolverError("diagonal_cap must be positive and finite")
    partition = _Partition.build(classes, zero_entries, n, num_slices)
    if num_slices == 0:
        return []

    # Each slice's step scale comes from a stack of one: a stacked
    # einsum may sum a large slice in another order.
    scales = np.array([_cost_scales(cost[None])[0] for cost in c])
    c_hat = c / scales[:, None, None]
    z = np.broadcast_to(
        np.eye(n) * min(corner_value, diagonal_cap), c.shape
    ).copy()
    u = np.zeros_like(c)

    def dual_bounds(ids: np.ndarray, u_ids: np.ndarray) -> np.ndarray:
        # The scaled iteration's dual variable is U; the slack of the
        # original problem is -||C||_F * U.
        return partition.head(ids.size).dual_bounds(
            c[ids],
            -scales[ids, None, None] * symmetrize_batch(u_ids),
            corner_value=corner_value,
            diagonal_cap=diagonal_cap,
        )

    final_z = np.empty_like(c)
    final_u = np.empty_like(c)
    iters = np.zeros(num_slices, dtype=int)
    primal_out = np.empty(num_slices)
    dual_out = np.empty(num_slices)
    stopped = np.zeros(num_slices, dtype=bool)
    active = np.arange(num_slices)
    tables = partition
    c_active = c_hat
    primal = dual = np.full(num_slices, np.inf)
    iteration = 0
    while active.size and iteration < max_iterations:
        iteration += 1
        # X-step: the augmented-Lagrangian quadratic is isotropic, so
        # the exact minimizer is the affine projection of z - u + C_hat.
        x = tables.project_affine(z - u + c_active, corner_value)
        z_prev = z
        # Z-step: NumPy's stacked eigh, not the backend kernel, so NPA
        # bounds do not depend on the backend.
        eigs, vecs = np.linalg.eigh(symmetrize_batch(x + u))
        z = (vecs * np.maximum(eigs, 0.0)[:, None, :]) @ vecs.swapaxes(1, 2)
        u = u + x - z
        primal = _frobenius(x - z)
        dual = _frobenius(z - z_prev)
        done = np.maximum(primal, dual) < tolerance
        if check_lines and iteration % LINE_CHECK_PERIOD == 0:
            checked = np.flatnonzero(~done)
            ids = active[checked]
            hit = dual_bounds(ids, u[checked]) <= below[ids]
            stopped[ids[hit]] = True
            done[checked[hit]] = True
        if np.count_nonzero(done):
            finished = active[done]
            final_z[finished] = z[done]
            final_u[finished] = u[done]
            iters[finished] = iteration
            primal_out[finished] = primal[done]
            dual_out[finished] = dual[done]
            keep = ~done
            active = active[keep]
            tables = partition.head(active.size)
            z = z[keep]
            u = u[keep]
            c_active = c_active[keep]
            primal = primal[keep]
            dual = dual[keep]
    if active.size:
        final_z[active] = z
        final_u[active] = u
        iters[active] = iteration
        primal_out[active] = primal
        dual_out[active] = dual

    registry = _metrics.get_registry()
    registry.counter("admm.iterations").inc(int(iters.sum()))
    registry.counter("npa.verdict_stops").inc(int(stopped.sum()))
    converged = (primal_out < tolerance) & (dual_out < tolerance)
    uppers = dual_bounds(np.arange(num_slices), final_u)
    return [
        SDPResult(
            matrix=final_z[b],
            objective=float(np.sum(c[b] * final_z[b])),
            upper_bound=float(uppers[b]),
            iterations=int(iters[b]),
            primal_residual=float(primal_out[b]),
            dual_residual=float(dual_out[b]),
            converged=bool(converged[b]),
        )
        for b in range(num_slices)
    ]


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each slice, one BLAS dot product per slice.

    That is how :func:`numpy.linalg.norm` sums one matrix, so a slice's
    norm does not depend on the stack around it (a stacked ``einsum``
    sums in another order).
    """
    flat = stack.reshape(stack.shape[0], 1, -1)
    return np.sqrt((flat @ flat.swapaxes(1, 2))[:, 0, 0])


@dataclass(frozen=True)
class _Partition:
    """Flat index tables of one partition for a stack of ``count`` slices.

    Positions index the flattened ``(count, n, n)`` stack, slice after
    slice, so every gather and scatter of a pass is one 1-D fancy index.
    The class sums of all slices are one ``bincount`` over
    ``(slice, class)`` bins; each bin adds its entries in the order a
    stack of one adds them. The active slices of a solve are packed at
    the front of its stack, so :meth:`head` cuts the tables to them.
    """

    count: int
    num_classes: int
    upper: np.ndarray
    lower: np.ndarray
    zeros: np.ndarray
    corners: np.ndarray
    free: np.ndarray
    bins: np.ndarray
    weights: np.ndarray
    weight_sums: np.ndarray

    @classmethod
    def build(cls, classes, zero_entries, n: int, count: int) -> _Partition:
        """Check a partition of ``n x n`` matrices and tile it ``count`` times."""

        def entry(i, j, what: str, corner: str) -> tuple[int, int]:
            i, j = sorted((int(i), int(j)))
            if not 0 <= i <= j < n:
                raise SolverError(f"{what} entry {(i, j)} out of range")
            if (i, j) == (0, 0):
                raise SolverError(f"corner entry (0, 0) cannot {corner}")
            return i, j

        rows, cols, ids = [], [], []
        for cid, group in enumerate(classes):
            for i, j in group:
                i, j = entry(i, j, "class", "join a class")
                rows.append(i)
                cols.append(j)
                ids.append(cid)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        ids = np.asarray(ids, dtype=np.intp)
        # Frobenius weight: off-diagonal entries appear twice.
        weights = np.where(rows == cols, 1.0, 2.0)
        num_classes = len(classes)
        weight_sums = np.bincount(ids, weights=weights, minlength=num_classes)
        if num_classes and (weight_sums == 0).any():
            raise SolverError("every class needs at least one entry")
        zeros = []
        for i, j in zero_entries:
            i, j = entry(i, j, "zero", "be pinned to zero")
            zeros += [i * n + j, j * n + i]

        upper = rows * n + cols
        lower = cols * n + rows
        zeros = np.asarray(zeros, dtype=np.intp)
        constrained = np.zeros(n * n, dtype=bool)
        for positions in (upper, lower, zeros, 0):
            constrained[positions] = True
        slices = np.arange(count)[:, None]
        return cls(
            count=count,
            num_classes=num_classes,
            upper=(slices * n * n + upper).ravel(),
            lower=(slices * n * n + lower).ravel(),
            zeros=(slices * n * n + zeros).ravel(),
            corners=slices.ravel() * n * n,
            free=(slices * n * n + np.flatnonzero(~constrained)).ravel(),
            bins=(slices * num_classes + ids).ravel(),
            weights=np.tile(weights, count),
            weight_sums=np.tile(weight_sums, count),
        )

    def head(self, count: int) -> _Partition:
        """The tables of the first ``count`` slices."""
        tables = {
            name: table[: table.size // self.count * count]
            for name, table in vars(self).items()
            if isinstance(table, np.ndarray)
        }
        return replace(self, count=count, **tables)

    def entry_means(self, flat: np.ndarray) -> np.ndarray:
        """The weighted mean of each class entry's class, from a flat stack."""
        sums = np.bincount(
            self.bins,
            weights=self.weights * flat[self.upper],
            minlength=self.weight_sums.size,
        )
        return (sums / self.weight_sums)[self.bins]

    def project_affine(
        self, mats: np.ndarray, corner_value: float
    ) -> np.ndarray:
        """Nearest point of the affine constraint set, slice by slice."""
        out = symmetrize_batch(mats)
        flat = out.reshape(-1)
        if self.num_classes:
            means = self.entry_means(flat)
            flat[self.upper] = means
            flat[self.lower] = means
        flat[self.zeros] = 0.0
        flat[self.corners] = corner_value
        return out

    def dual_bounds(
        self,
        costs: np.ndarray,
        slacks: np.ndarray,
        *,
        corner_value: float,
        diagonal_cap: float,
    ) -> np.ndarray:
        """Rigorous upper bound from each slice's repaired dual.

        ``M = C + S`` (with ``S = -||C||_F U`` the ADMM dual iterate) is
        split into a part lying exactly in the span of the constraint
        matrices and a residual ``R`` (the weighted class means plus
        everything on unconstrained entries). For any feasible ``X``
        with ``diag(X) <= diagonal_cap``::

            <C, X> = <M - R, X> - <S - R, X>
                   <= corner_value * M[0, 0]
                      + max(0, -lambda_min(S - R)) * n * cap

        because ``M - R`` is a combination of constraint matrices whose
        only inhomogeneous term is the corner, and ``<S - R, X>`` is
        bounded below by the most negative eigenvalue times the trace.
        """
        m = costs + slacks
        flat = m.reshape(-1)
        residual = np.zeros_like(flat)
        if self.num_classes:
            means = self.entry_means(flat)
            residual[self.upper] = means
            residual[self.lower] = means
        residual[self.free] = flat[self.free]
        repaired = slacks - residual.reshape(m.shape)
        min_eigs = np.linalg.eigvalsh(symmetrize_batch(repaired)).min(axis=1)
        shift = np.where(min_eigs < 0.0, -min_eigs, 0.0)
        return corner_value * m[:, 0, 0] + shift * m.shape[-1] * diagonal_cap
