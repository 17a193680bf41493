"""The diagonal SDP solver: ``max <C, X> s.t. diag(X) = d, X PSD``.

This is the Tsirelson SDP that gives the quantum bias of an XOR game
(DESIGN.md, Fig 3), and :func:`solve_diagonal_sdp_batch` is its one
solver. The Fig 3 sweep solves thousands of these problems that all
share the same ``(n, n)`` structure (every 5-vertex XOR game yields a
10x10 Gram problem), so the solver iterates the whole batch as one
``(B, n, n)`` ndarray: each ADMM step is one batched eigendecomposition
plus a few elementwise updates, instead of ``B`` Python-level solver
loops. A single game, such as
:func:`~repro.games.quantum_value.xor_quantum_bias`, is a stack of one.

Per-game convergence is preserved by *freezing*: a game whose residuals
pass the tolerance is removed from the active stack and keeps the
iterate it converged to, so every game takes the steps it would take in
a stack of its own (same warm start in, same per-slice LAPACK calls,
same iteration count) rather than being dragged along until the slowest
batch member finishes.

Every returned :class:`~repro.sdp.result.SDPResult` carries a true
primal lower bound (:func:`repair_feasible_batch`) and a true dual upper
bound (:func:`dual_upper_bound_batch`). The Fig 3 screening cascade also
calls the dual certificate standalone, to refute advantage without any
solve.

A caller that needs only to know on which side of a band each optimum
lies passes per-slice decision lines. Every :data:`LINE_CHECK_PERIOD`
iterations each slice's repaired iterate is bounded from both sides,
and a slice whose achievable value clears its upper line, or whose dual
bound falls to its lower line, leaves the stack with those bounds.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend
from repro.errors import SolverError
from repro.obs import metrics as _metrics
from repro.sdp.projections import project_psd_batch, symmetrize_batch
from repro.sdp.result import SDPResult

__all__ = [
    "solve_diagonal_sdp_batch",
    "repair_feasible_batch",
    "dual_upper_bound_batch",
]

#: Iterations between two checks of an iterate's bounds against its
#: decision lines, in this stacked solver and in the partition solver.
LINE_CHECK_PERIOD = 25


def _cost_scales(costs: np.ndarray) -> np.ndarray:
    """ADMM step scale of every cost in a ``(B, n, n)`` stack.

    Both ADMM cores iterate on ``C / ||C||_F``, which is the penalty
    ``rho = ||C||_F``; a zero cost keeps scale 1. The partition solver
    calls this on a batch of one.
    """
    norms = np.sqrt(np.einsum("bij,bij->b", costs, costs))
    return np.where(norms > 0.0, norms, 1.0)


def _require_finite(array: np.ndarray, what: str) -> np.ndarray:
    """``array`` itself, or :class:`SolverError` if any entry is not finite."""
    if not np.isfinite(array).all():
        raise SolverError(f"{what} has non-finite entries")
    return array


def _check_diagonal(diagonal, n: int) -> np.ndarray:
    if diagonal is None:
        return np.ones(n)
    diagonal = np.asarray(diagonal, dtype=float)
    if diagonal.shape != (n,):
        raise SolverError(
            f"diagonal has shape {diagonal.shape}, expected ({n},)"
        )
    if not (np.isfinite(diagonal) & (diagonal > 0)).all():
        raise SolverError("diagonal entries must be positive and finite")
    return diagonal


def _decision_line(
    line, num_games: int, what: str, default: float
) -> np.ndarray:
    """A ``(B,)`` line array, filled with ``default`` when not given."""
    if line is None:
        return np.full(num_games, default)
    line = np.asarray(line, dtype=float)
    if line.shape != (num_games,):
        raise SolverError(
            f"{what} has shape {line.shape}, expected ({num_games},)"
        )
    return line


def repair_feasible_batch(z: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Batched feasibility repair: PSD with the exact required diagonal.

    PSD-project, then rescale every slice by ``D^-1/2 Z D^-1/2``
    (congruence preserves PSD-ness) so each slice's objective is a
    genuine lower bound.
    """
    psd = project_psd_batch(z)
    n = psd.shape[-1]
    rows = np.arange(n)
    current = psd[:, rows, rows].clip(min=1e-12)
    scale = np.sqrt(diagonal[None, :] / current)
    out = psd * (scale[:, :, None] * scale[:, None, :])
    out[:, rows, rows] = diagonal
    return out


def _repaired_bounds(costs, z, diagonal):
    """Each slice's repaired primal, its objective and its dual bound."""
    feasible = repair_feasible_batch(z, diagonal)
    objectives = np.einsum("bij,bij->b", costs, feasible)
    return feasible, objectives, dual_upper_bound_batch(
        costs, feasible, diagonal
    )


def dual_upper_bound_batch(
    costs: np.ndarray,
    primals: np.ndarray,
    diagonal: np.ndarray | None = None,
) -> np.ndarray:
    """Rigorous dual upper bounds for a stack of diagonal SDPs.

    For each slice: guess ``y_i = (C X)_ii / X_ii`` from complementarity
    at the given primal, then shift every entry up by the most negative
    eigenvalue of the slack ``Diag(y) - C``, restoring dual feasibility.
    The bound ``d . y`` is valid for *any* primal guess — a sloppy
    ``primals`` only loosens it — which is what lets the Fig 3 cascade
    refute quantum advantage from a heuristic Gram matrix without ever
    running the solver.
    """
    costs = np.asarray(costs, dtype=float)
    primals = np.asarray(primals, dtype=float)
    if costs.shape != primals.shape or costs.ndim != 3:
        raise SolverError(
            f"costs {costs.shape} and primals {primals.shape} must be "
            "matching (B, n, n) stacks"
        )
    _require_finite(costs, "costs")
    n = costs.shape[-1]
    diagonal = _check_diagonal(diagonal, n)
    rows = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = (costs @ primals)[:, rows, rows] / primals[:, rows, rows]
    y = np.nan_to_num(y, nan=0.0, posinf=0.0, neginf=0.0)
    slack = -costs.copy()
    slack[:, rows, rows] += y
    min_eigs = np.linalg.eigvalsh(symmetrize_batch(slack))[:, 0]
    shift = np.clip(-min_eigs, 0.0, None)
    return (y + shift[:, None]) @ diagonal


def solve_diagonal_sdp_batch(
    costs: np.ndarray,
    diagonal: np.ndarray | None = None,
    *,
    tolerance: float = 1e-8,
    max_iterations: int = 50_000,
    warm_starts: np.ndarray | None = None,
    stop_below: np.ndarray | None = None,
    stop_above: np.ndarray | None = None,
) -> list[SDPResult]:
    """Solve ``max <C_b, X_b> s.t. diag(X_b) = d, X_b PSD`` for a stack.

    Args:
        costs: ``(B, n, n)`` stack of cost matrices (symmetrized).
        diagonal: required diagonal ``d`` shared by every slice (all
            ones by default).
        tolerance: per-slice threshold on both residuals,
            ``||X - Z||_F`` and ``||Z - Z_prev||_F``.
        max_iterations: iteration cap; slices still active at the cap
            are returned with ``converged=False``.
        warm_starts: optional ``(B, n, n)`` stack of initial ``Z``
            iterates (e.g. Gram matrices from a heuristic solver).
        stop_below: optional ``(B,)`` decision lines for ``upper_bound``,
            in the units of ``<C, X>``.
        stop_above: optional ``(B,)`` decision lines for ``objective``.
            Every :data:`LINE_CHECK_PERIOD` iterations each slice that
            did not converge at that iteration is repaired and bounded;
            it stops once its objective is above its ``stop_above`` or
            its upper bound is at or below its ``stop_below``, returns
            those bounds with ``converged=False``, and counts in
            ``sdp.batch.verdict_stops``. The check only reads the
            iterate, so a slice that never reaches a line returns
            exactly what it returns without lines.

    Returns:
        One :class:`SDPResult` per slice, in input order, each with a
        feasible primal matrix and a rigorous dual upper bound. Slices
        converge (and freeze) independently, so a slice's result matches
        a stack of one with the same warm start: the same iteration
        count, and values equal up to floating-point reduction order.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 3 or costs.shape[1] != costs.shape[2]:
        raise SolverError(
            f"costs must be a (B, n, n) stack, got shape {costs.shape}"
        )
    num_games, n = costs.shape[0], costs.shape[1]
    check_lines = stop_below is not None or stop_above is not None
    below = _decision_line(stop_below, num_games, "stop_below", -np.inf)
    above = _decision_line(stop_above, num_games, "stop_above", np.inf)
    if num_games == 0:
        return []
    kernels = get_backend()
    c = symmetrize_batch(_require_finite(costs, "costs"))
    diagonal = _check_diagonal(diagonal, n)

    if warm_starts is None:
        z = np.broadcast_to(np.diag(diagonal), costs.shape).copy()
    else:
        z = np.asarray(warm_starts, dtype=float)
        if z.shape != costs.shape:
            raise SolverError(
                f"warm starts have shape {z.shape}, expected {costs.shape}"
            )
        z = symmetrize_batch(_require_finite(z, "warm starts"))
    c_hat = c / _cost_scales(c)[:, None, None]
    u = np.zeros_like(z)
    rows = np.arange(n)

    final_z = np.empty_like(z)
    iters = np.zeros(num_games, dtype=int)
    primal_out = np.full(num_games, np.inf)
    dual_out = np.full(num_games, np.inf)
    converged = np.zeros(num_games, dtype=bool)
    # Slices stopped at a line keep the bounds they were checked with.
    stopped = np.zeros(num_games, dtype=bool)
    feasible = np.empty_like(z)
    objectives = np.empty(num_games)
    uppers = np.empty(num_games)

    active = np.arange(num_games)
    c_active = c_hat
    iteration = 0
    total_iterations = 0
    primal = dual = None
    while active.size and iteration < max_iterations:
        iteration += 1
        total_iterations += active.size
        # X-step: unconstrained minimizer of the augmented Lagrangian,
        # then exact projection onto the diagonal constraint (the
        # quadratic is isotropic, so overwriting the diagonal is exact).
        x = z - u + c_active
        x[:, rows, rows] = diagonal
        z_prev = z
        z = kernels.project_psd_batch(x + u)
        u = u + x - z
        primal = kernels.frobenius_batch(x - z)
        dual = kernels.frobenius_batch(z - z_prev)
        done = (primal < tolerance) & (dual < tolerance)
        converged[active[done]] = True
        if check_lines and iteration % LINE_CHECK_PERIOD == 0:
            checked = np.flatnonzero(~done)
            ids = active[checked]
            repaired, lower, upper = _repaired_bounds(
                c[ids], z[checked], diagonal
            )
            hit = (lower > above[ids]) | (upper <= below[ids])
            leaving = ids[hit]
            stopped[leaving] = True
            feasible[leaving] = repaired[hit]
            objectives[leaving] = lower[hit]
            uppers[leaving] = upper[hit]
            done[checked[hit]] = True
        if done.any():
            finished = active[done]
            final_z[finished] = z[done]
            iters[finished] = iteration
            primal_out[finished] = primal[done]
            dual_out[finished] = dual[done]
            keep = ~done
            active = active[keep]
            z = z[keep]
            u = u[keep]
            c_active = c_active[keep]
            primal = primal[keep]
            dual = dual[keep]
    if active.size:
        final_z[active] = z
        iters[active] = iteration
        if primal is not None:
            primal_out[active] = primal
            dual_out[active] = dual

    registry = _metrics.get_registry()
    registry.counter("sdp.batch.solves").inc()
    registry.counter("sdp.batch.games").inc(num_games)
    registry.counter("sdp.batch.iterations").inc(total_iterations)
    registry.counter("admm.iterations").inc(total_iterations)
    registry.counter("sdp.batch.verdict_stops").inc(int(stopped.sum()))

    rest = ~stopped
    if rest.any():
        feasible[rest], objectives[rest], uppers[rest] = _repaired_bounds(
            c[rest], final_z[rest], diagonal
        )
    return [
        SDPResult(
            matrix=feasible[b],
            objective=float(objectives[b]),
            upper_bound=float(uppers[b]),
            iterations=int(iters[b]),
            primal_residual=float(primal_out[b]),
            dual_residual=float(dual_out[b]),
            converged=bool(converged[b]),
        )
        for b in range(num_games)
    ]
