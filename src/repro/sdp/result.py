"""Result container for SDP solves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SDPResult"]


@dataclass(frozen=True)
class SDPResult:
    """Outcome of an SDP solve.

    Attributes:
        matrix: the (symmetric PSD, constraint-feasible) primal solution.
        objective: primal objective value ``<C, X>``.
        upper_bound: a rigorous upper bound on the optimum obtained from a
            repaired dual certificate (``objective <= optimum <=
            upper_bound`` up to the reported residuals).
        iterations: ADMM iterations used.
        primal_residual: final ``||X - Z||_F`` consensus residual.
        dual_residual: final ``||Z - Z_prev||_F`` change of the PSD
            iterate. Both residuals are in the units of ``X``, whatever
            the scale of the cost.
        converged: True when both residuals met the tolerance.
    """

    matrix: np.ndarray
    objective: float
    upper_bound: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool

    @property
    def gap(self) -> float:
        """Duality-style gap between the certificate and the primal value."""
        return self.upper_bound - self.objective

    def __repr__(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"SDPResult(objective={self.objective:.8f}, "
            f"upper_bound={self.upper_bound:.8f}, iters={self.iterations}, "
            f"{status})"
        )
