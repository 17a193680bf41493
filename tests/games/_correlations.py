"""Behaviors and the no-signaling polytope.

A *behavior* is the conditional distribution ``p(a, b | x, y)`` a
strategy induces. Three nested sets organize the whole paper:

- classical (shared randomness) ⊂ quantum (entanglement) ⊂ no-signaling.

This test helper provides behavior-level checks (validity,
no-signaling, marginals) and the Popescu-Rohrlich box — the extremal
no-signaling behavior that wins CHSH with certainty. Physics stops at
Tsirelson's bound, not at no-signaling: the PR box quantifies how much
coordination causality alone would permit, and how much of it quantum
mechanics actually delivers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GameError
from repro.games.nonlocal_games import NonlocalGame

__all__ = [
    "is_valid_behavior",
    "is_no_signaling",
    "alice_marginal",
    "bob_marginal",
    "pr_box",
    "behavior_win_probability",
    "classical_mixture_behavior",
]


def is_valid_behavior(behavior: np.ndarray, *, atol: float = 1e-9) -> bool:
    """Check non-negativity and per-input normalization."""
    behavior = np.asarray(behavior, dtype=float)
    if behavior.ndim != 4:
        return False
    if (behavior < -atol).any():
        return False
    sums = behavior.sum(axis=(2, 3))
    return bool(np.allclose(sums, 1.0, atol=atol))


def alice_marginal(behavior: np.ndarray) -> np.ndarray:
    """``p(a | x, y)`` — shape ``(nx, ny, na)``."""
    return np.asarray(behavior, dtype=float).sum(axis=3)


def bob_marginal(behavior: np.ndarray) -> np.ndarray:
    """``p(b | x, y)`` — shape ``(nx, ny, nb)``."""
    return np.asarray(behavior, dtype=float).sum(axis=2)


def is_no_signaling(behavior: np.ndarray, *, atol: float = 1e-9) -> bool:
    """True when neither party's marginal depends on the other's input.

    This is the physical constraint the paper's §4.2 argument leans on:
    whatever basis a far-away party chooses, the local statistics cannot
    change — otherwise the parties could communicate faster than light.
    """
    if not is_valid_behavior(behavior, atol=atol):
        return False
    a_marg = alice_marginal(behavior)
    b_marg = bob_marginal(behavior)
    # Alice's marginal must be constant across y; Bob's across x.
    a_ok = np.allclose(a_marg, a_marg[:, :1, :], atol=atol)
    b_ok = np.allclose(b_marg, b_marg[:1, :, :], atol=atol)
    return bool(a_ok and b_ok)


def pr_box() -> np.ndarray:
    """The Popescu-Rohrlich box: ``a XOR b = x AND y`` with certainty.

    No-signaling (marginals stay uniform) but super-quantum: it wins
    CHSH with probability 1, beyond Tsirelson's cos^2(pi/8). No physical
    system realizes it — it marks the causality ceiling.
    """
    behavior = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == (x & y):
                        behavior[x, y, a, b] = 0.5
    return behavior


def behavior_win_probability(
    game: NonlocalGame, behavior: np.ndarray
) -> float:
    """Win probability of an arbitrary behavior (validity enforced)."""
    if not is_valid_behavior(behavior):
        raise GameError("behavior is not a valid conditional distribution")
    return game.value_of_behavior(behavior)


def classical_mixture_behavior(
    assignments: list[tuple[tuple[int, ...], tuple[int, ...]]],
    weights: list[float],
    num_outputs: tuple[int, int] = (2, 2),
) -> np.ndarray:
    """Behavior of a shared-randomness mixture of deterministic pairs.

    Every point of the classical polytope has this form; useful for
    constructing explicit classical witnesses in tests.
    """
    if len(assignments) != len(weights) or not assignments:
        raise GameError("assignments and weights must align and be non-empty")
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise GameError("weights must form a distribution")
    nx = len(assignments[0][0])
    ny = len(assignments[0][1])
    na, nb = num_outputs
    behavior = np.zeros((nx, ny, na, nb))
    for (a_table, b_table), weight in zip(assignments, weights):
        if len(a_table) != nx or len(b_table) != ny:
            raise GameError("assignment tables have inconsistent lengths")
        for x in range(nx):
            for y in range(ny):
                behavior[x, y, a_table[x], b_table[y]] += weight
    return behavior
