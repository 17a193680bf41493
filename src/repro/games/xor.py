"""XOR games: the class of games the paper's load balancers play (§4.1).

An XOR game is defined by a joint input distribution ``pi(x, y)`` and a
target bit ``s(x, y)``; the players win when ``a XOR b == s(x, y)``. Only
the relation between outputs matters, never the values themselves, which
is what lets outputs stay uniformly random (paper §2) — exactly the
property load balancing needs.

Values are usually expressed through the *bias*
``eps = 2 * win_probability - 1``. The classical bias maximizes
``sum pi c a b`` over signs ``a, b in {-1, +1}``; the exact brute force
here, :func:`classical_strategy_batch`, takes a stack of games, and an
:class:`XORGame` is a stack of one. The quantum bias is Tsirelson's SDP
over unit vectors, computed in :mod:`repro.games.quantum_value`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GameError

__all__ = ["XORGame", "classical_strategy_batch"]

#: Sign-vector rows materialized per brute-force chunk; bounds peak
#: memory at ~chunk * nx floats while keeping the matmuls large.
_BRUTE_FORCE_CHUNK = 1 << 14


def _sign_chunks(nx: int):
    """Yield ±1 sign matrices covering Alice's ``2^(nx-1)`` assignments.

    The leading sign (bit ``nx - 1``) is fixed to +1: flipping every
    sign of both players negates nothing in an XOR game (global flip
    symmetry), so half the patterns suffice. Yielded chunks have shape
    ``(<=_BRUTE_FORCE_CHUNK, nx)``.
    """
    bits = np.arange(nx)
    for start in range(1 << (nx - 1), 1 << nx, _BRUTE_FORCE_CHUNK):
        stop = min(start + _BRUTE_FORCE_CHUNK, 1 << nx)
        patterns = np.arange(start, stop, dtype=np.int64)
        yield np.where((patterns[:, None] >> bits) & 1, 1.0, -1.0)


def classical_strategy_batch(
    costs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact classical biases and optimal ±1 strategies for a stack.

    For each of Alice's sign assignments, Bob's optimum is the
    column-wise sign match. The ``2^(nx-1)`` assignments surviving the
    global-flip symmetry are enumerated as chunked sign matrices, and
    the whole batch rides each chunk's matmul: one
    ``(K, nx) @ (B, nx, ny)`` product per chunk. Alice plays the first
    best row ``a`` of the chunks; Bob answers ``sign(a^T W)`` with 0 read
    as +1, which attains the bias exactly.

    Returns ``(bias (B,), signs (B, nx + ny))``, Alice's signs first.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 3:
        raise GameError(f"costs must be a (B, nx, ny) stack, got {costs.shape}")
    num_games, nx = costs.shape[:2]
    if nx > 24:
        raise GameError(
            f"brute force over 2^{nx} assignments is not tractable"
        )
    games = np.arange(num_games)
    best = np.full(num_games, -np.inf)
    alice = np.zeros((num_games, nx))
    for signs in _sign_chunks(nx):
        values = np.abs(signs @ costs).sum(axis=2)
        rows = values.argmax(axis=1)
        top = values[games, rows]
        better = top > best
        best[better] = top[better]
        alice[better] = signs[rows[better]]
    bob = np.where(np.einsum("bx,bxy->by", alice, costs) >= 0, 1.0, -1.0)
    return best, np.concatenate([alice, bob], axis=1)


@dataclass(frozen=True)
class XORGame:
    """An XOR game ``(pi, s)``.

    Attributes:
        name: label used in reports.
        distribution: joint input distribution, shape ``(nx, ny)``.
        targets: target XOR bits ``s(x, y)`` in {0, 1}, same shape.
    """

    name: str
    distribution: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        dist = np.asarray(self.distribution, dtype=float)
        targets = np.asarray(self.targets, dtype=int)
        if dist.ndim != 2:
            raise GameError(f"distribution must be 2-D, got {dist.shape}")
        if targets.shape != dist.shape:
            raise GameError(
                f"targets shape {targets.shape} != distribution {dist.shape}"
            )
        if (dist < -1e-12).any() or abs(dist.sum() - 1.0) > 1e-9:
            raise GameError("distribution must be a probability distribution")
        if not np.isin(targets, (0, 1)).all():
            raise GameError("targets must be 0/1")
        object.__setattr__(self, "distribution", dist.clip(min=0.0))
        object.__setattr__(self, "targets", targets)
        self.distribution.flags.writeable = False
        self.targets.flags.writeable = False

    # -- shapes ---------------------------------------------------------------

    @property
    def num_inputs_a(self) -> int:
        """Alice's input alphabet size."""
        return self.distribution.shape[0]

    @property
    def num_inputs_b(self) -> int:
        """Bob's input alphabet size."""
        return self.distribution.shape[1]

    def cost_matrix(self) -> np.ndarray:
        """The signed, weighted matrix ``W = pi * (-1)^s``.

        The bias of a sign assignment ``(a, b)`` is ``a^T W b``; of a
        vector strategy, ``sum W_xy <u_x, v_y>``.
        """
        return self.distribution * np.where(self.targets == 0, 1.0, -1.0)

    # -- values -----------------------------------------------------------------

    def classical_bias(self) -> float:
        """Exact classical bias: the one-game call of
        :func:`classical_strategy_batch`."""
        bias, _ = classical_strategy_batch(self.cost_matrix()[None])
        return float(bias[0])

    def classical_value(self) -> float:
        """Classical win probability ``(1 + bias) / 2``."""
        return (1.0 + self.classical_bias()) / 2.0

    def best_classical_assignment(self) -> tuple[np.ndarray, np.ndarray]:
        """An optimal deterministic strategy as ±1 sign vectors.

        The one-game call of :func:`classical_strategy_batch`, so the
        achieved bias always equals ``classical_bias()`` exactly, and
        Alice's leading sign is the fixed +1 of the global-flip
        reduction (the dropped half are the jointly-flipped duplicates,
        which play identically in an XOR game).
        """
        signs = classical_strategy_batch(self.cost_matrix()[None])[1][0]
        return signs[: self.num_inputs_a], signs[self.num_inputs_a :]

    def win_probability_of_bias(self, bias: float) -> float:
        """Convert a bias to a win probability."""
        return (1.0 + bias) / 2.0

    # -- conversions ----------------------------------------------------------

    def to_nonlocal_game(self):
        """View as a :class:`~repro.games.nonlocal_games.NonlocalGame`.

        The round trip ``game.to_nonlocal_game().as_xor_game()``
        recovers an equivalent XOR game; the general representation's
        ``classical_value`` delegates back to the vectorized XOR search
        for such games.
        """
        from repro.games.nonlocal_games import NonlocalGame

        return NonlocalGame.from_xor_game(self)

    @classmethod
    def chsh(cls) -> "XORGame":
        """CHSH as an XOR game (targets = x AND y)."""
        dist = np.full((2, 2), 0.25)
        targets = np.array([[0, 0], [0, 1]])
        return cls(name="chsh", distribution=dist, targets=targets)

    def __repr__(self) -> str:
        return (
            f"XORGame({self.name!r}, "
            f"inputs=({self.num_inputs_a},{self.num_inputs_b}))"
        )
