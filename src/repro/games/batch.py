"""Batched Fig 3 pipeline: vectorized game sampling + screening cascade.

The reference Fig 3 loop draws one random affinity graph at a time and
runs a full Tsirelson SDP per game. This module processes a whole batch
of games as ``(B, n, n)`` ndarrays and decides most of them without any
SDP through a three-stage *screening cascade*:

1. **perfect** — the exact (batched brute-force) classical bias already
   rules out an advantage: the quantum bias can never exceed 1, so any
   game with ``classical + threshold >= 1`` is decided immediately
   (this clears the all-colocate and all-exclusive columns of Fig 3).
2. **lower** — the alternating-ascent heuristic produces an
   *achievable* quantum bias; if it clears the classical bias by the
   threshold plus a safety margin, the advantage is proven (a lower
   bound can only under-claim). All restarts of all games run as one
   stack, and each (restart, game) slice stops on its own convergence
   and leaves the stack, so a game's bound does not depend on which
   games share its batch.
3. **upper** — a rigorous dual certificate built from the heuristic's
   Gram matrix (:func:`repro.sdp.batch.dual_upper_bound_batch`); if it
   falls below ``classical + threshold`` by the margin, no advantage is
   possible.

Only the undecided residue escalates to the rigorous stacked ADMM solve
(:func:`repro.sdp.batch.solve_diagonal_sdp_batch`), warm-started from
the heuristic Gram matrices. The decision rule at every stage sandwiches
the quantity the reference path computes, so per-game verdicts are
identical to ``has_quantum_advantage`` — asserted game-by-game in
``tests/games/test_advantage_batch.py`` and in the Fig 3 benchmark.

Sampling consumes the shared RNG in exactly the order of the serial
:func:`~repro.games.graph_games.random_affinity_graph` loop (one
presence draw plus one label draw per vertex pair, games in sequence),
so reference and batched runs see bit-identical games.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GameError
from repro.games.xor import XORGame, _sign_chunks
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.sdp.batch import dual_upper_bound_batch, solve_diagonal_sdp_batch

__all__ = [
    "STAGES",
    "GameBatch",
    "CascadeReport",
    "sample_game_batch",
    "classical_bias_batch",
    "alternating_lower_bound_batch",
    "bias_cost_batch",
    "default_screen_budget",
    "screen_game_batch",
    "screen_advantage_batch",
]

#: Cascade stages in decision order. A game's ``stage`` records which
#: one settled its verdict.
STAGES = ("perfect", "lower", "upper", "sdp")

#: Safety margin the screening stages must clear before deciding without
#: the rigorous solve. The heuristic bounds are exact in real arithmetic
#: but the reference decision compares against an ADMM objective
#: converged to ~1e-8, so screens only claim verdicts that out-margin
#: that solver noise; everything closer escalates to the SDP stage.
DEFAULT_SCREEN_MARGIN = 1e-6


def default_screen_budget(num_types: int) -> tuple[int, int]:
    """Default ``(restarts, iterations)`` heuristic budget per graph size.

    The screens stay correct under *any* budget — the lower/upper
    sandwich uses rigorous bounds plus the safety margin, and the SDP
    stage applies the exact reference rule — so the budget only trades
    heuristic work against escalation volume. At the paper scale
    (``n <= 5``) the historical generous budget keeps the sandwich so
    tight that essentially nothing escalates, and changing it would
    perturb bit-compatible verdict tests, so it is preserved. At the
    ``n = 6..8`` scale the same budget makes escalations vanish too —
    which wastes heuristic time *and* leaves the rigorous stacked-ADMM
    path idle — so larger graphs get a deliberately lean ascent budget,
    calibrated so a real residue reaches the SDP stage at every size.
    """
    if num_types <= 5:
        return 3, 200
    return 2, max(8, 72 // num_types)


@dataclass(frozen=True)
class GameBatch:
    """A batch of XOR games induced by same-shape random affinity graphs.

    Attributes:
        distribution: shared input distribution, shape ``(n, n)`` — all
            games in a batch are drawn over the same (complete) graph
            skeleton, only the edge labels differ.
        targets: per-game target bits, shape ``(B, n, n)``.
    """

    distribution: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        dist = np.asarray(self.distribution, dtype=float)
        targets = np.asarray(self.targets, dtype=int)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise GameError(
                f"distribution must be square, got shape {dist.shape}"
            )
        if targets.ndim != 3 or targets.shape[1:] != dist.shape:
            raise GameError(
                f"targets shape {targets.shape} does not stack "
                f"distribution shape {dist.shape}"
            )
        object.__setattr__(self, "distribution", dist)
        object.__setattr__(self, "targets", targets)

    @property
    def num_games(self) -> int:
        """Number of games in the batch."""
        return self.targets.shape[0]

    @property
    def num_types(self) -> int:
        """Number of task types (vertices) per game."""
        return self.distribution.shape[0]

    def cost_matrices(self) -> np.ndarray:
        """Signed weight matrices ``W_b = pi * (-1)^s_b``, ``(B, n, n)``."""
        signs = np.where(self.targets == 0, 1.0, -1.0)
        return self.distribution[None, :, :] * signs

    def game(self, index: int) -> XORGame:
        """Materialize one game of the batch as an :class:`XORGame`."""
        return XORGame(
            name=f"graph-{self.num_types}v",
            distribution=self.distribution.copy(),
            targets=self.targets[index].copy(),
        )

    def games(self) -> list[XORGame]:
        """Materialize every game of the batch."""
        return [self.game(index) for index in range(self.num_games)]


def sample_game_batch(
    num_types: int,
    p_exclusive: float,
    num_games: int,
    rng: np.random.Generator,
    *,
    include_diagonal: bool = False,
) -> GameBatch:
    """Draw ``num_games`` random Fig 3 games in one vectorized pass.

    RNG consumption matches the serial sampling loop draw-for-draw —
    per vertex pair one edge-presence draw (complete graphs keep every
    edge, but the draw is still consumed) then one label draw, games in
    sequence — so a batch drawn from a generator state equals the games
    the reference loop would have drawn from that state.
    """
    if num_types < 2:
        raise GameError("affinity graph needs at least two task types")
    if not 0.0 <= p_exclusive <= 1.0:
        raise GameError(f"p_exclusive {p_exclusive} outside [0, 1]")
    if num_games < 1:
        raise GameError("need at least one game")
    upper_i, upper_j = np.triu_indices(num_types, k=1)
    draws = rng.random((num_games, upper_i.size, 2))
    labels = draws[..., 1] < p_exclusive
    targets = np.zeros((num_games, num_types, num_types), dtype=int)
    targets[:, upper_i, upper_j] = labels
    targets[:, upper_j, upper_i] = labels
    dist = np.zeros((num_types, num_types))
    dist[upper_i, upper_j] = 1.0
    dist[upper_j, upper_i] = 1.0
    if include_diagonal:
        np.fill_diagonal(dist, 1.0)
    dist = dist / dist.sum()
    return GameBatch(distribution=dist, targets=targets)


def classical_bias_batch(costs: np.ndarray) -> np.ndarray:
    """Exact classical biases for a ``(B, nx, ny)`` stack of cost matrices.

    The same global-flip-reduced brute force as
    :meth:`XORGame.classical_bias`, with the whole batch riding each
    sign-chunk matmul: one ``(K, nx) @ (B, nx, ny)`` product per chunk.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 3:
        raise GameError(f"costs must be a (B, nx, ny) stack, got {costs.shape}")
    nx = costs.shape[1]
    if nx > 24:
        raise GameError(
            f"brute force over 2^{nx} assignments is not tractable"
        )
    best = np.full(costs.shape[0], -np.inf)
    for signs in _sign_chunks(nx):
        values = np.abs(signs @ costs).sum(axis=2).max(axis=1)
        np.maximum(best, values, out=best)
    return best


def alternating_lower_bound_batch(
    costs: np.ndarray,
    *,
    restarts: int = 3,
    iterations: int = 200,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating-ascent lower bounds on the quantum biases of a stack.

    Alternates ``u_x <- normalize(sum_y W_xy v_y)`` and the symmetric
    ``v`` update, which never lowers ``sum_xy W_xy <u_x, v_y>``. Restart
    ``r`` starts every game from the same random unit ``V`` (the ``r``-th
    draw of ``default_rng(seed)``), and all ``max(1, restarts)`` restarts
    of all games run as one stack of (restart, game) slices. Each slice
    stops on its own, at the first iteration that gains less than
    ``1e-12`` or when ``iterations`` run out, and leaves the stack. A
    game's result therefore does not depend on the other games in
    ``costs``: it is bit-identical to the batch of that game alone,
    which is what :func:`~repro.games.quantum_value.alternating_bias_lower_bound`
    runs.

    The objective comes from the row norms of the ``v`` update: with
    ``v_y = (W^T u)_y / |(W^T u)_y|`` it equals ``sum_y |(W^T u)_y|``
    (rows of norm <= 1e-15 become zero and count 0). The returned biases
    are achievable by the returned unit-vector strategies, hence true
    lower bounds.

    Returns ``(bias (B,), U (B, nx, nx+ny), V (B, ny, nx+ny))``: each
    game's best restart, the earliest one on ties. With ``iterations=0``
    nothing runs and the result is ``-inf`` with zero ``U`` and ``V``.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 3:
        raise GameError(f"costs must be a (B, nx, ny) stack, got {costs.shape}")
    num_games, nx, ny = costs.shape
    dim = nx + ny
    rounds = max(1, restarts)
    starts = np.random.default_rng(seed).normal(size=(rounds, ny, dim))
    starts /= np.linalg.norm(starts, axis=2, keepdims=True)
    # Slice r * num_games + b is game b from restart r. Both cost stacks
    # are C-contiguous so every slice takes the same matmul path however
    # the stack is compacted.
    w = np.concatenate([costs] * rounds)
    w_t = np.ascontiguousarray(np.swapaxes(w, 1, 2))
    v = np.repeat(starts, num_games, axis=0)
    slices = rounds * num_games
    bias_out = np.full(slices, -np.inf)
    u_out = np.zeros((slices, nx, dim))
    v_out = np.zeros((slices, ny, dim))

    active = np.arange(slices)
    bias = np.full(slices, -np.inf)
    step = 0
    total = 0
    while active.size and step < iterations:
        step += 1
        total += active.size
        u = w @ v
        _unit_rows(u)
        v = w_t @ u
        new_bias = _unit_rows(v).sum(axis=1)
        done = (new_bias - bias < 1e-12) | (step == iterations)
        bias = new_bias
        if done.any():
            finished = active[done]
            bias_out[finished] = bias[done]
            u_out[finished] = u[done]
            v_out[finished] = v[done]
            keep = ~done
            active = active[keep]
            w = w[keep]
            w_t = w_t[keep]
            v = v[keep]
            bias = bias[keep]
    _metrics.get_registry().counter("fig3.ascent.iterations").inc(total)

    # argmax keeps the earliest of tied restarts.
    best = bias_out.reshape(rounds, num_games).argmax(axis=0)
    pick = best * num_games + np.arange(num_games)
    return bias_out[pick], u_out[pick], v_out[pick]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row of an ``(S, m, d)`` stack to unit length in place.

    Rows of norm at most 1e-15 become zero. Returns the ``(S, m)`` norms
    the rows were divided by, with 0 for the zeroed rows.
    """
    # einsum reduces these short rows several times faster than
    # np.linalg.norm, which dominated the ascent's profile.
    norms = np.sqrt(np.einsum("smd,smd->sm", x, x))
    kept = norms > 1e-15
    x /= np.where(kept, norms, np.inf)[..., None]
    return np.where(kept, norms, 0.0)


def bias_cost_batch(costs: np.ndarray) -> np.ndarray:
    """Block cost matrices whose diagonal-SDP optima are the quantum biases.

    Vectors are ``[u_1..u_nx, v_1..v_ny]`` and each slice holds
    ``W_b / 2`` in the off-diagonal blocks; the serial
    ``_bias_cost_matrix`` is its one-game call.
    """
    costs = np.asarray(costs, dtype=float)
    num_games, nx, ny = costs.shape
    blocks = np.zeros((num_games, nx + ny, nx + ny))
    blocks[:, :nx, nx:] = costs / 2.0
    blocks[:, nx:, :nx] = np.swapaxes(costs, 1, 2) / 2.0
    return blocks


@dataclass(frozen=True)
class CascadeReport:
    """Per-game verdicts and per-stage diagnostics of one cascade run.

    Attributes:
        verdicts: per-game advantage verdicts, shape ``(B,)`` bool.
        stages: index into :data:`STAGES` of the stage that decided each
            game.
        classical_bias: exact classical biases (always computed).
        lower_bounds: heuristic quantum lower bounds (NaN for games the
            perfect stage decided before the ascent ran).
        upper_bounds: dual upper bounds (NaN where not computed).
        sdp_objectives: rigorous SDP optima (NaN except for the residue
            that escalated).
        threshold: the advantage detection threshold in effect.
        margin: the screening safety margin in effect.
    """

    verdicts: np.ndarray
    stages: np.ndarray
    classical_bias: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    sdp_objectives: np.ndarray
    threshold: float = 1e-5
    margin: float = field(default=DEFAULT_SCREEN_MARGIN)

    @property
    def num_games(self) -> int:
        """Number of games screened."""
        return int(self.verdicts.shape[0])

    @property
    def advantage_probability(self) -> float:
        """Fraction of games with a quantum advantage."""
        return float(self.verdicts.mean())

    @property
    def escalation_rate(self) -> float:
        """Fraction of games the screens could not decide."""
        return float((self.stages == STAGES.index("sdp")).mean())

    def stage_counts(self) -> dict[str, int]:
        """Games decided per cascade stage, keyed by stage name."""
        return {
            name: int((self.stages == code).sum())
            for code, name in enumerate(STAGES)
        }


def screen_game_batch(
    batch: GameBatch,
    *,
    threshold: float = 1e-5,
    tolerance: float = 1e-8,
    margin: float = DEFAULT_SCREEN_MARGIN,
    restarts: int | None = None,
    iterations: int | None = None,
    heuristic_seed: int = 0,
    backend: str | None = None,
) -> CascadeReport:
    """Decide quantum advantage for every game via the screening cascade.

    Games the perfect/lower/upper screens cannot settle with ``margin``
    to spare escalate to the stacked ADMM solve (warm-started from the
    heuristic Gram matrices), whose verdict applies the exact reference
    rule ``objective > classical + threshold``.

    ``restarts`` / ``iterations`` default per graph size (see
    :func:`default_screen_budget`); pass explicit values to pin a
    budget. ``backend`` selects the array-kernel backend for the
    escalated stacked solve (see :mod:`repro.backend`).
    """
    if restarts is None or iterations is None:
        budget_restarts, budget_iterations = default_screen_budget(
            batch.num_types
        )
        restarts = budget_restarts if restarts is None else restarts
        iterations = budget_iterations if iterations is None else iterations
    costs = batch.cost_matrices()
    num_games = batch.num_games
    registry = _metrics.get_registry()
    with _spans.span("fig3.cascade", games=num_games):
        classical = classical_bias_batch(costs)
        verdicts = np.zeros(num_games, dtype=bool)
        stages = np.zeros(num_games, dtype=int)
        lower = np.full(num_games, np.nan)
        upper = np.full(num_games, np.nan)
        sdp_obj = np.full(num_games, np.nan)

        # Stage 1: classically perfect (quantum bias cannot exceed 1).
        perfect = classical + threshold >= 1.0 + margin
        stages[perfect] = STAGES.index("perfect")

        undecided = np.flatnonzero(~perfect)
        if undecided.size:
            bias_lb, u, v = alternating_lower_bound_batch(
                costs[undecided],
                restarts=restarts,
                iterations=iterations,
                seed=heuristic_seed,
            )
            lower[undecided] = bias_lb

            # Stage 2: achievable lower bound proves the advantage.
            proven = bias_lb > classical[undecided] + threshold + margin
            verdicts[undecided[proven]] = True
            stages[undecided[proven]] = STAGES.index("lower")

            rest = undecided[~proven]
            if rest.size:
                stacked = np.concatenate(
                    [u[~proven], v[~proven]], axis=1
                )
                grams = stacked @ np.swapaxes(stacked, 1, 2)
                blocks = bias_cost_batch(costs[rest])

                # Stage 3: dual certificate refutes the advantage.
                bound = dual_upper_bound_batch(blocks, grams)
                upper[rest] = bound
                refuted = bound <= classical[rest] + threshold - margin
                stages[rest[refuted]] = STAGES.index("upper")

                # Stage 4: rigorous stacked solve for the residue.
                residue = rest[~refuted]
                if residue.size:
                    registry.counter("admm.escalations").inc(
                        int(residue.size)
                    )
                    results = solve_diagonal_sdp_batch(
                        blocks[~refuted],
                        tolerance=tolerance,
                        warm_starts=grams[~refuted],
                        backend=backend,
                    )
                    objectives = np.array([r.objective for r in results])
                    sdp_obj[residue] = objectives
                    verdicts[residue] = (
                        objectives > classical[residue] + threshold
                    )
                    stages[residue] = STAGES.index("sdp")

        registry.counter("fig3.cascade.games").inc(num_games)
        registry.counter("fig3.cascade.advantage").inc(int(verdicts.sum()))
        for code, name in enumerate(STAGES):
            registry.counter(f"fig3.cascade.{name}").inc(
                int((stages == code).sum())
            )
    return CascadeReport(
        verdicts=verdicts,
        stages=stages,
        classical_bias=classical,
        lower_bounds=lower,
        upper_bounds=upper,
        sdp_objectives=sdp_obj,
        threshold=threshold,
        margin=margin,
    )


def screen_advantage_batch(
    num_types: int,
    p_exclusive: float,
    num_games: int,
    rng: np.random.Generator,
    *,
    threshold: float = 1e-5,
    include_diagonal: bool = False,
    tolerance: float = 1e-8,
    margin: float = DEFAULT_SCREEN_MARGIN,
    restarts: int | None = None,
    iterations: int | None = None,
    backend: str | None = None,
) -> CascadeReport:
    """Sample one Fig 3 point's games and screen them in one pass."""
    batch = sample_game_batch(
        num_types,
        p_exclusive,
        num_games,
        rng,
        include_diagonal=include_diagonal,
    )
    return screen_game_batch(
        batch,
        threshold=threshold,
        tolerance=tolerance,
        margin=margin,
        restarts=restarts,
        iterations=iterations,
        backend=backend,
    )
