"""Batched Fig 3 pipeline: vectorized game sampling + screening cascade.

The reference Fig 3 loop draws one random affinity graph at a time and
runs a full Tsirelson SDP per game. This module processes a whole batch
of games as ``(B, n, n)`` ndarrays and decides most of them without any
SDP through a three-stage *screening cascade*:

1. **perfect** — the exact (batched brute-force) classical bias already
   rules out an advantage: the quantum bias can never exceed 1, so any
   game with ``classical + threshold >= 1`` is decided immediately
   (this clears the all-colocate and all-exclusive columns of Fig 3).
2. **upper** — a rigorous dual certificate
   (:func:`repro.sdp.batch.dual_upper_bound_batch`) at the rank-1 Gram
   matrix ``s s^T`` of the best classical ±1 assignment ``s``, which the
   brute force already found; if it falls below ``classical +
   threshold`` by a safety margin, no advantage is possible. At a tie
   (quantum bias = classical bias) ``s s^T`` is an optimal SDP solution,
   complementary slackness pins every dual optimum to the certificate's
   guess ``y_i = s_i (C s)_i``, and the bound is exact, so every tie is
   refuted here with one ``eigvalsh``.
3. **lower** — the alternating-ascent heuristic produces an
   *achievable* quantum bias; if it clears the classical bias by the
   threshold plus the margin, the advantage is proven (a lower bound
   can only under-claim). All restarts of all games run as one stack;
   each (restart, game) slice stops on its own convergence, and all of
   a game's slices stop at the first iteration where one of them clears
   that line, so a game's bound does not depend on which games share
   its batch.

Only the undecided residue escalates to stage 4, **sdp**: the stacked
ADMM solve (:func:`repro.sdp.batch.solve_diagonal_sdp_batch`),
warm-started from the heuristic Gram matrices. It applies the rules of
stages 2 and 3 to its own iterate through per-slice decision lines at
``classical + threshold +/- margin``, so a game leaves the solver as
soon as its repaired iterate proves or refutes the advantage; only a
game whose bounds stay inside that band converges. The decision rule at
every stage sandwiches the quantity the reference path computes, so
per-game verdicts are identical to ``has_quantum_advantage`` — asserted
game-by-game in ``tests/games/test_advantage_batch.py`` and in the
Fig 3 benchmark.

Sampling consumes the shared RNG in exactly the order of the serial
:func:`~repro.games.graph_games.random_affinity_graph` loop (one
presence draw plus one label draw per vertex pair, games in sequence),
so reference and batched runs see bit-identical games.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GameError
from repro.games.xor import XORGame, classical_strategy_batch
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
    "screen_game_batch",
    "screen_advantage_batch",
]

#: Cascade stages. A game's ``stage`` is the index of the one that
#: settled its verdict; they run in the order perfect, upper, lower, sdp.
STAGES = ("perfect", "lower", "upper", "sdp")

#: Safety margin the screening stages must clear before deciding without
#: the converged solve. The heuristic bounds are exact in real arithmetic
#: but the reference decision compares against an ADMM objective
#: converged to ~1e-8, so screens only claim verdicts that out-margin
#: that solver noise. The SDP stage stops its slices at the same margin;
#: only a game whose bounds stay within it of ``classical + threshold``
#: is solved to convergence.
DEFAULT_SCREEN_MARGIN = 1e-6


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
    """Exact classical biases for a ``(B, nx, ny)`` stack of cost matrices
    (the bias half of :func:`classical_strategy_batch`)."""
    return classical_strategy_batch(costs)[0]


def alternating_lower_bound_batch(
    costs: np.ndarray,
    *,
    restarts: int = 3,
    iterations: int = 200,
    seed: int = 0,
    stop_above: np.ndarray | None = None,
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

    ``stop_above`` is an optional ``(B,)`` array of per-game lines. At
    the first iteration where any restart of game ``b`` has a bias above
    ``stop_above[b]``, all of that game's slices leave the stack with
    their current iterates; the line is a function of the game's own
    slices, so batch independence holds. ``None`` (or ``+inf``) lets
    every slice run to its own stop.

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
    if stop_above is not None:
        stop_above = np.asarray(stop_above, dtype=float)
        if stop_above.shape != (num_games,):
            raise GameError(
                f"stop_above must have shape ({num_games},), "
                f"got {stop_above.shape}"
            )
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
        if stop_above is not None:
            games = active % num_games
            crossed = np.zeros(num_games, dtype=bool)
            crossed[games[new_bias > stop_above[games]]] = True
            done |= crossed[games]
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
        lower_bounds: achievable quantum biases: the ascent's bound, or
            the classical bias for games the upper stage refuted before
            the ascent ran (NaN for games the perfect stage decided).
        upper_bounds: dual upper bounds at the best classical
            assignment's rank-1 Gram matrix (NaN for perfect games).
        sdp_objectives: for the residue that escalated, the achievable
            SDP objective that settled the verdict: the repaired iterate
            at which the slice cleared or fell through its margin band,
            or the converged optimum for a slice whose bounds stayed
            inside the band. NaN for every other game.
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
    restarts: int = 3,
    iterations: int = 200,
    heuristic_seed: int = 0,
    backend: str | None = None,
) -> CascadeReport:
    """Decide quantum advantage for every game via the screening cascade.

    Games the perfect/upper/lower screens cannot settle with ``margin``
    to spare escalate to the stacked ADMM solve (warm-started from the
    heuristic Gram matrices), whose verdict applies the exact reference
    rule ``objective > classical + threshold``. Each escalated slice
    stops as soon as its repaired iterate settles that rule: when its
    achievable objective exceeds ``classical + threshold + margin``
    (advantage) or its dual bound is at most ``classical + threshold -
    margin`` (none). Slices inside the band converge. A negative or
    non-finite ``margin`` would let the screens claim verdicts the
    reference rule does not reach, so it raises :class:`GameError`.

    ``restarts`` / ``iterations`` set the ascent budget; the screens
    stay exact under any budget, which only moves games between the
    lower and sdp stages. ``backend`` selects the array-kernel backend
    for the escalated stacked solve (see :mod:`repro.backend`).
    """
    if not (np.isfinite(margin) and margin >= 0.0):
        raise GameError(f"margin must be finite and >= 0, got {margin}")
    costs = batch.cost_matrices()
    num_games = batch.num_games
    registry = _metrics.get_registry()
    with _spans.span("fig3.cascade", games=num_games):
        classical, signs = classical_strategy_batch(costs)
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
            # Stage 2: the dual certificate at the best classical
            # strategy's rank-1 Gram matrix refutes the advantage; it is
            # exact at every tie.
            line = classical[undecided] + threshold
            blocks = bias_cost_batch(costs[undecided])
            best = signs[undecided]
            bound = dual_upper_bound_batch(
                blocks, best[:, :, None] * best[:, None, :]
            )
            upper[undecided] = bound
            refuted = bound <= line - margin
            lower[undecided[refuted]] = classical[undecided[refuted]]
            stages[undecided[refuted]] = STAGES.index("upper")

            rest = undecided[~refuted]
            if rest.size:
                # Stage 3: achievable lower bound proves the advantage; a
                # game leaves the ascent once one restart proves it.
                line = line[~refuted]
                blocks = blocks[~refuted]
                bias_lb, u, v = alternating_lower_bound_batch(
                    costs[rest],
                    restarts=restarts,
                    iterations=iterations,
                    seed=heuristic_seed,
                    stop_above=line + margin,
                )
                lower[rest] = bias_lb
                proven = bias_lb > line + margin
                verdicts[rest[proven]] = True
                stages[rest[proven]] = STAGES.index("lower")

                # Stage 4: stacked solve for the residue; each slice stops
                # once its iterate settles the verdict (stages 2 and 3).
                residue = rest[~proven]
                if residue.size:
                    registry.counter("admm.escalations").inc(
                        int(residue.size)
                    )
                    line = line[~proven]
                    stacked = np.concatenate(
                        [u[~proven], v[~proven]], axis=1
                    )
                    results = solve_diagonal_sdp_batch(
                        blocks[~proven],
                        tolerance=tolerance,
                        warm_starts=stacked @ np.swapaxes(stacked, 1, 2),
                        backend=backend,
                        stop_below=line - margin,
                        stop_above=line + margin,
                    )
                    objectives = np.array([r.objective for r in results])
                    sdp_obj[residue] = objectives
                    verdicts[residue] = objectives > line
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
    restarts: int = 3,
    iterations: int = 200,
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
