"""Two-sided quantum value bounds for arbitrary nonlocal games.

The front door for everything beyond hand-written strategies:
:func:`quantum_value_bounds` certifies a sandwich ::

    classical_value  <=  lower_bound  <=  quantum value  <=  upper_bound

for any two-player :class:`~repro.games.nonlocal_games.NonlocalGame`.
XOR-representable games dispatch to the Tsirelson path
(:func:`repro.games.quantum_value.xor_quantum_value`) **bit-identically**
— same RNG draws, same SDP trajectory — so Fig 3 verdicts are
unchanged; general games get a see-saw achievable lower bound
(:mod:`repro.games.seesaw`) and an NPA level-1+AB rigorous upper bound
(:mod:`repro.games.npa`).

On top of the front door sits :func:`screen_nonlocal_games`, the
general-game sibling of the Fig 3 XOR screening cascade
(:func:`repro.games.batch.screen_game_batch`): classically-perfect
games exit first, the see-saw proves advantage second, the NPA bound
refutes third, and only the residue stays undecided (counted, and
conservatively scored as no-advantage). :func:`sample_game_family`
supplies the non-XOR game families the `fig3 --game-family` sweep
draws from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GameError
from repro.games.nonlocal_games import NonlocalGame, multi_class_colocation_game
from repro.games.npa import npa_upper_bound, npa_upper_bounds
from repro.games.quantum_value import XORValue, xor_quantum_value
from repro.games.seesaw import SeesawResult, seesaw_lower_bound
from repro.obs import metrics as _metrics
from repro.obs.spans import span
from repro.sdp import SDPResult

__all__ = [
    "BOUND_METHODS",
    "GAME_FAMILIES",
    "NONLOCAL_STAGES",
    "NonlocalScreenReport",
    "QuantumValueBounds",
    "quantum_value_bounds",
    "sample_game_family",
    "screen_nonlocal_games",
]

#: Accepted ``method`` values for :func:`quantum_value_bounds`.
BOUND_METHODS = ("auto", "xor", "general")

#: Game families the Fig 3 sweep can draw from (``--game-family``).
GAME_FAMILIES = ("xor", "colocation3", "random-nonlocal")

#: Stages of the general-game screening cascade, in decision order.
NONLOCAL_STAGES = ("perfect", "lower", "upper", "undecided")


@dataclass(frozen=True)
class QuantumValueBounds:
    """Certified two-sided bounds on a game's quantum value.

    Attributes:
        game_name: the game's label.
        method: resolved dispatch, ``"xor"`` or ``"general"``.
        classical_value: exact classical value.
        lower_bound: certified achievable quantum value (never below
            ``classical_value`` — classical strategies are quantum).
        upper_bound: rigorous upper bound (Tsirelson dual certificate
            on the XOR path, NPA repaired dual on the general path).
        xor_value: the full Tsirelson result (XOR path only).
        seesaw: the see-saw result (general path only).
        npa_sdp: the NPA solver result (general path only).
        npa_level: NPA hierarchy level used (general path only).
    """

    game_name: str
    method: str
    classical_value: float
    lower_bound: float
    upper_bound: float
    xor_value: XORValue | None = None
    seesaw: SeesawResult | None = None
    npa_sdp: SDPResult | None = None
    npa_level: str | None = None

    @property
    def advantage(self) -> float:
        """Certified quantum-minus-classical gap (zero when none)."""
        return max(0.0, self.lower_bound - self.classical_value)

    def has_advantage(self, threshold: float = 1e-5) -> bool:
        """True when the lower bound *proves* a quantum advantage."""
        return self.lower_bound > self.classical_value + threshold

    def refutes_advantage(self, threshold: float = 1e-5) -> bool:
        """True when the upper bound *rules out* a quantum advantage."""
        return self.upper_bound <= self.classical_value + threshold


def quantum_value_bounds(
    game: NonlocalGame,
    method: str = "auto",
    *,
    tolerance: float = 1e-8,
    dim: int | None = None,
    restarts: int = 5,
    iterations: int = 200,
    seed: int = 0,
    npa_level: str = "1+ab",
) -> QuantumValueBounds:
    """Certified ``classical <= lower <= upper`` bounds for ``game``.

    ``method="auto"`` routes XOR-representable games through the exact
    Tsirelson machinery — calling
    :func:`~repro.games.quantum_value.xor_quantum_value` with the same
    tolerance and RNG behavior as the pre-existing Fig 3 path, so
    results are bit-identical to calling it directly — and everything
    else through see-saw + NPA. ``method="xor"`` forces the Tsirelson
    path (raises :class:`GameError` for non-XOR games);
    ``method="general"`` forces see-saw + NPA even on XOR games
    (useful for differential testing).

    Args:
        game: the two-player game.
        method: one of :data:`BOUND_METHODS`.
        tolerance: SDP convergence tolerance (both paths).
        dim: see-saw local dimension; default
            ``max(2, min(4, max(num_outputs)))``.
        restarts / iterations / seed: see-saw budget and determinism
            (see :func:`~repro.games.seesaw.seesaw_lower_bound`).
        npa_level: NPA hierarchy level for the upper bound.
    """
    if method not in BOUND_METHODS:
        raise GameError(
            f"unknown method {method!r}; expected one of {BOUND_METHODS}"
        )
    xor_form = game.as_xor_game() if method in ("auto", "xor") else None
    if method == "xor" and xor_form is None:
        raise GameError(f"game {game.name!r} is not XOR-representable")
    if xor_form is not None:
        value = xor_quantum_value(xor_form, tolerance=tolerance)
        return QuantumValueBounds(
            game_name=game.name,
            method="xor",
            classical_value=value.classical_value,
            lower_bound=value.quantum_value,
            upper_bound=(1.0 + value.quantum_bias_upper) / 2.0,
            xor_value=value,
        )

    classical = float(game.classical_value())
    if dim is None:
        dim = max(2, min(4, max(game.num_outputs)))
    seesaw = seesaw_lower_bound(
        game,
        dim=dim,
        restarts=restarts,
        iterations=iterations,
        seed=seed,
    )
    upper, npa_sdp = npa_upper_bound(game, level=npa_level, tolerance=tolerance)
    return QuantumValueBounds(
        game_name=game.name,
        method="general",
        classical_value=classical,
        lower_bound=max(classical, seesaw.value),
        upper_bound=upper,
        seesaw=seesaw,
        npa_sdp=npa_sdp,
        npa_level=npa_level,
    )


@dataclass(frozen=True)
class NonlocalScreenReport:
    """Outcome of the general-game screening cascade.

    Attributes:
        verdicts: certified-advantage flags per game (undecided games
            are conservatively ``False``).
        stages: the stage that decided each game (one of
            :data:`NONLOCAL_STAGES`).
        classical_values: exact classical values.
        lower_bounds: certified see-saw lower bounds (``nan`` for
            games decided before the see-saw stage).
        upper_bounds: rigorous NPA upper bounds (``nan`` when the
            cascade never needed them). Each is the bound that settled
            the verdict: the NPA solve stops once its bound reaches
            ``classical + threshold``, so an "upper" game's entry can
            lie above its converged bound.
        threshold: the advantage threshold used.
    """

    verdicts: np.ndarray
    stages: tuple[str, ...]
    classical_values: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    threshold: float = 1e-5

    def stage_counts(self) -> dict[str, int]:
        """Games decided per stage, keyed by :data:`NONLOCAL_STAGES`."""
        return {
            stage: sum(1 for s in self.stages if s == stage)
            for stage in NONLOCAL_STAGES
        }


def screen_nonlocal_games(
    games,
    *,
    threshold: float = 1e-5,
    tolerance: float = 1e-8,
    dim: int | None = None,
    restarts: int = 3,
    iterations: int = 150,
    seed: int = 0,
    npa_level: str = "1+ab",
) -> NonlocalScreenReport:
    """Cascade advantage verdicts over a batch of general games.

    The general-game analogue of the Fig 3 XOR cascade: (1)
    **perfect** — a classically-perfect game cannot show advantage;
    (2) **lower** — the see-saw's certified lower bound proves it;
    (3) **upper** — the NPA bound refutes it; its solve stops as soon
    as the bound reaches ``classical + threshold``; (4) **undecided** —
    the bounds straddle the threshold; scored as no-advantage but
    counted separately so sweeps can report their resolution rate.

    The cascade runs in two passes: the first takes every game through
    the perfect and lower stages, the second solves the NPA bounds of
    all games left, one stacked solve per alphabet
    (:func:`~repro.games.npa.npa_upper_bounds`). Each game's bound is
    the one a stack of its own would give.

    A negative ``threshold`` would let the see-saw "prove" advantage
    for games without one, and a non-finite one would settle every
    game at the first stage, so both raise :class:`GameError`.
    """
    if not (np.isfinite(threshold) and threshold >= 0.0):
        raise GameError(f"threshold must be finite and >= 0, got {threshold}")
    games = list(games)
    num_games = len(games)
    verdicts = np.zeros(num_games, dtype=bool)
    stages: list[str | None] = [None] * num_games
    classical_values = np.full(num_games, np.nan)
    lower_bounds = np.full(num_games, np.nan)
    upper_bounds = np.full(num_games, np.nan)
    registry = _metrics.get_registry()
    registry.counter("bounds.cascade.games").inc(num_games)
    with span("bounds.cascade", games=num_games, threshold=threshold):
        residue: list[int] = []
        for index, game in enumerate(games):
            classical = float(game.classical_value())
            classical_values[index] = classical
            if classical + threshold >= 1.0:
                stages[index] = "perfect"
                continue
            seesaw = seesaw_lower_bound(
                game,
                dim=dim
                if dim is not None
                else max(2, min(4, max(game.num_outputs))),
                restarts=restarts,
                iterations=iterations,
                seed=seed,
            )
            lower = max(classical, seesaw.value)
            lower_bounds[index] = lower
            if lower > classical + threshold:
                verdicts[index] = True
                stages[index] = "lower"
                continue
            residue.append(index)
        lines = classical_values[residue] + threshold
        bounds = npa_upper_bounds(
            [games[index] for index in residue],
            level=npa_level,
            tolerance=tolerance,
            decide_below=lines,
        )
        for index, line, (upper, _) in zip(residue, lines, bounds):
            upper_bounds[index] = upper
            stages[index] = "upper" if upper <= line else "undecided"
        for stage in NONLOCAL_STAGES:
            registry.counter(f"bounds.cascade.{stage}").inc(
                sum(1 for s in stages if s == stage)
            )
    return NonlocalScreenReport(
        verdicts=verdicts,
        stages=tuple(stages),
        classical_values=classical_values,
        lower_bounds=lower_bounds,
        upper_bounds=upper_bounds,
        threshold=threshold,
    )


#: Predicate for a "hot server" (capacity) cell: the pair loses only
#: when both balancers pick server 1 — a NAND win condition, which
#: depends on both outputs non-parity-wise and breaks XOR form.
def _nand_predicate(a: int, b: int) -> float:
    return 0.0 if (a == 1 and b == 1) else 1.0


def sample_game_family(
    family: str,
    num_types: int,
    p: float,
    num_games: int,
    rng: np.random.Generator,
) -> list[NonlocalGame]:
    """Draw ``num_games`` random games from a non-XOR Fig 3 family.

    Families (see :data:`GAME_FAMILIES`; ``"xor"`` stays on the
    original affinity-graph pipeline and is rejected here):

    - ``"colocation3"`` — the 3-class colocation game with each input
      cell independently replaced, with probability ``p``, by the
      capacity (NAND) predicate "never both on the hot server". At
      ``p = 0`` every game is the XOR-representable
      :func:`multi_class_colocation_game`; ``p > 0`` mixes in
      non-parity cells, so verdicts need the see-saw/NPA cascade.
    - ``"random-nonlocal"`` — uniform inputs over ``num_types`` per
      side, binary outputs, each predicate entry winning i.i.d. with
      probability ``p``.

    Draw order is fixed (one ``rng.random`` block per game), so the
    sample is bit-identical for a given generator state regardless of
    downstream screening. ``num_types`` must be at least 1 for every
    family, although ``"colocation3"`` does not use it.
    """
    if family not in GAME_FAMILIES:
        raise GameError(
            f"unknown game family {family!r}; expected one of {GAME_FAMILIES}"
        )
    if family == "xor":
        raise GameError(
            "the 'xor' family uses the affinity-graph pipeline, not "
            "sample_game_family"
        )
    if num_types < 1:
        raise GameError(f"num_types {num_types} must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise GameError(f"family parameter p {p} outside [0, 1]")
    if num_games < 1:
        raise GameError("need at least one game")
    games: list[NonlocalGame] = []
    if family == "colocation3":
        base = multi_class_colocation_game(3)
        for index in range(num_games):
            pred = np.array(base.pred_mat)
            hot_cells = rng.random((3, 3)) < p
            for x in range(3):
                for y in range(3):
                    if not hot_cells[x, y]:
                        continue
                    for a in range(2):
                        for b in range(2):
                            pred[a, b, x, y] = _nand_predicate(a, b)
            games.append(
                NonlocalGame(
                    name=f"colocation3-hot-{index}",
                    prob_mat=np.array(base.prob_mat),
                    pred_mat=pred,
                )
            )
        return games
    prob = np.full((num_types, num_types), 1.0 / num_types**2)
    for index in range(num_games):
        pred = (
            rng.random((2, 2, num_types, num_types)) < p
        ).astype(float)
        games.append(
            NonlocalGame(
                name=f"random-nonlocal-{index}",
                prob_mat=prob.copy(),
                pred_mat=pred,
            )
        )
    return games
