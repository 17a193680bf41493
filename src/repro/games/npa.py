"""NPA upper bounds on quantum values of two-player nonlocal games.

The Navascues-Pironio-Acin hierarchy relaxes the set of quantum
correlations. :func:`build_npa_relaxation` / :func:`npa_upper_bound`
build it in projector form over arbitrary finite output alphabets, at
level ``"1"`` or level ``"1+ab"`` (the "almost quantum" set: monomial
basis ``{1} ∪ {A_x^a} ∪ {B_y^b} ∪ {A_x^a B_y^b}``). Moment-matrix
entries that reduce to the same canonical monomial are identified and
orthogonal same-input projector products pinned to zero; the resulting
partition SDP is solved by :func:`repro.sdp.solve_partition_sdp`, whose
repaired dual bound is rigorous because every monomial here is a
product of projectors, so feasible moment matrices have diagonal
entries at most one. The partition depends only on the alphabets and
the level, so :func:`npa_upper_bounds` solves many games' relaxations
as one stack per alphabet.

Restricting the moment matrix to be real symmetric keeps the bound
valid: the entrywise real part of any complex Hermitian quantum moment
matrix is PSD, satisfies the same identifications, and leaves the
(real) objective unchanged.

The relaxation covers two-player games. The paper's §4.2 conjecture
that ECMP-style collision games admit *no* quantum advantage is probed
from below by the k-party see-saw (:mod:`repro.games.seesaw`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import GameError
from repro.games.base import TwoPlayerGame
from repro.games.nonlocal_games import NonlocalGame
from repro.obs import metrics as _metrics
from repro.obs.spans import span
from repro.sdp import SDPResult, solve_partition_sdp

__all__ = [
    "NPA_LEVELS",
    "NPARelaxation",
    "build_npa_relaxation",
    "npa_upper_bound",
    "npa_upper_bounds",
]

NPA_LEVELS = ("1", "1+ab")

# A monomial is (alice_word, bob_word); each word is a tuple of
# (input, output) projector labels. Level 1 words have length <= 1, so
# entry products have words of length <= 2 and never need reordering
# beyond the A/B split (Alice's algebra commutes with Bob's).


def _reduce_word(word: tuple[tuple[int, int], ...]):
    """Canonical form of a projector word, or ``None`` if it vanishes.

    Adjacent equal projectors collapse (idempotence); adjacent
    projectors with the same input but different outputs annihilate
    (orthogonality).
    """
    out: list[tuple[int, int]] = []
    for label in word:
        if out and out[-1] == label:
            continue
        if out and out[-1][0] == label[0]:
            return None
        out.append(label)
    return tuple(out)


def _entry_key(mono_i, mono_j):
    """Canonical monomial of ``m_i† m_j``, or ``None`` if it is zero.

    Real moment matrices satisfy ``Gamma[i, j] = Re<m_i† m_j>`` and
    ``Re<W> = Re<W†>``, so a word and its reversal share a key.
    """
    alice = _reduce_word(tuple(reversed(mono_i[0])) + mono_j[0])
    if alice is None:
        return None
    bob = _reduce_word(tuple(reversed(mono_i[1])) + mono_j[1])
    if bob is None:
        return None
    key = (alice, bob)
    mirrored = (tuple(reversed(alice)), tuple(reversed(bob)))
    return min(key, mirrored)


@dataclass(frozen=True)
class NPARelaxation:
    """A general NPA moment-matrix relaxation, ready for the solver.

    Attributes:
        level: hierarchy level, one of :data:`NPA_LEVELS`.
        size: moment-matrix dimension.
        cost: symmetric cost matrix; the objective is
            ``<cost, Gamma> + constant``.
        constant: affine offset from expanding dropped outputs.
        classes: groups of upper-triangle entries identified by a
            shared canonical monomial (includes the ``Gamma[v, v] =
            Gamma[1, v]`` projector normalizations).
        zero_entries: entries whose monomial vanishes (orthogonal
            same-input projectors).
        monomials: the basis monomials, for debugging/reporting.
    """

    level: str
    size: int
    cost: np.ndarray
    constant: float
    classes: tuple[tuple[tuple[int, int], ...], ...]
    zero_entries: tuple[tuple[int, int], ...]
    monomials: tuple[tuple, ...]


@functools.cache
def _npa_structure(num_inputs, num_outputs, level):
    """The game-independent half of a relaxation, built once per
    ``(num_inputs, num_outputs, level)``: the monomial basis, the
    moment-matrix index of each single projector (Alice's, then Bob's),
    the identification classes and the zero entries.

    Entries are grouped by the canonical monomial of ``m_i† m_j`` over
    the upper triangle. The corner (0, 0) is the lone identity moment
    and stays pinned by the solver instead.
    """
    nx, ny = num_inputs
    na, nb = num_outputs
    alice_singles = [
        (((x, a),), ()) for x in range(nx) for a in range(na - 1)
    ]
    bob_singles = [((), ((y, b),)) for y in range(ny) for b in range(nb - 1)]
    monomials: list[tuple] = [((), ())] + alice_singles + bob_singles
    if level == "1+ab":
        monomials += [
            (alice[0], bob[1])
            for alice in alice_singles
            for bob in bob_singles
        ]
    size = len(monomials)

    alice_index = {
        mono[0][0]: 1 + i for i, mono in enumerate(alice_singles)
    }
    bob_index = {
        mono[1][0]: 1 + len(alice_singles) + i
        for i, mono in enumerate(bob_singles)
    }

    class_map: dict[tuple, list[tuple[int, int]]] = {}
    zero_entries: list[tuple[int, int]] = []
    for i in range(size):
        for j in range(i, size):
            if i == 0 and j == 0:
                continue
            key = _entry_key(monomials[i], monomials[j])
            if key is None:
                zero_entries.append((i, j))
            else:
                class_map.setdefault(key, []).append((i, j))
    classes = tuple(
        tuple(entries) for entries in class_map.values() if len(entries) > 1
    )
    return (
        tuple(monomials), alice_index, bob_index, classes, tuple(zero_entries)
    )


def build_npa_relaxation(
    game: NonlocalGame, *, level: str = "1+ab"
) -> NPARelaxation:
    """Assemble the moment matrix structure and objective for ``game``.

    One projector per input/output pair is kept except the last output
    of each input (completeness ``sum_a A_x^a = 1`` eliminates it); the
    win probability is expanded over the surviving projectors, with
    marginal terms against row 0 and product terms in the A-B block.
    The structure depends only on the alphabets and the level, so it is
    built once per process for each; only the cost and the constant are
    built per game.
    """
    if level not in NPA_LEVELS:
        raise GameError(
            f"unknown NPA level {level!r}; expected one of {NPA_LEVELS}"
        )
    nx, ny = game.num_inputs
    na, nb = game.num_outputs
    monomials, alice_index, bob_index, classes, zero_entries = (
        _npa_structure((nx, ny), (na, nb), level)
    )
    size = len(monomials)

    # Objective: expand p(a, b | x, y) over the reduced projector set.
    # Dropped outputs expand via completeness, e.g. for a = na - 1 the
    # Alice factor is 1 - sum_{a' < na-1} A_x^{a'}.
    cost = np.zeros((size, size))
    constant = 0.0

    def _complement(labels):
        """Expansion of ``1 - sum(labels)`` as (sign, label-or-None)."""
        return [(1.0, None)] + [(-1.0, label) for label in labels]

    def _add(i: int, j: int, value: float) -> None:
        if i == j:
            cost[i, i] += value
        else:
            cost[i, j] += value / 2.0
            cost[j, i] += value / 2.0

    for x in range(nx):
        for y in range(ny):
            weight = float(game.prob_mat[x, y])
            if weight == 0.0:
                continue
            for a in range(na):
                alice_terms = (
                    [(1.0, (x, a))]
                    if a < na - 1
                    else _complement([(x, aa) for aa in range(na - 1)])
                )
                for b in range(nb):
                    coeff = weight * float(game.pred_mat[a, b, x, y])
                    if coeff == 0.0:
                        continue
                    bob_terms = (
                        [(1.0, (y, b))]
                        if b < nb - 1
                        else _complement([(y, bb) for bb in range(nb - 1)])
                    )
                    for sign_a, label_a in alice_terms:
                        for sign_b, label_b in bob_terms:
                            value = coeff * sign_a * sign_b
                            if label_a is None and label_b is None:
                                constant += value
                            elif label_b is None:
                                _add(0, alice_index[label_a], value)
                            elif label_a is None:
                                _add(0, bob_index[label_b], value)
                            else:
                                _add(
                                    alice_index[label_a],
                                    bob_index[label_b],
                                    value,
                                )

    return NPARelaxation(
        level=level,
        size=size,
        cost=cost,
        constant=constant,
        classes=classes,
        zero_entries=zero_entries,
        monomials=monomials,
    )


def npa_upper_bound(
    game: NonlocalGame | TwoPlayerGame,
    *,
    level: str = "1+ab",
    tolerance: float = 1e-8,
    max_iterations: int = 20_000,
    decide_below: float | None = None,
) -> tuple[float, SDPResult]:
    """Rigorous NPA upper bound on the quantum value of any two-player
    game with finite alphabets.

    Level ``"1+ab"`` (default) is the "almost quantum" relaxation —
    never weaker than level ``"1"``. The bound combines the partition
    solver's repaired dual certificate with the relaxation constant,
    so it is a true upper bound on the quantum win probability even
    when the ADMM stops early.

    ``decide_below`` is a decision line on the win probability for a
    caller that needs only a verdict: the solve stops as soon as its
    bound is at or below the line, instead of converging (see the
    partition solver's ``stop_below``). A bound that never reaches the
    line is the converged bound.

    This is :func:`npa_upper_bounds` on a list of one game. Returns
    ``(bound, sdp_result)``.
    """
    return npa_upper_bounds(
        [game],
        level=level,
        tolerance=tolerance,
        max_iterations=max_iterations,
        decide_below=None if decide_below is None else [decide_below],
    )[0]


def npa_upper_bounds(
    games,
    *,
    level: str = "1+ab",
    tolerance: float = 1e-8,
    max_iterations: int = 20_000,
    decide_below=None,
) -> list[tuple[float, SDPResult]]:
    """:func:`npa_upper_bound` for many games, one stacked solve per
    partition.

    A relaxation's partition (its identification classes and zero
    entries) depends only on the alphabets and the level, so the games
    are grouped by ``(num_inputs, num_outputs)`` and each group is one
    stacked :func:`~repro.sdp.solve_partition_sdp`. Each game's slice
    runs as in a stack of its own, so its ``(bound, sdp_result)`` equals
    ``npa_upper_bound(game)`` bit for bit.

    Args:
        games: two-player games (:class:`NonlocalGame` or
            :class:`TwoPlayerGame`).
        level / tolerance / max_iterations: as in
            :func:`npa_upper_bound`, shared by every game.
        decide_below: optional decision line on the win probability per
            game, in input order.

    Returns:
        ``(bound, sdp_result)`` per game, in input order.
    """
    games = [
        game
        if isinstance(game, NonlocalGame)
        else NonlocalGame.from_two_player_game(game)
        for game in games
    ]
    if decide_below is not None:
        decide_below = np.asarray(decide_below, dtype=float)
        if decide_below.shape != (len(games),):
            raise GameError(
                f"decide_below has shape {decide_below.shape}, "
                f"expected ({len(games)},)"
            )
    groups: dict[tuple, list[int]] = {}
    for index, game in enumerate(games):
        groups.setdefault((game.num_inputs, game.num_outputs), []).append(
            index
        )
    registry = _metrics.get_registry()
    bounds: list[tuple[float, SDPResult] | None] = [None] * len(games)
    for members in groups.values():
        relaxations = [
            build_npa_relaxation(games[index], level=level)
            for index in members
        ]
        partition = relaxations[0]
        constants = np.array([r.constant for r in relaxations])
        registry.counter("npa.solves").inc(len(members))
        registry.counter("npa.moment_entries").inc(
            len(members) * partition.size**2
        )
        with span(
            "npa.solve",
            games=len(members),
            level=level,
            size=partition.size,
        ):
            results = solve_partition_sdp(
                np.stack([r.cost for r in relaxations]),
                partition.classes,
                partition.zero_entries,
                tolerance=tolerance,
                max_iterations=max_iterations,
                stop_below=None
                if decide_below is None
                else decide_below[members] - constants,
            )
        for index, relaxation, result in zip(members, relaxations, results):
            bounds[index] = (relaxation.constant + result.upper_bound, result)
    return bounds
