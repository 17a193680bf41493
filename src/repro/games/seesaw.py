"""See-saw lower bounds on quantum values of general nonlocal games.

The complement of :mod:`repro.games.npa`: an alternating-ascent
optimizer over a shared pure state and per-input POVM measurements on
``(C^dim)^(x k)`` for any ``k``-party game — a two-player
:class:`~repro.games.nonlocal_games.NonlocalGame` or a
:class:`~repro.games.nonlocal_games.MultipartyNonlocalGame` (the Mermin
and ECMP collision games). Both keep their predicate outputs first,
then inputs, so one contraction serves every party count. Each sweep is
a sequence of exact coordinate maximizations, so the objective is
monotone non-decreasing:

* **state step** — the optimal state for fixed measurements is the top
  eigenvector of the win operator (one ``eigh``);
* **measurement step** — the parties are updated from last to first.
  With everything else fixed, each input's optimal POVM maximizes
  ``sum_o Tr(E_o M_o)``, where party ``p``'s operators contract the
  game with ``Q E_rest Q^T``: ``Q`` is the state with party ``p``'s
  axis first, ``E_rest`` the Kronecker product of the other parties'
  effects. For binary outputs the exact optimum projects onto the
  positive eigenspace of ``M_0 - M_1``, computed for *all* inputs of a
  party in one stacked ``eigh``. For larger alphabets the same split is
  applied to outcome pairs (re-splitting ``S = E_o + E_o'`` optimally
  inside its support), batched over inputs per pair — monotone
  coordinate ascent built from the identical eigenvalue primitive.

Real symmetric operators are used throughout: a real see-saw is still
a valid quantum strategy (possibly needing a dimension doubling to
match complex optima, hence the ``dim`` knob).

The returned value is **certified**: the behavior is sanitized through
the backend's batched PSD projection
(:func:`repro.sdp.projections.project_psd_batch`), clipped, and
renormalized, and the reported value is
``game.value_of_behavior(behavior)`` of that explicit behavior — a
true achievable lower bound, independent of optimizer internals.

Restart initializations draw from named
:meth:`repro.sim.rng.RandomStreams.fresh` substreams, so results are
bit-identical regardless of process placement (``--jobs``) and a run
with more restarts reproduces the earlier restarts exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GameError
from repro.games.nonlocal_games import MultipartyNonlocalGame, NonlocalGame
from repro.obs import metrics as _metrics
from repro.obs.spans import span
from repro.sdp.projections import project_psd_batch, symmetrize_batch
from repro.sim.rng import RandomStreams

__all__ = ["SeesawResult", "seesaw_lower_bound", "random_projective_povms"]

#: einsum letters of party ``p``'s input and output; ``ijkl`` index the
#: matrices. With two parties the contractions below spell exactly the
#: two-player ones (``"xy,abxy,ybkl->xakl"`` and so on).
_INPUT_LETTERS = "xyzwvutsrq"
_OUTPUT_LETTERS = "abcdefghmn"

#: Refuse see-saws whose operator stacks would hold more entries than
#: this: the other parties' Kronecker effects of a k-party game grow as
#: ``dim**(2k - 2)`` times their alphabet sizes.
_OPERATOR_ENTRY_LIMIT = 1 << 24


@dataclass(frozen=True)
class SeesawResult:
    """Best strategy found by the see-saw, with its certified value.

    Attributes:
        value: ``game.value_of_behavior(behavior)`` — a true lower
            bound on the quantum value.
        behavior: explicit behavior of the strategy, inputs first then
            outputs (``(nx, ny, na, nb)`` for two players; non-negative,
            rows normalized).
        state: shared pure state on ``C^(dim**k)``, party 0's index
            most significant.
        effects: one ``(n_p, m_p, dim, dim)`` POVM array per party.
        dim: local Hilbert-space dimension per party.
        restarts: number of random restarts performed.
        iterations: total see-saw sweeps across all restarts.
        converged: whether the best restart's sweep improvements
            dropped below tolerance before its iteration cap.
        restart_values: raw objective per restart, in restart order
            (useful for monotonicity checks — restart ``r`` is
            reproduced exactly by any run with ``restarts > r``).
    """

    value: float
    behavior: np.ndarray
    state: np.ndarray
    effects: tuple[np.ndarray, ...]
    dim: int
    restarts: int
    iterations: int
    converged: bool
    restart_values: tuple[float, ...]


def random_projective_povms(
    num_inputs: int, num_outputs: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Random projective POVMs, one per input: ``(num_inputs,
    num_outputs, dim, dim)``.

    Each input gets a Haar-ish random orthogonal basis (QR of a
    Gaussian matrix) whose projectors are dealt to outcomes via a
    random permutation of the balanced outcome multiset, so no outcome
    hoards the whole basis (an all-in-one deal yields the trivial POVM
    ``{I, 0, ...}`` — a deterministic fixed point the see-saw cannot
    escape); effects sum to the identity by construction. When
    ``dim < num_outputs`` some outcomes necessarily get the zero
    effect — a valid (degenerate) POVM.
    """
    effects = np.zeros((num_inputs, num_outputs, dim, dim))
    for x in range(num_inputs):
        gauss = rng.standard_normal((dim, dim))
        basis, _ = np.linalg.qr(gauss)
        outcomes = rng.permutation(
            np.resize(np.arange(num_outputs), dim)
        )
        for k in range(dim):
            vec = basis[:, k]
            effects[x, outcomes[k]] += np.outer(vec, vec)
    return effects


def _optimal_binary_split(operators: np.ndarray) -> np.ndarray:
    """Exact optimal binary POVMs for a stack of objective pairs.

    ``operators`` is ``(B, 2, d, d)``; returns effects of the same
    shape where slice ``i`` maximizes ``Tr(E_0 M_0) + Tr(E_1 M_1)``:
    ``E_0`` projects onto the positive eigenspace of ``M_0 - M_1`` —
    one stacked eigenvalue problem for the whole batch.
    """
    d = operators.shape[-1]
    diff = symmetrize_batch(operators[:, 0] - operators[:, 1])
    eigvals, eigvecs = np.linalg.eigh(diff)
    positive = (eigvals > 0.0).astype(float)
    e0 = np.einsum("bik,bk,bjk->bij", eigvecs, positive, eigvecs)
    out = np.empty_like(operators)
    out[:, 0] = e0
    out[:, 1] = np.eye(d)[None] - e0
    return out


def _pairwise_exchange(effects: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """One monotone sweep of pairwise POVM re-splits for ``> 2`` outcomes.

    For each outcome pair ``(o, o')`` the combined effect
    ``S = E_o + E_o'`` is re-split optimally within its support:
    with ``D = S^(1/2) (M_o - M_o') S^(1/2)``, the optimum is
    ``E_o = S^(1/2) P_+(D) S^(1/2)`` where ``P_+`` projects onto the
    positive eigenspace. Every pair is a batched eigenvalue problem
    across inputs; each re-split cannot decrease the objective.
    """
    num_outputs = effects.shape[1]
    for o in range(num_outputs):
        for op in range(o + 1, num_outputs):
            combined = symmetrize_batch(effects[:, o] + effects[:, op])
            eigvals, eigvecs = np.linalg.eigh(combined)
            root = np.einsum(
                "bik,bk,bjk->bij",
                eigvecs,
                np.sqrt(eigvals.clip(min=0.0)),
                eigvecs,
            )
            diff = symmetrize_batch(
                root @ (operators[:, o] - operators[:, op]) @ root
            )
            dvals, dvecs = np.linalg.eigh(diff)
            positive = (dvals > 0.0).astype(float)
            projector = np.einsum("bik,bk,bjk->bij", dvecs, positive, dvecs)
            first = symmetrize_batch(root @ projector @ root)
            effects[:, o] = first
            effects[:, op] = combined - first
    return effects


def _optimal_povms(effects: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Maximize ``sum_o Tr(E_o M_o)`` per input, monotonically."""
    if effects.shape[1] == 2:
        return _optimal_binary_split(operators)
    return _pairwise_exchange(effects, operators)


@dataclass(frozen=True)
class _Subscripts:
    """The einsum subscripts of one ``k``-party see-saw, built per call.

    ``carry[p]`` forms ``Q E_rest Q^T`` for party ``p`` and
    ``objective[p]`` contracts it with the game into that party's
    operators; ``win`` weighs the last party's effects by the game and
    joins them with the others' into the win operator; ``behavior``
    reads the joint probabilities off the last party's carried effects.
    ``facing[p]`` orders the state's axes with party ``p``'s first.
    """

    facing: tuple[tuple[int, ...], ...]
    carry: tuple[str, ...]
    objective: tuple[str, ...]
    win: tuple[str, str]
    behavior: str

    @classmethod
    def of(cls, num_parties: int) -> "_Subscripts":
        if num_parties > len(_INPUT_LETTERS):
            raise GameError(
                f"see-saw supports at most {len(_INPUT_LETTERS)} parties, "
                f"got {num_parties}"
            )
        inputs = _INPUT_LETTERS[:num_parties]
        outputs = _OUTPUT_LETTERS[:num_parties]
        table = f"{inputs},{outputs}{inputs}"
        pairs = [x + a for x, a in zip(inputs, outputs)]
        rest = [
            "".join(pairs[:p] + pairs[p + 1 :]) for p in range(num_parties)
        ]
        parties = range(num_parties)
        return cls(
            facing=tuple(
                (p, *(q for q in parties if q != p)) for p in parties
            ),
            carry=tuple(f"ij,{r}jk,kl->{r}il" for r in rest),
            objective=tuple(
                f"{table},{r}kl->{pair}kl" for r, pair in zip(rest, pairs)
            ),
            win=(
                f"{table},{pairs[-1]}kl->{rest[-1]}kl",
                f"{rest[-1]}ij,{rest[-1]}kl->ikjl",
            ),
            behavior=f"{rest[-1]}il,{pairs[-1]}li->{inputs}{outputs}",
        )


def _kron(effects: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of several parties' effects, shape ``(n_1, m_1,
    n_2, m_2, ..., D, D)``; a single party's array is returned as is."""
    joint = effects[0]
    for party in effects[1:]:
        size = joint.shape[-1] * party.shape[-1]
        joint = np.einsum("...ij,xakl->...xaikjl", joint, party).reshape(
            joint.shape[:-2] + party.shape[:2] + (size, size)
        )
    return joint


def _facing(subs: _Subscripts, psi: np.ndarray, party: int) -> np.ndarray:
    """The state tensor as a ``(dim, dim**(k-1))`` matrix, ``party``'s
    axis first."""
    return psi.transpose(subs.facing[party]).reshape(psi.shape[0], -1)


def _win_operator(
    subs: _Subscripts,
    prob: np.ndarray,
    pred: np.ndarray,
    effects: list[np.ndarray],
) -> np.ndarray:
    """``sum prob * pred * (E_1 kron ... kron E_k)`` on the joint space."""
    weighted_last = np.einsum(subs.win[0], prob, pred, effects[-1])
    joint = np.einsum(subs.win[1], _kron(effects[:-1]), weighted_last)
    size = joint.shape[0] * joint.shape[1]
    return joint.reshape(size, size)


def _party_operators(
    subs: _Subscripts,
    prob: np.ndarray,
    pred: np.ndarray,
    psi: np.ndarray,
    effects: list[np.ndarray],
    party: int,
) -> np.ndarray:
    """Objective operators ``M_x^a = sum prob * pred * Q E_rest Q^T`` of
    one party, everything else fixed."""
    facing = _facing(subs, psi, party)
    rest = _kron(effects[:party] + effects[party + 1 :])
    carried = np.einsum(subs.carry[party], facing, rest, facing.T)
    return np.einsum(subs.objective[party], prob, pred, carried)


def _behavior_of(
    subs: _Subscripts,
    psi: np.ndarray,
    effects: list[np.ndarray],
    backend=None,
) -> np.ndarray:
    """Explicit behavior of (state, POVMs), sanitized to a valid one.

    Effects pass through the backend's batched PSD projection to
    scrub eigenvalue-level negativity before probabilities are formed;
    the rows are then clipped and renormalized exactly.
    """
    sanitized = []
    for party in effects:
        n, m, dim, _ = party.shape
        sanitized.append(
            project_psd_batch(
                symmetrize_batch(party).reshape(n * m, dim, dim),
                backend=backend,
            ).reshape(n, m, dim, dim)
        )
    # p(outputs | inputs) = Tr(Q^T E_rest Q E_last) for the last party.
    facing = _facing(subs, psi, len(effects) - 1)
    transported = np.einsum(
        subs.carry[-1], facing, _kron(sanitized[:-1]), facing.T
    )
    behavior = np.einsum(subs.behavior, transported, sanitized[-1])
    behavior = behavior.clip(min=0.0)
    sums = behavior.sum(
        axis=tuple(range(len(effects), behavior.ndim)), keepdims=True
    )
    if (sums <= 0.0).any():
        raise GameError("see-saw produced a degenerate behavior")
    return behavior / sums


def seesaw_lower_bound(
    game: NonlocalGame | MultipartyNonlocalGame,
    *,
    dim: int = 2,
    restarts: int = 5,
    iterations: int = 200,
    tolerance: float = 1e-10,
    seed: int = 0,
    streams: RandomStreams | None = None,
    backend=None,
) -> SeesawResult:
    """Certified lower bound on the quantum value of ``game``.

    Args:
        game: any nonlocal game, two-player or ``k``-party.
        dim: local dimension per party (2 suffices for the qubit
            classics; Magic Square needs 4, a three-path collision game
            3).
        restarts: independent random initializations; the best is kept.
            Restart ``r`` draws from the ``fresh`` substream named
            ``seesaw:{name}:dim={dim}:restart={r}``, so verdicts are
            bit-identical across ``--jobs`` and monotone in
            ``restarts``.
        iterations: sweep cap per restart.
        tolerance: stop a restart when a sweep improves the objective
            by less than this.
        seed: root seed (ignored when ``streams`` is given).
        streams: optional shared :class:`RandomStreams`; lets callers
            tie the see-saw into an existing deterministic sweep.
        backend: array backend (name or instance) for the batched PSD
            sanitization of the final behavior.
    """
    if dim < 2:
        raise GameError("see-saw needs local dimension >= 2")
    if restarts < 1:
        raise GameError("see-saw needs at least one restart")
    if iterations < 1:
        raise GameError("see-saw needs at least one iteration")
    if isinstance(game, NonlocalGame):
        prob, pred = game.prob_mat, game.pred_mat
    else:
        prob, pred = game.prob_tensor, game.pred_tensor
    num_parties = len(game.num_inputs)
    subs = _Subscripts.of(num_parties)
    sizes = [n * m for n, m in zip(game.num_inputs, game.num_outputs)]
    entries = max(
        dim ** (2 * num_parties),
        dim ** (2 * num_parties - 2) * math.prod(sizes) // min(sizes),
    )
    if entries > _OPERATOR_ENTRY_LIMIT:
        raise GameError(
            f"a see-saw on {game.name!r} at dim {dim} would build operator "
            f"stacks of {entries} entries; at most {_OPERATOR_ENTRY_LIMIT} "
            "are supported"
        )
    if streams is None:
        streams = RandomStreams(seed)

    best: tuple[float, np.ndarray, list[np.ndarray], bool] | None = None
    restart_values: list[float] = []
    total_sweeps = 0
    with span(
        "seesaw.optimize",
        game=game.name,
        dim=dim,
        restarts=restarts,
    ):
        for restart in range(restarts):
            rng = streams.fresh(
                f"seesaw:{game.name}:dim={dim}:restart={restart}"
            )
            effects = [
                random_projective_povms(n, m, dim, rng)
                for n, m in zip(game.num_inputs, game.num_outputs)
            ]
            value = -np.inf
            state = None
            converged = False
            for _ in range(iterations):
                total_sweeps += 1
                win = _win_operator(subs, prob, pred, effects)
                eigvals, eigvecs = np.linalg.eigh((win + win.T) / 2.0)
                new_value = float(eigvals[-1])
                state = eigvecs[:, -1]
                psi = state.reshape((dim,) * num_parties)
                for party in reversed(range(num_parties)):
                    effects[party] = _optimal_povms(
                        effects[party],
                        _party_operators(subs, prob, pred, psi, effects, party),
                    )
                if new_value - value < tolerance:
                    value = max(value, new_value)
                    converged = True
                    break
                value = new_value
            restart_values.append(value)
            if best is None or value > best[0]:
                best = (value, state, [e.copy() for e in effects], converged)

    registry = _metrics.get_registry()
    registry.counter("seesaw.restarts").inc(restarts)
    registry.counter("seesaw.iterations").inc(total_sweeps)
    value, state, effects, converged = best
    behavior = _behavior_of(
        subs, state.reshape((dim,) * num_parties), effects, backend=backend
    )
    certified = float(game.value_of_behavior(behavior))
    return SeesawResult(
        value=certified,
        behavior=behavior,
        state=state,
        effects=tuple(effects),
        dim=dim,
        restarts=restarts,
        iterations=total_sweeps,
        converged=converged,
        restart_values=tuple(restart_values),
    )
