"""General (beyond-XOR) nonlocal games in the ``(prob_mat, pred_mat)`` form.

The paper's load balancers only ever play XOR games, but §4.1 notes the
colocation game "extends to more than two players" and the games it
extends *to* are not XOR games in general. This module carries the
toqito-style representation: a joint input distribution ``prob_mat``
of shape ``(nx, ny)`` and a win predicate ``pred_mat`` of shape
``(na, nb, nx, ny)`` (outputs first, matching toqito's convention), so
arbitrary finite input/output alphabets and non-parity win conditions
fit in one object. :class:`XORGame` and :class:`TwoPlayerGame` become
views onto it through the adapters below, and the pseudo-telepathy
classics — the Mermin–Peres Magic Square and the FFL game — live here
with their optimal strategies.

For the multiparty analogue (GHZ/Mermin and the k-party balancer
groups), see :class:`MultipartyNonlocalGame`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import GameError, StrategyError
from repro.games.base import TwoPlayerGame
from repro.games.strategies import BehaviorStrategy
from repro.games.xor import XORGame
from repro.quantum.gates import X as _PAULI_X
from repro.quantum.gates import Y as _PAULI_Y
from repro.quantum.gates import Z as _PAULI_Z
from repro.quantum.linalg import expand_operator

__all__ = [
    "NonlocalGame",
    "MultipartyNonlocalGame",
    "chsh_nonlocal_game",
    "ffl_game",
    "FFL_CLASSICAL_VALUE",
    "magic_square_game",
    "magic_square_optimal_strategy",
    "MAGIC_SQUARE_CLASSICAL_VALUE",
    "multi_class_colocation_game",
    "multiplayer_behavior",
    "tilted_chsh_game",
    "tilted_chsh_classical_value",
    "tilted_chsh_quantum_value",
]

#: The FFL (Fortnow–Feige–Lovász) game's classical *and* quantum value —
#: the canonical example where entanglement does not help.
FFL_CLASSICAL_VALUE = 2.0 / 3.0

#: Classical value of the Mermin–Peres Magic Square game; the quantum
#: value is exactly 1 (pseudo-telepathy).
MAGIC_SQUARE_CLASSICAL_VALUE = 8.0 / 9.0

#: Alice-assignment rows materialized per brute-force chunk of the
#: deterministic-table search (mirrors the XOR brute-force chunking).
_TABLE_CHUNK = 1 << 12

#: Refuse deterministic-table searches beyond this many assignments.
_TABLE_SEARCH_LIMIT = 1 << 24

#: Refuse dense k-party games with more predicate entries than this.
_DENSE_ENTRY_LIMIT = 1 << 22


@dataclass(frozen=True)
class NonlocalGame:
    """A two-party nonlocal game ``(prob_mat, pred_mat)``.

    Attributes:
        name: label used in reports.
        prob_mat: joint input distribution, shape ``(nx, ny)``.
        pred_mat: win predicate ``V(a, b | x, y)`` in ``[0, 1]``, shape
            ``(na, nb, nx, ny)`` — outputs first, inputs last, matching
            the toqito convention so games port over verbatim.
    """

    name: str
    prob_mat: np.ndarray
    pred_mat: np.ndarray

    def __post_init__(self) -> None:
        prob = np.asarray(self.prob_mat, dtype=float)
        pred = np.asarray(self.pred_mat, dtype=float)
        if prob.ndim != 2:
            raise GameError(f"prob_mat must be 2-D, got shape {prob.shape}")
        if pred.ndim != 4:
            raise GameError(
                f"pred_mat must have shape (na, nb, nx, ny), got {pred.shape}"
            )
        if pred.shape[2:] != prob.shape:
            raise GameError(
                f"pred_mat input block {pred.shape[2:]} != prob_mat "
                f"shape {prob.shape}"
            )
        if (prob < -1e-12).any() or abs(prob.sum() - 1.0) > 1e-9:
            raise GameError("prob_mat must be a probability distribution")
        if (pred < -1e-12).any() or (pred > 1.0 + 1e-12).any():
            raise GameError("pred_mat entries must lie in [0, 1]")
        object.__setattr__(self, "prob_mat", prob.clip(min=0.0))
        object.__setattr__(self, "pred_mat", pred.clip(min=0.0, max=1.0))
        self.prob_mat.flags.writeable = False
        self.pred_mat.flags.writeable = False

    # -- shapes ---------------------------------------------------------------

    @property
    def num_inputs(self) -> tuple[int, int]:
        """Input alphabet sizes ``(nx, ny)``."""
        return self.prob_mat.shape

    @property
    def num_outputs(self) -> tuple[int, int]:
        """Output alphabet sizes ``(na, nb)``."""
        return self.pred_mat.shape[:2]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_predicate(
        cls,
        name: str,
        prob_mat: np.ndarray,
        predicate: Callable[[int, int, int, int], bool],
        *,
        num_outputs_a: int = 2,
        num_outputs_b: int = 2,
    ) -> "NonlocalGame":
        """Build a game from a callable ``V(x, y, a, b)`` win condition."""
        prob = np.asarray(prob_mat, dtype=float)
        if prob.ndim != 2:
            raise GameError(f"prob_mat must be 2-D, got shape {prob.shape}")
        nx, ny = prob.shape
        pred = np.zeros((num_outputs_a, num_outputs_b, nx, ny))
        for a in range(num_outputs_a):
            for b in range(num_outputs_b):
                for x in range(nx):
                    for y in range(ny):
                        if predicate(x, y, a, b):
                            pred[a, b, x, y] = 1.0
        return cls(name=name, prob_mat=prob, pred_mat=pred)

    @classmethod
    def from_two_player_game(cls, game: TwoPlayerGame) -> "NonlocalGame":
        """View a predicate-style :class:`TwoPlayerGame` in matrix form."""
        return cls.from_predicate(
            game.name,
            game.distribution,
            game.predicate,
            num_outputs_a=game.num_outputs_a,
            num_outputs_b=game.num_outputs_b,
        )

    @classmethod
    def from_xor_game(cls, game: XORGame) -> "NonlocalGame":
        """View an :class:`XORGame` ``(pi, s)`` in matrix form."""
        nx, ny = game.distribution.shape
        targets = game.targets
        pred = np.zeros((2, 2, nx, ny))
        for a in range(2):
            for b in range(2):
                pred[a, b] = (a ^ b) == targets
        return cls(
            name=game.name, prob_mat=game.distribution, pred_mat=pred
        )

    # -- adapters -------------------------------------------------------------

    def as_xor_game(self) -> XORGame | None:
        """The :class:`XORGame` this game is a view of, or ``None``.

        A game is XOR-representable when both outputs are binary, the
        predicate is 0/1, and for every input pair the win condition
        depends only on ``a XOR b``.
        """
        if self.num_outputs != (2, 2):
            return None
        pred = self.pred_mat
        if not np.isin(pred, (0.0, 1.0)).all():
            return None
        # Same-parity cells must agree, and exactly one parity must win.
        if not (
            (pred[0, 0] == pred[1, 1]).all()
            and (pred[0, 1] == pred[1, 0]).all()
            and (pred[0, 0] != pred[0, 1]).all()
        ):
            return None
        targets = np.where(pred[0, 0] == 1.0, 0, 1)
        return XORGame(
            name=self.name, distribution=self.prob_mat, targets=targets
        )

    def to_xor_game(self) -> XORGame:
        """Like :meth:`as_xor_game` but raising for non-XOR games."""
        xor = self.as_xor_game()
        if xor is None:
            raise GameError(
                f"game {self.name!r} is not XOR-representable: the win "
                "condition does not reduce to a XOR b"
            )
        return xor

    def to_two_player_game(self) -> TwoPlayerGame:
        """View as a predicate-style :class:`TwoPlayerGame`."""
        pred = self.pred_mat
        na, nb = self.num_outputs
        return TwoPlayerGame(
            name=self.name,
            num_inputs_a=self.num_inputs[0],
            num_inputs_b=self.num_inputs[1],
            num_outputs_a=na,
            num_outputs_b=nb,
            distribution=self.prob_mat,
            predicate=lambda x, y, a, b: bool(pred[a, b, x, y] >= 0.5),
        )

    # -- values ---------------------------------------------------------------

    def _score_matrix(self) -> np.ndarray:
        """``w[(x, a), (y, b)] = prob[x, y] * pred[a, b, x, y]`` flattened
        for the one-hot matmul of the deterministic-table search."""
        nx, ny = self.num_inputs
        na, nb = self.num_outputs
        # (a, b, x, y) -> (x, a, y, b)
        w = np.transpose(self.pred_mat, (2, 0, 3, 1)) * self.prob_mat[
            :, None, :, None
        ]
        return w.reshape(nx * na, ny * nb)

    def _assignment_chunks(self):
        """Yield one-hot ``(chunk, nx * na)`` blocks covering every
        deterministic Alice table, plus the table indices they encode."""
        nx, _ = self.num_inputs
        na, _ = self.num_outputs
        total = na**nx
        if total > _TABLE_SEARCH_LIMIT:
            raise GameError(
                f"deterministic-table search over {na}^{nx} Alice "
                "assignments is not tractable"
            )
        powers = na ** np.arange(nx, dtype=np.int64)
        for start in range(0, total, _TABLE_CHUNK):
            stop = min(start + _TABLE_CHUNK, total)
            patterns = np.arange(start, stop, dtype=np.int64)
            digits = (patterns[:, None] // powers) % na
            onehot = np.zeros((stop - start, nx * na))
            rows = np.repeat(np.arange(stop - start), nx)
            cols = (np.arange(nx) * na + digits).ravel()
            onehot[rows, cols] = 1.0
            yield digits, onehot

    def classical_value(self, *, method: str = "auto") -> float:
        """Exact classical value by deterministic-table search.

        For each of Alice's ``na^nx`` deterministic tables, Bob's best
        response decomposes per input ``y``; the tables are enumerated
        as chunked one-hot matrices, one matmul per chunk. Shared
        randomness cannot beat the best deterministic pair (paper §3),
        so this is the classical optimum.

        Args:
            method: ``"auto"`` routes XOR-representable games through
                the vectorized sign-vector search of
                :meth:`XORGame.classical_value` (bit-for-bit the same
                optimum, measured faster); ``"general"`` forces the
                table search; ``"xor"`` forces the XOR path and raises
                for non-XOR games.
        """
        if method not in ("auto", "general", "xor"):
            raise GameError(f"unknown classical_value method {method!r}")
        if method != "general":
            xor = self.as_xor_game()
            if method == "xor" and xor is None:
                raise GameError(
                    f"game {self.name!r} is not XOR-representable"
                )
            if xor is not None:
                return xor.classical_value()
        _, ny = self.num_inputs
        _, nb = self.num_outputs
        w = self._score_matrix()
        best = 0.0
        for _, onehot in self._assignment_chunks():
            values = (onehot @ w).reshape(-1, ny, nb).max(axis=2).sum(axis=1)
            best = max(best, float(values.max()))
        return best

    def best_classical_strategy(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """An optimal deterministic ``(alice, bob)`` table pair.

        The achieved value always equals :meth:`classical_value` exactly
        (same enumeration, same tie-breaking toward the lowest index).
        """
        _, ny = self.num_inputs
        _, nb = self.num_outputs
        w = self._score_matrix()
        best = -1.0
        best_alice: np.ndarray | None = None
        for digits, onehot in self._assignment_chunks():
            scored = (onehot @ w).reshape(-1, ny, nb)
            values = scored.max(axis=2).sum(axis=1)
            index = int(values.argmax())
            if values[index] > best:
                best = float(values[index])
                best_alice = digits[index]
        assert best_alice is not None  # alphabets are non-empty
        nx, _ = self.num_inputs
        na, _ = self.num_outputs
        onehot = np.zeros(nx * na)
        onehot[np.arange(nx) * na + best_alice] = 1.0
        bob = (onehot @ w).reshape(ny, nb).argmax(axis=1)
        return tuple(int(a) for a in best_alice), tuple(int(b) for b in bob)

    def value_of_behavior(self, behavior: np.ndarray) -> float:
        """Win probability of a conditional behavior ``p(a, b | x, y)``,
        shape ``(nx, ny, na, nb)`` (the repo's behavior convention)."""
        nx, ny = self.num_inputs
        na, nb = self.num_outputs
        behavior = np.asarray(behavior, dtype=float)
        if behavior.shape != (nx, ny, na, nb):
            raise GameError(
                f"behavior shape {behavior.shape} != {(nx, ny, na, nb)}"
            )
        weighted = np.transpose(self.pred_mat, (2, 3, 0, 1)) * behavior
        return float(
            (self.prob_mat * weighted.sum(axis=(2, 3))).sum()
        )

    def value_of_strategy(self, strategy) -> float:
        """Exact win probability of any strategy exposing ``behavior()``."""
        return self.value_of_behavior(strategy.behavior())

    def deterministic_value(
        self, assignment_a: Sequence[int], assignment_b: Sequence[int]
    ) -> float:
        """Win probability of a deterministic table pair."""
        nx, ny = self.num_inputs
        if len(assignment_a) != nx or len(assignment_b) != ny:
            raise GameError("assignment lengths must match the input alphabets")
        total = 0.0
        for x in range(nx):
            for y in range(ny):
                total += (
                    self.prob_mat[x, y]
                    * self.pred_mat[assignment_a[x], assignment_b[y], x, y]
                )
        return float(total)

    def __repr__(self) -> str:
        return (
            f"NonlocalGame({self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs})"
        )


# -- the beyond-XOR classics --------------------------------------------------


def chsh_nonlocal_game() -> NonlocalGame:
    """CHSH in ``(prob_mat, pred_mat)`` form: win iff ``a ^ b == x & y``."""
    return NonlocalGame.from_predicate(
        "chsh",
        np.full((2, 2), 0.25),
        lambda x, y, a, b: (a ^ b) == (x & y),
    )


def ffl_game() -> NonlocalGame:
    """The FFL (Fortnow–Feige–Lovász) game.

    Inputs are uniform over ``{00, 01, 10}`` (never both 1); the players
    win when ``a OR x != b OR y``. Classical value 2/3 — and, famously,
    quantum value also 2/3: entanglement does not help, which makes FFL
    the standard control next to the pseudo-telepathy games.
    """
    prob = np.array([[1 / 3, 1 / 3], [1 / 3, 0.0]])
    return NonlocalGame.from_predicate(
        "ffl", prob, lambda x, y, a, b: (a | x) != (b | y)
    )


def _magic_square_observables() -> list[list[np.ndarray]]:
    """The Mermin–Peres square of two-qubit Pauli observables.

    Rows multiply to ``+I``, columns to ``-I``, and every entry is
    transpose-invariant (``Y`` only appears as ``Y (x) Y``), so both
    players can measure the *same* operators on the canonical
    maximally entangled two-ququart state.
    """
    kron = np.kron
    i2 = np.eye(2, dtype=np.complex128)
    return [
        [kron(_PAULI_Z, i2), kron(i2, _PAULI_Z), kron(_PAULI_Z, _PAULI_Z)],
        [kron(i2, _PAULI_X), kron(_PAULI_X, i2), kron(_PAULI_X, _PAULI_X)],
        [
            -kron(_PAULI_Z, _PAULI_X),
            -kron(_PAULI_X, _PAULI_Z),
            kron(_PAULI_Y, _PAULI_Y),
        ],
    ]


def _parity_bits(index: int, parity: int) -> tuple[int, int, int]:
    """Decode an output index into the 3-bit cell row it encodes.

    The first two bits are the index's bits; the third is forced by the
    parity constraint (Alice's rows are even, Bob's columns odd).
    """
    b0, b1 = (index >> 1) & 1, index & 1
    return b0, b1, (b0 ^ b1) ^ parity


def magic_square_game() -> NonlocalGame:
    """The Mermin–Peres Magic Square game.

    Alice receives a row ``x``, Bob a column ``y`` (uniform over the 9
    pairs). Alice returns one of the 4 even-parity 3-bit fillings of her
    row, Bob one of the 4 odd-parity fillings of his column, and they
    win when the shared cell ``(x, y)`` agrees. Classical value 8/9;
    measuring the Pauli square on two shared Bell pairs wins always
    (pseudo-telepathy).
    """

    def predicate(x: int, y: int, a: int, b: int) -> bool:
        return _parity_bits(a, 0)[y] == _parity_bits(b, 1)[x]

    return NonlocalGame.from_predicate(
        "magic-square",
        np.full((3, 3), 1.0 / 9.0),
        predicate,
        num_outputs_a=4,
        num_outputs_b=4,
    )


def _joint_projectors(
    first: np.ndarray, second: np.ndarray
) -> list[np.ndarray]:
    """Projectors of the 4 joint outcomes of two commuting ±1 observables,
    indexed by the 2-bit outcome (bit = 1 for the −1 eigenspace)."""
    eye = np.eye(first.shape[0], dtype=np.complex128)
    out = []
    for index in range(4):
        s0 = 1.0 - 2.0 * ((index >> 1) & 1)
        s1 = 1.0 - 2.0 * (index & 1)
        out.append((eye + s0 * first) / 2.0 @ ((eye + s1 * second) / 2.0))
    return out


def magic_square_optimal_strategy() -> BehaviorStrategy:
    """The perfect Magic Square strategy as an exact behavior.

    Alice and Bob share two Bell pairs — equivalently the canonical
    maximally entangled state ``(1/2) sum_k |k>|k>`` of two ququarts —
    and each measures the joint eigenbasis of their row's (column's)
    first two commuting square entries; the third outcome bit is fixed
    by the row/column parity. The returned strategy's behavior wins
    :func:`magic_square_game` with probability exactly 1.
    """
    dim = 4
    psi = np.zeros(dim * dim, dtype=np.complex128)
    for k in range(dim):
        psi[k * dim + k] = 0.5
    rho = np.outer(psi, psi.conj())
    square = _magic_square_observables()

    def expanded(projectors, targets):
        return [expand_operator(p, targets, 4) for p in projectors]

    behavior = np.zeros((3, 3, 4, 4))
    for x in range(3):
        alice = expanded(
            _joint_projectors(square[x][0], square[x][1]), [0, 1]
        )
        for y in range(3):
            bob = expanded(
                _joint_projectors(square[0][y], square[1][y]), [2, 3]
            )
            for a in range(4):
                for b in range(4):
                    behavior[x, y, a, b] = float(
                        np.real(np.trace(rho @ alice[a] @ bob[b]))
                    )
    return BehaviorStrategy(behavior)


def multi_class_colocation_game(num_classes: int) -> NonlocalGame:
    """The colocation game over ``num_classes`` task classes.

    Class 0 is type-E; classes ``1..C-1`` are mutually incompatible
    type-C subtypes (the §4.1 caveat). Paired balancers win when they
    colocate (equal outputs) exactly on matching type-C subtypes and
    separate otherwise. For ``num_classes=2`` this is precisely the
    CHSH colocation game (classical value 3/4). The win condition
    depends only on ``a XOR b``, so :meth:`NonlocalGame.as_xor_game`
    applies and the whole XOR machinery (Tsirelson SDP, alternating
    ascent) carries over to the multi-class workload.
    """
    if num_classes < 2:
        raise GameError("need at least two task classes")
    prob = np.full((num_classes, num_classes), 1.0 / num_classes**2)
    return NonlocalGame.from_predicate(
        f"colocation-{num_classes}class",
        prob,
        lambda x, y, a, b: (a ^ b) == (0 if (x == y and x >= 1) else 1),
    )


def tilted_chsh_game(beta: float) -> NonlocalGame:
    """The tilted CHSH family (Acín–Massar–Pironio) as a nonlocal game.

    The Bell functional ``I_beta = beta <A_0> + <A_0 B_0> + <A_0 B_1> +
    <A_1 B_0> - <A_1 B_1>`` has classical maximum ``2 + beta`` and
    quantum maximum ``sqrt(8 + 2 beta^2)`` for ``0 <= beta < 2``.
    Rescaling into a win probability with fractional predicate values::

        V(a, b | x, y) = (1 + (s_xy (-1)^(a+b)
                          + (beta/2) [x == 0] (-1)^a) / (1 + beta/2)) / 2

    over uniform inputs (``s_xy = -1`` only at ``x = y = 1``) gives
    game value ``1/2 + I_beta / (8 (1 + beta/2))`` for any
    no-signaling behavior. ``beta = 0`` recovers plain CHSH; the
    marginal term makes the game non-XOR-representable for
    ``beta > 0``, so it exercises the see-saw/NPA path with
    family-closed-form cross-checks (:func:`tilted_chsh_classical_value`,
    :func:`tilted_chsh_quantum_value`).
    """
    if not 0.0 <= beta < 2.0:
        raise GameError("tilted CHSH requires 0 <= beta < 2")
    scale = 1.0 + beta / 2.0
    pred = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            sign_xy = -1.0 if x == 1 and y == 1 else 1.0
            for a in range(2):
                for b in range(2):
                    correlator = sign_xy * (-1.0) ** (a + b)
                    marginal = (beta / 2.0) * (-1.0) ** a if x == 0 else 0.0
                    pred[a, b, x, y] = (
                        1.0 + (correlator + marginal) / scale
                    ) / 2.0
    return NonlocalGame(
        name=f"tilted-chsh-{beta:g}",
        prob_mat=np.full((2, 2), 0.25),
        pred_mat=pred,
    )


def tilted_chsh_classical_value(beta: float) -> float:
    """Closed-form classical value of :func:`tilted_chsh_game`."""
    return 0.5 + (2.0 + beta) / (8.0 * (1.0 + beta / 2.0))


def tilted_chsh_quantum_value(beta: float) -> float:
    """Closed-form quantum value of :func:`tilted_chsh_game`."""
    return 0.5 + math.sqrt(8.0 + 2.0 * beta**2) / (8.0 * (1.0 + beta / 2.0))


# -- multiparty games ---------------------------------------------------------


@dataclass(frozen=True)
class MultipartyNonlocalGame:
    """A ``k``-party nonlocal game in dense tensor form.

    Attributes:
        name: label used in reports.
        prob_tensor: joint input distribution over the ``k`` input
            alphabets, shape ``(n_1, ..., n_k)``.
        pred_tensor: win predicate, shape ``(m_1, ..., m_k, n_1, ...,
            n_k)`` — the ``k`` output axes first, then the ``k`` input
            axes (the same outputs-first convention as
            :class:`NonlocalGame`).
    """

    name: str
    prob_tensor: np.ndarray
    pred_tensor: np.ndarray

    def __post_init__(self) -> None:
        prob = np.asarray(self.prob_tensor, dtype=float)
        pred = np.asarray(self.pred_tensor, dtype=float)
        k = prob.ndim
        if k < 2:
            raise GameError("need at least two parties")
        if pred.ndim != 2 * k:
            raise GameError(
                f"pred_tensor must have {2 * k} axes (outputs then "
                f"inputs), got {pred.ndim}"
            )
        if pred.shape[k:] != prob.shape:
            raise GameError(
                f"pred_tensor input block {pred.shape[k:]} != prob_tensor "
                f"shape {prob.shape}"
            )
        self.check_size(prob.shape, pred.shape[:k])
        if (prob < -1e-12).any() or abs(prob.sum() - 1.0) > 1e-9:
            raise GameError("prob_tensor must be a probability distribution")
        if (pred < -1e-12).any() or (pred > 1.0 + 1e-12).any():
            raise GameError("pred_tensor entries must lie in [0, 1]")
        object.__setattr__(self, "prob_tensor", prob.clip(min=0.0))
        object.__setattr__(self, "pred_tensor", pred.clip(min=0.0, max=1.0))
        self.prob_tensor.flags.writeable = False
        self.pred_tensor.flags.writeable = False

    @property
    def num_players(self) -> int:
        """Number of parties."""
        return self.prob_tensor.ndim

    @property
    def num_inputs(self) -> tuple[int, ...]:
        """Per-player input alphabet sizes."""
        return self.prob_tensor.shape

    @property
    def num_outputs(self) -> tuple[int, ...]:
        """Per-player output alphabet sizes."""
        return self.pred_tensor.shape[: self.num_players]

    @staticmethod
    def check_size(
        num_inputs: Sequence[int], num_outputs: Sequence[int]
    ) -> None:
        """Raise :class:`GameError` when a game over these alphabets
        would hold more than ``2**22`` predicate entries.

        Constructors call it before they allocate, so an oversized
        request (a Mermin game of ``n`` players has ``4**n`` entries)
        fails at once instead of exhausting memory.
        """
        entries = math.prod(num_inputs) * math.prod(num_outputs)
        if entries > _DENSE_ENTRY_LIMIT:
            raise GameError(
                f"a dense {len(num_inputs)}-party game would hold {entries} "
                f"predicate entries; at most {_DENSE_ENTRY_LIMIT} are "
                "supported"
            )

    # -- values ---------------------------------------------------------------

    def _iter_fixed_tables(self):
        """Every joint deterministic table of players ``0..k-2``."""
        k = self.num_players
        spaces = [
            list(
                itertools.product(
                    range(self.num_outputs[p]), repeat=self.num_inputs[p]
                )
            )
            for p in range(k - 1)
        ]
        total = math.prod(len(s) for s in spaces)
        if total > _TABLE_SEARCH_LIMIT:
            raise GameError(
                "deterministic-table search over "
                f"{total} leading-player assignments is not tractable"
            )
        return itertools.product(*spaces)

    def _last_player_scores(self, tables) -> np.ndarray:
        """``score[z, o]`` for the last player given the fixed tables."""
        k = self.num_players
        n_last, m_last = self.num_inputs[-1], self.num_outputs[-1]
        score = np.zeros((n_last, m_last))
        for inp in np.ndindex(*self.num_inputs):
            weight = self.prob_tensor[inp]
            if weight == 0.0:
                continue
            outs = tuple(tables[p][inp[p]] for p in range(k - 1))
            for o in range(m_last):
                score[inp[-1], o] += (
                    weight * self.pred_tensor[outs + (o,) + inp]
                )
        return score

    def _best_tables(self) -> tuple[float, tuple[tuple[int, ...], ...]]:
        """The deterministic-table search: the best value, and the first
        joint table in enumeration order that achieves it."""
        best = -1.0
        best_tables: tuple[tuple[int, ...], ...] | None = None
        for tables in self._iter_fixed_tables():
            score = self._last_player_scores(tables)
            value = float(score.max(axis=1).sum())
            if value > best:
                best = value
                last = tuple(int(o) for o in score.argmax(axis=1))
                best_tables = tuple(tables) + (last,)
        assert best_tables is not None  # alphabets are non-empty
        return best, best_tables

    def classical_value(self) -> float:
        """Exact classical value by deterministic-table search.

        Enumerates joint tables for the first ``k - 1`` players; the
        last player's best response decomposes per input symbol.
        Exponential in the leading players' alphabet sizes — fine for
        the games studied here (Mermin up to ``n = 6`` takes ~0.2 s, a
        five-switch three-path collision game ~0.5 s).
        """
        return self._best_tables()[0]

    def best_classical_strategy(self) -> tuple[tuple[int, ...], ...]:
        """An optimal deterministic table per player.

        The returned tuple has one output table per player (entry ``i``
        is the output on input symbol ``i``); the achieved value equals
        :meth:`classical_value` exactly.
        """
        return self._best_tables()[1]

    def deterministic_value(
        self, tables: Sequence[Sequence[int]]
    ) -> float:
        """Win probability of one deterministic table per player."""
        if len(tables) != self.num_players:
            raise GameError("need one table per player")
        total = 0.0
        for inp in np.ndindex(*self.num_inputs):
            weight = self.prob_tensor[inp]
            if weight == 0.0:
                continue
            outs = tuple(tables[p][inp[p]] for p in range(self.num_players))
            total += weight * self.pred_tensor[outs + inp]
        return float(total)

    def value_of_behavior(self, behavior: np.ndarray) -> float:
        """Win probability of a behavior ``p(outputs | inputs)``, shape
        ``num_inputs + num_outputs`` (inputs first — the sampling-table
        convention of :func:`repro.lb.policies.behavior_sampling_tables`)."""
        k = self.num_players
        expected = self.num_inputs + self.num_outputs
        behavior = np.asarray(behavior, dtype=float)
        if behavior.shape != expected:
            raise GameError(
                f"behavior shape {behavior.shape} != {expected}"
            )
        # (outputs, inputs) -> (inputs, outputs)
        pred = np.transpose(
            self.pred_tensor, tuple(range(k, 2 * k)) + tuple(range(k))
        )
        wins = (pred * behavior).sum(axis=tuple(range(k, 2 * k)))
        return float((self.prob_tensor * wins).sum())

    def value_of_strategy(self, strategy) -> float:
        """Exact win probability of a k-party strategy exposing
        ``behavior()`` (e.g. a
        :class:`~repro.games.multiplayer.MultiplayerQuantumStrategy`)."""
        return self.value_of_behavior(strategy.behavior())

    def __repr__(self) -> str:
        return (
            f"MultipartyNonlocalGame({self.name!r}, "
            f"inputs={self.num_inputs}, outputs={self.num_outputs})"
        )


def multiplayer_behavior(strategy, alphabets: Sequence[int]) -> np.ndarray:
    """Dense behavior tensor of a k-party strategy over integer inputs.

    ``alphabets`` gives the per-player input alphabet size; inputs are
    the integers ``0..n_p - 1``. The result has shape
    ``tuple(alphabets) + (2,) * k`` — inputs first, then one binary
    output axis per player — ready for
    :func:`repro.lb.policies.behavior_sampling_tables`.
    """
    k = strategy.num_players
    if len(alphabets) != k:
        raise StrategyError(
            f"{len(alphabets)} alphabets for {k} players"
        )
    in_shape = tuple(int(n) for n in alphabets)
    if any(n < 1 for n in in_shape):
        raise StrategyError("input alphabets must be non-empty")
    out = np.zeros(in_shape + (2,) * k)
    for inputs in np.ndindex(*in_shape):
        out[inputs] = strategy.joint_distribution(inputs)
    return out
