"""Assignment policies for the Fig 4 timestep simulation.

A policy maps a chunk of timesteps' tasks — a ``(steps, N)`` integer
matrix, one column per load balancer, 0 for type-E and nonzero for a
type-C class — to a matrix of server choices (:meth:`AssignmentPolicy
.assign_batch`). That one mapping serves both engines of
:func:`repro.lb.simulation.run_timestep_simulation`, so a policy draws
the same numbers whichever engine runs it. The no-communication
constraint of the paper is enforced structurally: each balancer's choice
depends only on its *own* task, pre-agreed shared randomness (the
per-round server-pair draw), and — for the quantum policies — the
outcome of measuring its share of a pre-distributed entangled state.

Policies:

- :class:`RandomAssignment` — the paper's classical baseline.
- :class:`RoundRobinAssignment` — classical, per-balancer rotation.
- :class:`PowerOfTwoAssignment` — classical, queue-length feedback
  (strictly more information than the paper's setting allows; included
  as an informed reference point).
- :class:`DedicatedPoolAssignment` — the §4.1 caveat's hybrid: a server
  pool reserved for type-C tasks.
- :class:`GroupAssignment` — the one correlated-routing policy: groups
  of ``k >= 2`` balancers (pairs included) driven by any binary-output
  strategy's exact behavior. Its subclasses fix the strategy:

  - :class:`CHSHPairedAssignment` — the paper's quantum policy: pairs
    measure shared (possibly noisy) Bell pairs with the CHSH angles.
  - :class:`ClassicalPairedAssignment` — pairs playing the best
    *classical* colocation strategy with shared randomness, and
    :class:`SameTypePairedAssignment`, the other optimal classical point.
  - :class:`MultiClassPairedAssignment` — pairs playing the multi-class
    colocation game (>2 task classes, §4.1 caveat), quantum or classical.
  - :class:`GHZGroupAssignment`, :class:`WGroupAssignment`,
    :class:`ClassicalGroupAssignment` — ``k``-party groups sharing GHZ/W
    states or classical Mermin tables.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro._blocks import block_rows, uniform_blocks
from repro.errors import ConfigurationError, StrategyError
from repro.games.chsh import (
    colocation_classical_strategy,
    colocation_quantum_strategy,
)
from repro.games.strategies import DeterministicStrategy
from repro.quantum.state import DensityMatrix, StateVector

__all__ = [
    "AssignmentPolicy",
    "behavior_sampling_tables",
    "RandomAssignment",
    "RoundRobinAssignment",
    "PowerOfTwoAssignment",
    "DedicatedPoolAssignment",
    "GroupAssignment",
    "ClassicalPairedAssignment",
    "SameTypePairedAssignment",
    "CHSHPairedAssignment",
    "MultiClassPairedAssignment",
    "GHZGroupAssignment",
    "WGroupAssignment",
    "ClassicalGroupAssignment",
]


class AssignmentPolicy:
    """Interface: map a chunk of timesteps' tasks to server indices."""

    def __init__(self, num_balancers: int, num_servers: int) -> None:
        if num_balancers < 1:
            raise ConfigurationError("need at least one balancer")
        if num_servers < 1:
            raise ConfigurationError("need at least one server")
        self.num_balancers = num_balancers
        self.num_servers = num_servers

    def assign_batch(
        self, tasks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Map a ``(steps, N)`` integer task matrix (``TaskType.bit``
        encoding, or game inputs for subtype workloads) to a ``(steps,
        N)`` server-index matrix.

        Row ``t`` holds step ``t``'s tasks, and a balancer's choice must
        not read another balancer's task except through the structured
        group protocols. Implementations draw all their randomness from
        ``rng``. Both engines call this once per chunk; a policy that
        reads queue feedback is called with one-step chunks, so it sees
        the queues after every step.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no batched assignment"
        )

    def observe_queues(self, queue_lengths: Sequence[int]) -> None:
        """Feedback hook; most policies ignore it."""

    def needs_queue_feedback(self) -> bool:
        """Whether :meth:`observe_queues` is overridden (feedback policy)."""
        return type(self).observe_queues is not AssignmentPolicy.observe_queues

    def _check_batch(self, tasks: np.ndarray) -> np.ndarray:
        tasks = np.asarray(tasks)
        if tasks.ndim != 2 or tasks.shape[1] != self.num_balancers:
            raise ConfigurationError(
                f"task matrix shape {tasks.shape} does not cover "
                f"{self.num_balancers} balancers"
            )
        return tasks


class RandomAssignment(AssignmentPolicy):
    """Each balancer picks a uniformly random server (paper baseline)."""

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        # One bounded-integer fill consumes the bit stream exactly like
        # one fill per step, so the choices do not depend on the chunk
        # size. An int32 draw gives the int64 draw's values and leaves
        # the generator in the same state (below 2**31 servers).
        return rng.integers(
            0, self.num_servers, size=tasks.shape, dtype=np.int32
        )


class RoundRobinAssignment(AssignmentPolicy):
    """Each balancer cycles through servers from a random start offset."""

    def __init__(self, num_balancers: int, num_servers: int) -> None:
        super().__init__(num_balancers, num_servers)
        self._next = None

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        steps = tasks.shape[0]
        if self._next is None:
            self._next = rng.integers(0, self.num_servers, size=self.num_balancers)
        # Deterministic after the start-offset draw, so the choices do
        # not depend on the chunk size. Both terms lie below M, so their
        # int32 sum is exact below 2**30 servers.
        offset = (np.arange(steps) % self.num_servers).astype(np.int32)
        choices = np.add.outer(offset, self._next.astype(np.int32))
        choices %= self.num_servers
        self._next = (self._next + steps) % self.num_servers
        return choices


class PowerOfTwoAssignment(AssignmentPolicy):
    """Sample two servers, pick the one with the shorter observed queue.

    Queue observations arrive via :meth:`observe_queues` at the end of
    each timestep, so choices use slightly stale state — the standard
    power-of-two-choices setup [44]. The engines hand it one-step
    chunks; every row of a longer chunk would read the same
    observation.
    """

    def __init__(self, num_balancers: int, num_servers: int) -> None:
        super().__init__(num_balancers, num_servers)
        self._queues = np.zeros(num_servers)

    def observe_queues(self, queue_lengths):
        if len(queue_lengths) != self.num_servers:
            raise ConfigurationError("queue observation size mismatch")
        self._queues = np.asarray(queue_lengths, dtype=float)

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        m = self.num_servers
        first = rng.integers(0, m, size=tasks.shape, dtype=np.int32)
        second = rng.integers(0, m, size=tasks.shape, dtype=np.int32)
        return np.where(
            self._queues[first] <= self._queues[second], first, second
        )


class DedicatedPoolAssignment(AssignmentPolicy):
    """Reserve a fraction of servers for type-C tasks (§4.1 caveat).

    Type-C goes uniformly into the pool; type-E uniformly into the rest.
    Breaks down when type-C has incompatible subtypes — the pool mixes
    them (see the hybrid ablation bench).
    """

    def __init__(
        self, num_balancers: int, num_servers: int, pool_fraction: float = 0.5
    ) -> None:
        super().__init__(num_balancers, num_servers)
        if num_servers < 2:
            # With one server there is no room for both a pool and a
            # remainder: assign_batch() would emit the invalid server
            # index 1. Reject at construction.
            raise ConfigurationError(
                "DedicatedPoolAssignment needs >= 2 servers (one for the "
                "type-C pool, one for the remainder)"
            )
        if not 0.0 < pool_fraction < 1.0:
            raise ConfigurationError(
                f"pool_fraction {pool_fraction} must be in (0, 1)"
            )
        self.pool_size = max(1, min(num_servers - 1, round(num_servers * pool_fraction)))

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        # One uniform draw per task, scaled into the pool for type-C
        # (nonzero input) and into the remainder for type-E, a block of
        # steps at a time.
        pool = self.pool_size
        choices = np.empty(tasks.shape, dtype=np.int32)
        for part, uniform in uniform_blocks(rng, *tasks.shape):
            choices[part] = np.where(
                tasks[part] != 0,
                (uniform * pool).astype(np.int32),
                (uniform * (self.num_servers - pool)).astype(np.int32) + pool,
            )
        return choices


@functools.cache
def _constant_behavior(build, *args) -> np.ndarray:
    """The behavior tensor ``build(*args)``, built once per process and
    read-only.

    A sweep builds its policy afresh at every point, and a constant
    strategy can cost more to build than a small point costs to
    simulate: the Bell pair's measurement statistics, a Tsirelson solve
    for the multi-class pairs, a brute force over the Mermin tables for
    the classical groups. Policies on a caller's (noisy) state still
    build theirs per construction. Read-only, so no policy can change
    what the others sample from.
    """
    behavior = np.array(build(*args), dtype=float)
    behavior.setflags(write=False)
    return behavior


def _bell_pair_behavior() -> np.ndarray:
    return colocation_quantum_strategy().behavior()


def _best_classical_colocation_behavior() -> np.ndarray:
    return colocation_classical_strategy().behavior()


def _same_type_behavior() -> np.ndarray:
    return DeterministicStrategy(
        outputs_a=(1, 0), outputs_b=(1, 0)
    ).behavior()


def _multi_class_behavior(num_classes: int, mode: str) -> np.ndarray:
    from repro.games.nonlocal_games import multi_class_colocation_game

    game = multi_class_colocation_game(num_classes)
    if mode == "quantum":
        from repro.games.quantum_value import tsirelson_strategy

        return tsirelson_strategy(game.to_xor_game()).behavior()
    alice, bob = game.best_classical_strategy()
    return DeterministicStrategy(outputs_a=alice, outputs_b=bob).behavior()


def _mermin_behavior(group_size: int) -> np.ndarray:
    from repro.games.multiplayer import mermin_optimal_strategy

    return mermin_optimal_strategy(group_size).behavior()


def _w_state_behavior(group_size: int) -> np.ndarray:
    from repro.games.multiplayer import (
        MultiplayerQuantumStrategy,
        mermin_optimal_strategy,
    )
    from repro.quantum.entangle import w_state

    bases = mermin_optimal_strategy(group_size)._bases
    return MultiplayerQuantumStrategy(w_state(group_size), bases).behavior()


def _mermin_classical_behavior(group_size: int) -> np.ndarray:
    from repro.games.multiplayer import mermin_game

    game = mermin_game(group_size)
    tables = game.best_classical_strategy()
    behavior = np.zeros((2,) * (2 * group_size))
    for inputs in np.ndindex(*game.num_inputs):
        outputs = tuple(tables[p][inputs[p]] for p in range(group_size))
        behavior[inputs + outputs] = 1.0
    return behavior


def behavior_sampling_tables(
    behavior: np.ndarray,
) -> tuple[tuple[int, ...], np.ndarray]:
    """Precompute Born-sampling tables for a binary-output behavior.

    ``behavior`` holds ``p(outputs | inputs)`` for a ``k``-party
    strategy as a tensor of ``k`` input axes followed by ``k`` binary
    output axes — ``(nx, ny, 2, 2)`` for the paired policies,
    ``(n_1, ..., n_k) + (2,) * k`` for the group policies.

    Returns ``(num_inputs, flat_cumulative)``. ``flat_cumulative``
    holds, for each input block in C order, the cumulative sum over the
    ``2**k`` joint outputs (output tuples in C order, so player 0 owns
    the most significant outcome bit), with block ``i``'s entries
    offset by ``i``, so :func:`born_outcomes` resolves all groups at
    once from ``block + u``. Clipping each block at its offset + 1 keeps
    the flat table sorted even when float error pushes a cumsum above 1.

    Shared by :class:`GroupAssignment` and the degraded policies in
    :mod:`repro.lb.degradation`, which sample from two tables (live
    quantum vs classical fallback) behind one interface.
    """
    behavior = np.asarray(behavior, dtype=float)
    if behavior.ndim < 4 or behavior.ndim % 2 != 0:
        raise StrategyError(
            "behavior must have k input axes then k output axes "
            f"(k >= 2), got {behavior.ndim} axes"
        )
    num_players = behavior.ndim // 2
    if behavior.shape[num_players:] != (2,) * num_players:
        raise StrategyError(
            "correlated-assignment policies need binary-output strategies"
        )
    num_inputs = behavior.shape[:num_players]
    width = 1 << num_players
    cumulative = behavior.reshape(num_inputs + (width,)).cumsum(axis=-1)
    num_blocks = int(np.prod(num_inputs))
    flat_cumulative = (
        np.arange(num_blocks)[:, None]
        + np.minimum(cumulative.reshape(num_blocks, width), 1.0)
    ).ravel()
    return num_inputs, flat_cumulative


def born_outcomes(flat_cumulative, width, block, uniform, row=None):
    """Born-rule outcome indices of a batch of draws, branch-free.

    ``flat_cumulative`` is a table from :func:`behavior_sampling_tables`
    with ``width`` (``2**k``) entries per input block, ``block`` the
    flat input index of each draw and ``uniform`` its ``[0, 1)``
    double. Returns, element for element and in ``block``'s dtype, the
    right-bisect outcome::

        min(searchsorted(flat, block + uniform, "right") - width * block,
            width - 1)

    without the bisect: with ``value = block + uniform``, ``outcome``
    starts at 0 and each step ``s = width/2, ..., 1`` adds ``s`` when
    ``value >= flat[width * block + outcome + s - 1]``. For pairs
    (``width == 4``) the two probes are the two outcome bits:
    ``a = value >= flat[4b + 1]``, then ``b = value >= flat[4b + 2a]``.

    Why the two agree, for a table of nonnegative behaviors (so each
    block's entries are sorted):

    - Block ``b``'s entries are ``b + min(c, 1)`` for its cumsums ``c``,
      so they lie in ``[b, b + 1]``. ``value`` lies in ``[b, b + 1]``
      too: float addition is monotone and ``b``, ``b + 1`` are exact
      (the sum may round up to ``b + 1``).
    - Every entry of an earlier block ``b' < b`` is at most
      ``b' + 1 <= b <= value``, so earlier blocks add exactly
      ``width * b`` to the bisect.
    - Every entry of a later block is at least ``b + 1``, so it counts
      only when ``value == b + 1``. Block ``b``'s own last entry (at
      most ``b + 1``) then counts too, the in-block count is already
      ``width``, and the ``min`` clips to ``width - 1`` either way.
    - What is left is ``min(n, width - 1)``, with ``n`` the number of
      block ``b``'s sorted entries ``<= value``. The descent counts
      exactly the block's first ``width - 1`` entries ``<= value``,
      which is that minimum.

    Each probe is the bisect's own float test ``entry <= value``, so
    the result is exact, not approximate.

    ``row`` (default ``block``) names the table block each draw reads
    and must hold ``flat_cumulative.size`` in its dtype. A caller that
    picks per draw between tables of one shape passes their
    concatenation and ``row = block + table * num_blocks``: each draw
    then reads its own table's block ``block``, and the argument above
    holds per table.
    """
    value = block + uniform
    base = width * (block if row is None else row)
    outcome = np.zeros_like(base)
    step = width // 2
    while step:
        entry = flat_cumulative.take(base + outcome + (step - 1))
        outcome += (value >= entry) * base.dtype.type(step)
        step //= 2
    return outcome


def _input_blocks(tasks, num_inputs, num_groups, dtype):
    """The flat input block of every group of every step, in ``dtype``.

    Group ``g`` is balancers ``g*k .. g*k + k - 1`` with ``k =
    len(num_inputs)``; its block is the C-order index of the members'
    inputs. Raises :class:`StrategyError` when an input lies outside
    the strategy's alphabet.
    """
    k = len(num_inputs)
    block = None
    for j, size in enumerate(num_inputs):
        inputs = tasks[:, j : k * num_groups : k]
        if inputs.size and (inputs.min() < 0 or inputs.max() >= size):
            raise StrategyError("task inputs outside the strategy's alphabet")
        inputs = inputs.astype(dtype, copy=False)
        block = inputs if block is None else block * size + inputs
    return block


def _server_pairs(num_servers, shape, rng):
    """Shared-randomness ``(s0, s1)`` draws of two distinct servers, int32."""
    s0 = rng.integers(0, num_servers, size=shape, dtype=np.int32)
    s1 = rng.integers(0, num_servers - 1, size=shape, dtype=np.int32)
    s1 += s1 >= s0
    return s0, s1


def _route_members(choices, outcome, k, s0, s1):
    """Write each group's server choices: member ``j`` of every group
    routes to ``s1`` when outcome bit ``k-1-j`` is set (C-order output
    tuples, player 0 most significant), else to ``s0``.

    Computed as ``s0 + bit * (s1 - s0)``, which is exact in integers and
    has no data-dependent branch (``np.where`` on random bits does).
    """
    num_groups = outcome.shape[1]
    spread = s1 - s0
    for j in range(k):
        bit = (outcome >> (k - 1 - j)) & 1
        choices[:, j : k * num_groups : k] = s0 + bit * spread


def _sample_routes(choices, table, k, block, rng, s0, s1, live=None):
    """Draw every group's uniform, Born-sample its outcome and route its
    members.

    The ``(steps, groups)`` uniforms (:func:`~repro._blocks
    .uniform_blocks`), :func:`born_outcomes` and :func:`_route_members`
    walk the chunk in blocks of steps of at most
    :data:`~repro._blocks.SCAN_BLOCK_CELLS` choice cells each, so the
    uniforms and temporaries take O(block) memory; only the input
    ``block`` indices, ``s0``, ``s1``, ``live`` and the choices are
    chunk-wide. The blocks draw the uniforms of one whole-chunk draw, and
    both passes are elementwise, so the choices equal one whole-chunk
    pass bit for bit.

    ``table`` holds ``2**k`` entries per input block. With ``live``, it
    stacks two tables of one shape, and a group whose ``live`` entry is
    false reads the second: its row is ``block`` plus the first table's
    number of blocks.
    """
    width = 1 << k
    steps, num_groups = block.shape
    rows = block_rows(choices.shape[1])
    for part, uniform in uniform_blocks(rng, steps, num_groups, rows):
        row = None
        if live is not None:
            dead_row = block[part] + table.size // (2 * width)
            row = np.where(live[part], block[part], dead_row)
        outcome = born_outcomes(table, width, block[part], uniform, row)
        _route_members(choices[part], outcome, k, s0[part], s1[part])


class GroupAssignment(AssignmentPolicy):
    """Balancer groups of ``k >= 2`` playing a binary-output strategy.

    The one correlated-routing policy: the paper's Bell pairs (§4.1) are
    its groups of two, and shared ``k``-partite states (§4.1's "extends
    to more than two players", probing the §4.2 ECMP conjecture) its
    larger groups. Each round, consecutive balancers ``(gk, ..., gk + k
    - 1)`` form a group; the group draws two distinct servers ``(s0,
    s1)`` from shared randomness, samples a joint output tuple from the
    strategy's exact behavior on the members' task-derived inputs, and
    member ``i`` routes to ``s[bit_i]``. For a pair, equal outputs
    colocate the two tasks and differing outputs separate them.
    Leftover balancers (``N mod k``) route uniformly at random.

    ``strategy`` is any binary-output strategy exposing ``behavior()``
    (a two-player strategy, a
    :class:`~repro.games.multiplayer.MultiplayerQuantumStrategy`) or its
    behavior tensor: ``k`` input axes then ``k`` binary output axes (see
    :func:`behavior_sampling_tables`), which fix ``k``. The exact
    behavior is precomputed, so quantum strategies sample their true
    Born-rule statistics without re-simulating state collapse per round
    (tests confirm equivalence to the explicit
    :class:`~repro.quantum.measurement.EntangledRegister` path).

    Server-pair selection (DESIGN.md ablation): by default each group
    draws a fresh server pair every round; with ``sticky_servers`` it
    keeps its first draw forever, concentrating its load.

    :meth:`assign_batch` draws a ``(steps, groups)`` matrix of ``s0``,
    then of ``s1``, then the uniforms of a ``(steps, groups)`` matrix (a
    block of steps at a time), and then the leftover balancers' servers.
    It resolves every group of every timestep with :func:`born_outcomes`
    (``k`` branch-free probes into each group's own block of the flat
    cumulative table, equal to a bisect of the group's cumulative row),
    a block of steps at a time, and returns int32 server choices.
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        strategy,
        *,
        sticky_servers: bool = False,
    ) -> None:
        super().__init__(num_balancers, num_servers)
        if num_servers < 2:
            raise ConfigurationError("group policies need >= 2 servers")
        if not isinstance(strategy, np.ndarray):
            strategy = strategy.behavior()
        self._behavior = strategy
        self._num_inputs, self._flat_cumulative = behavior_sampling_tables(
            strategy
        )
        self.group_size = len(self._num_inputs)
        self._sticky = sticky_servers
        self._sticky_servers: dict[int, tuple[int, int]] = {}

    def _server_pair_batch(
        self, steps: int, num_groups: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-round ``(s0, s1)`` server draws for every group, batched."""
        if self._sticky:
            missing = [
                g for g in range(num_groups) if g not in self._sticky_servers
            ]
            if missing:
                s0_new, s1_new = _server_pairs(
                    self.num_servers, len(missing), rng
                )
                for g, a, b in zip(missing, s0_new, s1_new):
                    self._sticky_servers[g] = (int(a), int(b))
            fixed = np.array(
                [self._sticky_servers[g] for g in range(num_groups)],
                dtype=np.int32,
            )
            s0 = np.broadcast_to(fixed[:, 0], (steps, num_groups))
            s1 = np.broadcast_to(fixed[:, 1], (steps, num_groups))
            return s0, s1
        return _server_pairs(self.num_servers, (steps, num_groups), rng)

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        steps, n = tasks.shape
        k = self.group_size
        num_groups = n // k
        choices = np.empty((steps, n), dtype=np.int32)
        if num_groups:
            block = _input_blocks(
                tasks, self._num_inputs, num_groups,
                np.min_scalar_type(self._flat_cumulative.size),
            )
            s0, s1 = self._server_pair_batch(steps, num_groups, rng)
            # Born-rule outcomes: each group descends its own block of
            # the flat cumulative table (see born_outcomes).
            _sample_routes(
                choices, self._flat_cumulative, k, block, rng, s0, s1
            )
        leftover = n - num_groups * k
        if leftover:
            choices[:, n - leftover :] = rng.integers(
                0, self.num_servers, size=(steps, leftover), dtype=np.int32
            )
        return choices


class ClassicalPairedAssignment(GroupAssignment):
    """Paired policy with the *optimal classical* colocation strategy.

    The colocation game's classical value is 3/4; the optimal
    deterministic strategy has the pair always split (``a=0, b=1``),
    which wins every input pair except both-type-C. This is the fairest
    classical baseline for the CHSH policy — same pairing, same shared
    randomness, no entanglement.
    """

    def __init__(self, num_balancers: int, num_servers: int) -> None:
        super().__init__(
            num_balancers,
            num_servers,
            _constant_behavior(_best_classical_colocation_behavior),
        )


class SameTypePairedAssignment(GroupAssignment):
    """Deterministic classical pairs that colocate equal task types.

    Both members output bit 0 on type-C and bit 1 on type-E, so CC pairs
    always share a server (full batching win), CE/EC pairs always split,
    and the price is a guaranteed EE collision. Wins the colocation game
    on 3 of 4 input pairs — a *different* optimal classical point than
    :class:`ClassicalPairedAssignment` (which never colocates), and the
    strongest classical baseline for the queueing objective: it trades
    imbalance (EE collisions) for work saving (perfect CC batching).

    The reproduction finding (EXPERIMENTS.md): quantum CHSH pairs beat
    this baseline at moderate loads, where EE collisions hurt latency,
    while in deep overload the work-maximizer catches up — the paper's
    Fig 4 compares only against uniform random.
    """

    def __init__(self, num_balancers: int, num_servers: int) -> None:
        super().__init__(
            num_balancers, num_servers, _constant_behavior(_same_type_behavior)
        )


class CHSHPairedAssignment(GroupAssignment):
    """The paper's quantum policy: CHSH measurements on shared Bell pairs.

    ``state`` defaults to a perfect Bell pair, whose behavior is built
    once per process; pass a Werner or isotropic state (or any two-qubit
    density matrix) to model hardware noise.
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        *,
        state: StateVector | DensityMatrix | None = None,
    ) -> None:
        if state is None:
            behavior = _constant_behavior(_bell_pair_behavior)
        else:
            behavior = colocation_quantum_strategy(state).behavior()
        super().__init__(num_balancers, num_servers, behavior)


class MultiClassPairedAssignment(GroupAssignment):
    """Paired policy for the >2-task-class workload (§4.1 caveat).

    Tasks carry integer classes ``0..num_classes - 1`` (class 0 is
    type-E, classes >= 1 are incompatible type-C subtypes; see
    :class:`repro.net.workload.MultiClassTaskMix`). The pair plays the
    :func:`~repro.games.nonlocal_games.multi_class_colocation_game` on
    the raw class labels: colocate exactly on matching type-C subtypes.
    ``mode="quantum"`` measures shared Bell pairs with the Tsirelson
    observables of the game's XOR form; ``mode="classical"`` plays the
    best deterministic table pair with shared randomness.
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        *,
        num_classes: int = 3,
        mode: str = "quantum",
    ) -> None:
        if mode not in ("quantum", "classical"):
            raise ConfigurationError(
                f"mode must be 'quantum' or 'classical', got {mode!r}"
            )
        super().__init__(
            num_balancers,
            num_servers,
            _constant_behavior(_multi_class_behavior, num_classes, mode),
        )
        self.num_classes = num_classes
        self.mode = mode


class GHZGroupAssignment(GroupAssignment):
    """Groups of ``k`` balancers measuring a shared GHZ state.

    Each group plays the perfect Mermin strategy (X basis on type-E,
    Y basis on type-C) on its GHZ state. The payoff is *parity
    coordination*: on all-type-E rounds the joint outputs are uniform
    over the even-parity tuples, so a group of 4 splits its tasks 4-0 or
    2-2 across the server pair but never 3-1 — correlations no amount of
    classical shared randomness reproduces (the Mermin gap grows as
    ``1/2 + 2^(-ceil(k/2))`` vs certainty).
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        *,
        group_size: int = 3,
    ) -> None:
        if group_size < 2:
            raise ConfigurationError("groups need at least two balancers")
        super().__init__(
            num_balancers,
            num_servers,
            _constant_behavior(_mermin_behavior, group_size),
        )


class WGroupAssignment(GroupAssignment):
    """Groups of ``k`` balancers measuring a shared W state.

    Same X/Y measurement bases as :class:`GHZGroupAssignment` but on the
    W state from :func:`repro.quantum.entangle.w_state` — a different
    entanglement class whose correlations are weaker for the Mermin
    parity task. Included as the natural ablation: same policy
    machinery, same bases, different resource state.
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        *,
        group_size: int = 3,
    ) -> None:
        if group_size < 2:
            raise ConfigurationError("groups need at least two balancers")
        super().__init__(
            num_balancers,
            num_servers,
            _constant_behavior(_w_state_behavior, group_size),
        )


class ClassicalGroupAssignment(GroupAssignment):
    """Groups of ``k`` balancers playing the best classical Mermin tables.

    The fairest classical baseline for :class:`GHZGroupAssignment`:
    identical grouping, identical shared-randomness server draws, but
    the joint outputs come from the optimal *deterministic* tables of
    the ``k``-player Mermin game (value ``1/2 + 2^(-ceil(k/2))``)
    instead of GHZ measurements.
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        *,
        group_size: int = 3,
    ) -> None:
        if group_size < 2:
            raise ConfigurationError("groups need at least two balancers")
        super().__init__(
            num_balancers,
            num_servers,
            _constant_behavior(_mermin_classical_behavior, group_size),
        )
