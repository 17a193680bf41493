"""Assignment policies for the Fig 4 timestep simulation.

A policy maps the vector of tasks received this timestep (one per load
balancer) to a vector of server choices. The no-communication constraint
of the paper is enforced structurally: each balancer's choice depends
only on its *own* task, pre-agreed shared randomness (the per-round
server-pair draw), and — for the quantum policies — the outcome of
measuring its share of a pre-distributed entangled state.

Policies:

- :class:`RandomAssignment` — the paper's classical baseline.
- :class:`RoundRobinAssignment` — classical, per-balancer rotation.
- :class:`PowerOfTwoAssignment` — classical, queue-length feedback
  (strictly more information than the paper's setting allows; included
  as an informed reference point).
- :class:`DedicatedPoolAssignment` — the §4.1 caveat's hybrid: a server
  pool reserved for type-C tasks.
- :class:`ClassicalPairedAssignment` — paired balancers playing the best
  *classical* strategy of the colocation game with shared randomness.
- :class:`CHSHPairedAssignment` — the paper's quantum policy: paired
  balancers measure shared (possibly noisy) Bell pairs with the CHSH
  angles.
- :class:`GamePairedAssignment` — generic paired policy driven by any
  two-player strategy's exact behavior (used for XOR-game balancers over
  multi-subtype workloads).
- :class:`MultiClassPairedAssignment` — pairs playing the multi-class
  colocation game (>2 task classes, §4.1 caveat), quantum or classical.
- :class:`GroupAssignment` — ``k``-party groups sharing GHZ/W states
  (or classical tables): :class:`GHZGroupAssignment`,
  :class:`WGroupAssignment`, :class:`ClassicalGroupAssignment`.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, StrategyError
from repro.games.chsh import (
    colocation_classical_strategy,
    colocation_quantum_strategy,
)
from repro.games.strategies import DeterministicStrategy, Strategy
from repro.lb.engine import block_rows
from repro.net.packet import TaskType
from repro.quantum.state import DensityMatrix, StateVector

__all__ = [
    "AssignmentPolicy",
    "behavior_sampling_tables",
    "RandomAssignment",
    "RoundRobinAssignment",
    "PowerOfTwoAssignment",
    "DedicatedPoolAssignment",
    "GamePairedAssignment",
    "ClassicalPairedAssignment",
    "SameTypePairedAssignment",
    "CHSHPairedAssignment",
    "MultiClassPairedAssignment",
    "GroupAssignment",
    "GHZGroupAssignment",
    "WGroupAssignment",
    "ClassicalGroupAssignment",
]


class AssignmentPolicy:
    """Interface: map one timestep's tasks to server indices."""

    def __init__(self, num_balancers: int, num_servers: int) -> None:
        if num_balancers < 1:
            raise ConfigurationError("need at least one balancer")
        if num_servers < 1:
            raise ConfigurationError("need at least one server")
        self.num_balancers = num_balancers
        self.num_servers = num_servers

    def assign(
        self, tasks: Sequence[TaskType], rng: np.random.Generator
    ) -> list[int]:
        """Return a server index per task. Must not inspect other tasks
        except through the structured pair protocols."""
        raise NotImplementedError

    def assign_batch(
        self, tasks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Batched :meth:`assign`: map a ``(steps, N)`` integer task
        matrix (``TaskType.bit`` encoding, or game inputs for subtype
        workloads) to a ``(steps, N)`` server-index matrix.

        The base class has no batched form; the vectorized engine treats
        that as "unsupported" and falls back to the per-step loop.
        Implementations must draw all their randomness from ``rng`` up
        front and leave any policy state as if ``steps`` sequential
        :meth:`assign` calls had run, so runs can be continued by either
        path. Per-seed equality with the sequential path is only
        guaranteed where documented (see ``docs/reproducing.md``);
        elsewhere the batched draw order differs and parity is
        distributional.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no batched assignment"
        )

    def supports_batch(self) -> bool:
        """Whether :meth:`assign_batch` has a vectorized implementation."""
        return type(self).assign_batch is not AssignmentPolicy.assign_batch

    def observe_queues(self, queue_lengths: Sequence[int]) -> None:
        """Feedback hook; most policies ignore it."""

    def needs_queue_feedback(self) -> bool:
        """Whether :meth:`observe_queues` is overridden (feedback policy)."""
        return type(self).observe_queues is not AssignmentPolicy.observe_queues

    def _check(self, tasks: Sequence[TaskType]) -> None:
        if len(tasks) != self.num_balancers:
            raise ConfigurationError(
                f"{len(tasks)} tasks for {self.num_balancers} balancers"
            )

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

    def assign(self, tasks, rng):
        self._check(tasks)
        return list(rng.integers(0, self.num_servers, size=len(tasks)))

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        # One bounded-integer fill consumes the bit stream exactly like
        # per-step draws, so this is per-seed identical to assign(). An
        # int32 draw gives the int64 draw's values and leaves the
        # generator in the same state (below 2**31 servers).
        return rng.integers(
            0, self.num_servers, size=tasks.shape, dtype=np.int32
        )


class RoundRobinAssignment(AssignmentPolicy):
    """Each balancer cycles through servers from a random start offset."""

    def __init__(self, num_balancers: int, num_servers: int) -> None:
        super().__init__(num_balancers, num_servers)
        self._next = None

    def assign(self, tasks, rng):
        self._check(tasks)
        if self._next is None:
            self._next = rng.integers(0, self.num_servers, size=self.num_balancers)
        choices = [int(c) for c in self._next]
        self._next = (self._next + 1) % self.num_servers
        return choices

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        steps = tasks.shape[0]
        if self._next is None:
            self._next = rng.integers(0, self.num_servers, size=self.num_balancers)
        # Deterministic after the start-offset draw, so per-seed
        # identical to the sequential path. Both terms lie below M, so
        # their int32 sum is exact below 2**30 servers.
        offset = (np.arange(steps) % self.num_servers).astype(np.int32)
        choices = np.add.outer(offset, self._next.astype(np.int32))
        choices %= self.num_servers
        self._next = (self._next + steps) % self.num_servers
        return choices


class PowerOfTwoAssignment(AssignmentPolicy):
    """Sample two servers, pick the one with the shorter observed queue.

    Queue observations arrive via :meth:`observe_queues` at the end of
    each timestep, so choices use slightly stale state — the standard
    power-of-two-choices setup [44].
    """

    def __init__(self, num_balancers: int, num_servers: int) -> None:
        super().__init__(num_balancers, num_servers)
        self._queues = np.zeros(num_servers)

    def observe_queues(self, queue_lengths):
        if len(queue_lengths) != self.num_servers:
            raise ConfigurationError("queue observation size mismatch")
        self._queues = np.asarray(queue_lengths, dtype=float)

    def assign(self, tasks, rng):
        self._check(tasks)
        first = rng.integers(0, self.num_servers, size=len(tasks))
        second = rng.integers(0, self.num_servers, size=len(tasks))
        return [
            int(f) if self._queues[f] <= self._queues[s] else int(s)
            for f, s in zip(first, second)
        ]


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
            # remainder: assign() would raise an opaque ValueError from
            # rng.integers(1, 1) while assign_batch() silently emitted
            # the invalid server index 1. Reject at construction.
            raise ConfigurationError(
                "DedicatedPoolAssignment needs >= 2 servers (one for the "
                "type-C pool, one for the remainder)"
            )
        if not 0.0 < pool_fraction < 1.0:
            raise ConfigurationError(
                f"pool_fraction {pool_fraction} must be in (0, 1)"
            )
        self.pool_size = max(1, min(num_servers - 1, round(num_servers * pool_fraction)))

    def assign(self, tasks, rng):
        self._check(tasks)
        choices = []
        for task in tasks:
            if task is TaskType.COLOCATE:
                choices.append(int(rng.integers(0, self.pool_size)))
            else:
                choices.append(int(rng.integers(self.pool_size, self.num_servers)))
        return choices

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        # One uniform draw per task, scaled into the pool for type-C
        # (nonzero input) and into the remainder for type-E. The draw
        # order differs from assign()'s conditional scalar draws, so
        # parity with the sequential path is distributional.
        uniform = rng.random(tasks.shape)
        pool = self.pool_size
        in_pool = (uniform * pool).astype(np.int32)
        outside = pool + (uniform * (self.num_servers - pool)).astype(np.int32)
        return np.where(tasks != 0, in_pool, outside)


def _default_task_to_input(task) -> int:
    """Map a task to a game input: ints pass through, TaskType uses
    the paper's bit encoding (1 = type-C)."""
    if isinstance(task, (int, np.integer)):
        return int(task)
    return task.bit


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
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Precompute Born-sampling tables for a binary-output behavior.

    ``behavior`` holds ``p(outputs | inputs)`` for a ``k``-party
    strategy as a tensor of ``k`` input axes followed by ``k`` binary
    output axes — ``(nx, ny, 2, 2)`` for the paired policies,
    ``(n_1, ..., n_k) + (2,) * k`` for the group policies.

    Returns ``(num_inputs, cumulative, flat_cumulative)``:

    - ``cumulative`` flattens the ``2**k`` joint outputs into a per-input
      cumulative table for fast per-group sampling (output tuples in
      C order, so player 0 owns the most significant outcome bit).
    - ``flat_cumulative`` concatenates every input block's cumulative
      table, offsetting block ``i``'s entries by ``i``, so
      :func:`born_outcomes` resolves all groups at once from ``block +
      u``. Clipping each block at its offset + 1 keeps the flat table
      sorted even when float error pushes a cumsum above 1.

    Shared by :class:`GamePairedAssignment`, :class:`GroupAssignment`,
    and the degraded policies in :mod:`repro.lb.degradation`, which
    sample from two tables (live quantum vs classical fallback) behind
    one interface.
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
    return num_inputs, cumulative, flat_cumulative


def born_outcomes(flat_cumulative, width, block, uniform, row=None):
    """Born-rule outcome indices of a batch of draws, branch-free.

    ``flat_cumulative`` is a table from :func:`behavior_sampling_tables`
    with ``width`` (``2**k``) entries per input block, ``block`` the
    flat input index of each draw and ``uniform`` its ``[0, 1)``
    double. Returns, element for element and in ``block``'s dtype, the
    serial path's right-bisect outcome::

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


def _sample_routes(choices, table, k, block, uniform, s0, s1, live=None):
    """Born-sample every group's outcome and route its members.

    :func:`born_outcomes` then :func:`_route_members`, walked in blocks
    of steps of at most :data:`~repro.lb.engine.SCAN_BLOCK_CELLS` choice
    cells each, so their temporaries take O(block) memory while the
    ``(steps, groups)`` draws stay whole-chunk. Both passes are
    elementwise, so the choices equal one whole-chunk pass bit for bit.

    ``table`` holds ``2**k`` entries per input block. With ``live``, it
    stacks two tables of one shape, and a group whose ``live`` entry is
    false reads the second: its row is ``block`` plus the first table's
    number of blocks.
    """
    width = 1 << k
    rows = block_rows(choices.shape[1])
    for lo in range(0, block.shape[0], rows):
        part = slice(lo, lo + rows)
        row = None
        if live is not None:
            dead_row = block[part] + table.size // (2 * width)
            row = np.where(live[part], block[part], dead_row)
        outcome = born_outcomes(table, width, block[part], uniform[part], row)
        _route_members(choices[part], outcome, k, s0[part], s1[part])


class GamePairedAssignment(AssignmentPolicy):
    """Paired balancers playing a two-player strategy over random server pairs.

    Each round, consecutive balancers ``(2k, 2k+1)`` form a pair. The pair
    draws two distinct servers ``(s0, s1)`` from shared randomness, plays
    the strategy on inputs ``(x, y)`` derived from their task types, and
    balancer ``2k`` routes to ``s[a]`` while ``2k+1`` routes to ``s[b]``.
    Equal outputs colocate the two tasks; differing outputs separate them.

    The strategy's exact behavior ``p(a, b | x, y)`` is precomputed, so
    quantum strategies sample their true Born-rule statistics without
    re-simulating state collapse per round (tests confirm equivalence to
    the explicit :class:`~repro.quantum.measurement.EntangledRegister`
    path). An odd balancer count leaves the last balancer routing
    uniformly at random. ``strategy`` is any two-player strategy with
    binary outputs, or its behavior tensor ``(nx, ny, 2, 2)``.

    :meth:`assign_batch` samples every pair of every timestep with
    :func:`born_outcomes` (two branch-free probes into the pair's own
    block of the flat cumulative table, equal to the sequential path's
    bisect), a block of steps at a time, and returns int32 server
    choices.
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        strategy: Strategy | np.ndarray,
        *,
        task_to_input=None,
        sticky_servers: bool = False,
    ) -> None:
        super().__init__(num_balancers, num_servers)
        if num_servers < 2:
            raise ConfigurationError("paired policies need >= 2 servers")
        if not isinstance(strategy, np.ndarray):
            strategy = strategy.behavior()
        self._behavior = strategy
        (
            self._num_inputs,
            self._cumulative,
            self._flat_cumulative,
        ) = behavior_sampling_tables(strategy)
        self._task_to_input = task_to_input or _default_task_to_input
        # Pair-selection policy (DESIGN.md ablation): by default each
        # pair draws a fresh random server pair every round; sticky pairs
        # keep the first draw forever, concentrating their load.
        self._sticky = sticky_servers
        self._sticky_servers: dict[int, tuple[int, int]] = {}

    def _server_pair(
        self, pair_index: int, rng: np.random.Generator
    ) -> tuple[int, int]:
        if self._sticky and pair_index in self._sticky_servers:
            return self._sticky_servers[pair_index]
        s0 = int(rng.integers(0, self.num_servers))
        s1 = int(rng.integers(0, self.num_servers - 1))
        if s1 >= s0:
            s1 += 1
        if self._sticky:
            self._sticky_servers[pair_index] = (s0, s1)
        return s0, s1

    def assign(self, tasks, rng):
        self._check(tasks)
        choices: list[int] = [0] * len(tasks)
        num_pairs = len(tasks) // 2
        for k in range(num_pairs):
            i, j = 2 * k, 2 * k + 1
            s0, s1 = self._server_pair(k, rng)
            x = self._task_to_input(tasks[i])
            y = self._task_to_input(tasks[j])
            if not (0 <= x < self._num_inputs[0]) or not (
                0 <= y < self._num_inputs[1]
            ):
                raise StrategyError(
                    f"task inputs ({x},{y}) outside the strategy's alphabet"
                )
            u = rng.random()
            index = int(np.searchsorted(self._cumulative[x, y], u, side="right"))
            index = min(index, 3)
            a, b = divmod(index, 2)
            pair = (s0, s1)
            choices[i] = pair[a]
            choices[j] = pair[b]
        if len(tasks) % 2 == 1:
            choices[-1] = int(rng.integers(0, self.num_servers))
        return choices

    def _server_pair_batch(
        self, steps: int, num_pairs: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-round ``(s0, s1)`` server draws for every pair, batched."""
        if self._sticky:
            missing = [
                k for k in range(num_pairs) if k not in self._sticky_servers
            ]
            if missing:
                s0_new, s1_new = _server_pairs(
                    self.num_servers, len(missing), rng
                )
                for k, a, b in zip(missing, s0_new, s1_new):
                    self._sticky_servers[k] = (int(a), int(b))
            fixed = np.array(
                [self._sticky_servers[k] for k in range(num_pairs)],
                dtype=np.int32,
            )
            s0 = np.broadcast_to(fixed[:, 0], (steps, num_pairs))
            s1 = np.broadcast_to(fixed[:, 1], (steps, num_pairs))
            return s0, s1
        return _server_pairs(self.num_servers, (steps, num_pairs), rng)

    def assign_batch(self, tasks, rng):
        tasks = self._check_batch(tasks)
        steps, n = tasks.shape
        num_pairs = n // 2
        choices = np.empty((steps, n), dtype=np.int32)
        if num_pairs:
            block = _input_blocks(
                tasks, self._num_inputs, num_pairs,
                np.min_scalar_type(self._flat_cumulative.size),
            )
            s0, s1 = self._server_pair_batch(steps, num_pairs, rng)
            # Born-rule outcomes: each pair descends its own block of
            # the flat cumulative table, matching the sequential path's
            # per-pair searchsorted exactly (see born_outcomes).
            uniform = rng.random((steps, num_pairs))
            _sample_routes(
                choices, self._flat_cumulative, 2, block, uniform, s0, s1
            )
        if n % 2 == 1:
            choices[:, -1] = rng.integers(
                0, self.num_servers, size=steps, dtype=np.int32
            )
        return choices


class ClassicalPairedAssignment(GamePairedAssignment):
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


class SameTypePairedAssignment(GamePairedAssignment):
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


class CHSHPairedAssignment(GamePairedAssignment):
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


class MultiClassPairedAssignment(GamePairedAssignment):
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


class GroupAssignment(AssignmentPolicy):
    """``k``-party balancer groups playing a multiparty strategy.

    The generalization of :class:`GamePairedAssignment` from Bell pairs
    to shared ``k``-partite states (§4.1's "extends to more than two
    players", probing the §4.2 ECMP conjecture). Each round, consecutive
    balancers ``(gk, ..., gk + k - 1)`` form a group; the group draws
    two distinct servers ``(s0, s1)`` from shared randomness, samples a
    joint output tuple from the strategy's exact behavior on the
    members' task-derived inputs, and member ``i`` routes to
    ``s[bit_i]``. Leftover balancers (``N mod k``) route uniformly at
    random.

    ``behavior`` is the strategy's exact conditional distribution as a
    tensor of ``k`` input axes then ``k`` binary output axes (see
    :func:`behavior_sampling_tables`); pass a precomputed tensor or any
    k-party strategy exposing ``behavior()`` (e.g. a
    :class:`~repro.games.multiplayer.MultiplayerQuantumStrategy`).
    The batched path resolves every group of every timestep with
    :func:`born_outcomes` (``k`` branch-free probes into each group's
    own block of the flat cumulative table) and returns int32 server
    choices, so the chunked streaming engine serves k-party
    correlations at about the same cost per task as the paired
    policies.
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        behavior,
        *,
        group_size: int | None = None,
        task_to_input=None,
    ) -> None:
        super().__init__(num_balancers, num_servers)
        if num_servers < 2:
            raise ConfigurationError("group policies need >= 2 servers")
        if not isinstance(behavior, np.ndarray):
            behavior = behavior.behavior()
        self._behavior = behavior
        (
            self._num_inputs,
            self._cumulative,
            self._flat_cumulative,
        ) = behavior_sampling_tables(behavior)
        self.group_size = len(self._num_inputs)
        if group_size is not None and group_size != self.group_size:
            raise ConfigurationError(
                f"group_size {group_size} does not match the strategy's "
                f"{self.group_size} parties"
            )
        self._width = 1 << self.group_size
        self._task_to_input = task_to_input or _default_task_to_input

    def _server_pair(self, rng: np.random.Generator) -> tuple[int, int]:
        s0 = int(rng.integers(0, self.num_servers))
        s1 = int(rng.integers(0, self.num_servers - 1))
        if s1 >= s0:
            s1 += 1
        return s0, s1

    def assign(self, tasks, rng):
        self._check(tasks)
        k = self.group_size
        choices: list[int] = [0] * len(tasks)
        num_groups = len(tasks) // k
        for g in range(num_groups):
            members = range(g * k, (g + 1) * k)
            s0, s1 = self._server_pair(rng)
            inputs = tuple(self._task_to_input(tasks[i]) for i in members)
            if any(
                not 0 <= x < n for x, n in zip(inputs, self._num_inputs)
            ):
                raise StrategyError(
                    f"task inputs {inputs} outside the strategy's alphabet"
                )
            u = rng.random()
            index = int(
                np.searchsorted(self._cumulative[inputs], u, side="right")
            )
            index = min(index, self._width - 1)
            pair = (s0, s1)
            for j, i in enumerate(members):
                choices[i] = pair[(index >> (k - 1 - j)) & 1]
        for i in range(num_groups * k, len(tasks)):
            choices[i] = int(rng.integers(0, self.num_servers))
        return choices

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
            s0, s1 = _server_pairs(self.num_servers, (steps, num_groups), rng)
            # Born-rule outcomes: each group descends its own block of
            # the flat cumulative table (see born_outcomes).
            uniform = rng.random((steps, num_groups))
            _sample_routes(
                choices, self._flat_cumulative, k, block, uniform, s0, s1
            )
        leftover = n - num_groups * k
        if leftover:
            choices[:, n - leftover :] = rng.integers(
                0, self.num_servers, size=(steps, leftover), dtype=np.int32
            )
        return choices


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
            group_size=group_size,
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
            group_size=group_size,
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
            group_size=group_size,
        )
