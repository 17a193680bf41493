"""XOR-game load balancing for multi-type workloads (§4.1, "XOR games").

When tasks come in more than two classes, the affinity structure is an
:class:`~repro.games.graph_games.AffinityGraph`; the induced XOR game's
optimal quantum strategy (Tsirelson construction) drives a paired
assignment policy exactly like the CHSH case, but with one input symbol
per task type: each task is its vertex index, so a task matrix holds 0
for the exclusive class and ``1 + subtype`` for a colocatable subtype.

The main limitation the paper notes — binary outputs, so only two
candidate servers per round — carries over verbatim.
"""

from __future__ import annotations

from repro.games.graph_games import AffinityGraph, xor_game_from_graph
from repro.games.quantum_value import tsirelson_strategy
from repro.games.strategies import DeterministicStrategy
from repro.lb.policies import GroupAssignment

__all__ = ["XORPairedAssignment", "ClassicalGraphPairedAssignment"]


class XORPairedAssignment(GroupAssignment):
    """Paired balancers playing the optimal quantum strategy of the
    affinity graph's XOR game.

    Vertex 0 is conventionally the exclusive class; vertices ``1..k`` are
    the colocatable subtypes (edges among them mark which subtypes
    tolerate sharing).
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        affinity: AffinityGraph,
        *,
        include_diagonal: bool = True,
        exclusive_diagonal: frozenset[int] | set[int] = frozenset({0}),
    ) -> None:
        game = xor_game_from_graph(
            affinity,
            include_diagonal=include_diagonal,
            exclusive_diagonal=exclusive_diagonal,
        )
        strategy = tsirelson_strategy(game)
        super().__init__(num_balancers, num_servers, strategy)
        self.affinity = affinity
        self.game = game


class ClassicalGraphPairedAssignment(GroupAssignment):
    """Classical counterpart: the best deterministic strategy of the same
    XOR game, with the same pairing and shared randomness."""

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        affinity: AffinityGraph,
        *,
        include_diagonal: bool = True,
        exclusive_diagonal: frozenset[int] | set[int] = frozenset({0}),
    ) -> None:
        game = xor_game_from_graph(
            affinity,
            include_diagonal=include_diagonal,
            exclusive_diagonal=exclusive_diagonal,
        )
        alice_signs, bob_signs = game.best_classical_assignment()
        alice = tuple(0 if s > 0 else 1 for s in alice_signs)
        bob = tuple(0 if s > 0 else 1 for s in bob_signs)
        strategy = DeterministicStrategy(outputs_a=alice, outputs_b=bob)
        super().__init__(num_balancers, num_servers, strategy)
        self.affinity = affinity
        self.game = game
