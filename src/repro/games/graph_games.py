"""Affinity graphs and the XOR games they induce (paper §4.1, Fig 3).

Task types are vertices; each edge is labeled *colocate* (the two types
benefit from sharing a server: same output bit) or *exclusive* (they
should land on different servers: different output bits). Two load
balancers receiving types ``x`` and ``y`` win the induced XOR game when
their server choices respect the label of edge ``{x, y}``.

Fig 3 draws the edge labels at random — each edge exclusive with
probability ``p`` — over the complete graph on 5 vertices, and asks how
often the induced game has a quantum advantage.

:mod:`networkx` is imported only where an :class:`AffinityGraph` is
built (:meth:`AffinityGraph.complete`, :func:`random_affinity_graph`),
so the batched Fig 3 cascade, which never builds one, never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GameError
from repro.games.xor import XORGame

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "AffinityGraph",
    "random_affinity_graph",
    "xor_game_from_graph",
    "advantage_decisions",
    "advantage_probability",
]

#: Accepted ``method`` values for the Fig 3 advantage computations.
ADVANTAGE_METHODS = ("auto", "reference", "batched")


class AffinityGraph:
    """A labeled affinity graph over task types.

    Wraps a :class:`networkx.Graph` whose edges carry a boolean
    ``exclusive`` attribute. Vertices are integers ``0..n-1``.
    """

    def __init__(self, graph: nx.Graph) -> None:
        nodes = sorted(graph.nodes)
        if nodes != list(range(len(nodes))):
            raise GameError("vertices must be integers 0..n-1")
        if len(nodes) < 2:
            raise GameError("affinity graph needs at least two task types")
        for u, v, data in graph.edges(data=True):
            if "exclusive" not in data:
                raise GameError(f"edge ({u},{v}) missing 'exclusive' label")
        self._graph = graph

    @classmethod
    def complete(cls, num_types: int, exclusive_edges: set[tuple[int, int]]
                 ) -> "AffinityGraph":
        """Complete graph with the listed (unordered) edges exclusive."""
        import networkx as nx

        graph = nx.complete_graph(num_types)
        normalized = {tuple(sorted(e)) for e in exclusive_edges}
        for u, v in graph.edges:
            graph.edges[u, v]["exclusive"] = tuple(sorted((u, v))) in normalized
        return cls(graph)

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph."""
        return self._graph

    @property
    def num_types(self) -> int:
        """Number of task types (vertices)."""
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        """Number of labeled edges."""
        return self._graph.number_of_edges()

    def is_exclusive(self, u: int, v: int) -> bool:
        """Label of edge ``{u, v}``; raises when absent."""
        try:
            return bool(self._graph.edges[u, v]["exclusive"])
        except KeyError as exc:
            raise GameError(f"no edge between {u} and {v}") from exc

    def exclusive_fraction(self) -> float:
        """Fraction of edges labeled exclusive."""
        labels = [d["exclusive"] for _, _, d in self._graph.edges(data=True)]
        return float(np.mean(labels)) if labels else 0.0

    def __repr__(self) -> str:
        return (
            f"AffinityGraph(num_types={self.num_types}, "
            f"edges={self.num_edges}, "
            f"exclusive={self.exclusive_fraction():.2f})"
        )


def random_affinity_graph(
    num_types: int,
    p_exclusive: float,
    rng: np.random.Generator,
    *,
    edge_probability: float = 1.0,
) -> AffinityGraph:
    """Random affinity graph as in Fig 3.

    Every vertex pair is connected with probability ``edge_probability``
    (1.0 = complete graph, the Fig 3 setting) and each present edge is
    labeled exclusive independently with probability ``p_exclusive``.
    Regenerates until the graph has at least one edge, so it needs at
    least two task types.
    """
    if num_types < 2:
        raise GameError("affinity graph needs at least two task types")
    if not 0.0 <= p_exclusive <= 1.0:
        raise GameError(f"p_exclusive {p_exclusive} outside [0, 1]")
    if not 0.0 < edge_probability <= 1.0:
        raise GameError(f"edge_probability {edge_probability} outside (0, 1]")
    import networkx as nx

    while True:
        graph = nx.Graph()
        graph.add_nodes_from(range(num_types))
        for u in range(num_types):
            for v in range(u + 1, num_types):
                if rng.random() < edge_probability:
                    graph.add_edge(
                        u, v, exclusive=bool(rng.random() < p_exclusive)
                    )
        if graph.number_of_edges() > 0:
            return AffinityGraph(graph)


def xor_game_from_graph(
    affinity: AffinityGraph,
    *,
    include_diagonal: bool = False,
    exclusive_diagonal: frozenset[int] | set[int] = frozenset(),
) -> XORGame:
    """The XOR game induced by an affinity graph.

    Inputs are vertices. The referee draws an edge uniformly at random
    (each direction equally likely) and hands the endpoints to the two
    players; they win when ``a XOR b`` equals the edge label (1 =
    exclusive). With ``include_diagonal`` the referee may also hand both
    players the same type: colocate by default (the natural rule for
    same-subtype cache sharing), or *separate* for the vertices listed in
    ``exclusive_diagonal`` (e.g. the type-E class, where two exclusive
    tasks must not share a server).
    """
    n = affinity.num_types
    for vertex in exclusive_diagonal:
        if not 0 <= vertex < n:
            raise GameError(
                f"exclusive_diagonal vertex {vertex} outside 0..{n - 1}"
            )
    dist = np.zeros((n, n))
    targets = np.zeros((n, n), dtype=int)
    for u, v, data in affinity.graph.edges(data=True):
        dist[u, v] = dist[v, u] = 1.0
        label = 1 if data["exclusive"] else 0
        targets[u, v] = targets[v, u] = label
    if include_diagonal:
        np.fill_diagonal(dist, 1.0)
        for vertex in exclusive_diagonal:
            targets[vertex, vertex] = 1
    total = dist.sum()
    if total == 0:
        raise GameError("graph has no edges; the induced game is empty")
    dist = dist / total
    return XORGame(
        name=f"graph-{n}v",
        distribution=dist,
        targets=targets,
    )


def advantage_decisions(
    num_types: int,
    p_exclusive: float,
    num_games: int,
    rng: np.random.Generator,
    *,
    threshold: float = 1e-5,
    include_diagonal: bool = False,
    tolerance: float = 1e-8,
    method: str = "auto",
    game_family: str = "xor",
) -> np.ndarray:
    """Per-game advantage verdicts for one Fig 3 point.

    ``method`` selects the pipeline:

    - ``"reference"`` — the serial loop: one graph, one full Tsirelson
      SDP per game via :func:`~repro.games.quantum_value.has_quantum_advantage`.
    - ``"batched"`` — the screening cascade over the whole batch
      (:func:`repro.games.batch.screen_advantage_batch`): exact batched
      classical bias, a dual upper screen at the classical strategy, a
      heuristic lower screen, stacked ADMM only for the undecided
      residue.
    - ``"auto"`` (default) — the batched cascade; it samples the same
      games from ``rng`` and returns the same per-game verdicts.

    Both paths consume ``rng`` identically, so verdict arrays are
    comparable game-by-game across methods.

    ``game_family`` extends the sweep beyond XOR: ``"xor"`` (default)
    keeps the affinity-graph pipeline above bit-for-bit; the non-XOR
    families of :data:`repro.games.bounds.GAME_FAMILIES` sample
    general games from ``rng`` (``p_exclusive`` becomes the family's
    cell-replacement / win-density parameter) and decide them with the
    see-saw/NPA cascade (:func:`repro.games.bounds.screen_nonlocal_games`);
    only certified advantages count, so the reported fraction is a
    lower bound for those families. Those families have no serial
    reference loop, so ``method="reference"`` raises :class:`GameError`
    for them.
    """
    if num_games < 1:
        raise GameError("need at least one game")
    if method not in ADVANTAGE_METHODS:
        raise GameError(
            f"unknown method {method!r}; expected one of {ADVANTAGE_METHODS}"
        )
    if game_family != "xor":
        if method == "reference":
            raise GameError(
                f"method 'reference' decides only the 'xor' family, "
                f"not {game_family!r}"
            )
        from repro.games.bounds import (
            sample_game_family,
            screen_nonlocal_games,
        )

        games = sample_game_family(
            game_family, num_types, p_exclusive, num_games, rng
        )
        report = screen_nonlocal_games(
            games, threshold=threshold, tolerance=tolerance
        )
        return report.verdicts.copy()
    if method in ("auto", "batched"):
        from repro.games.batch import screen_advantage_batch

        report = screen_advantage_batch(
            num_types,
            p_exclusive,
            num_games,
            rng,
            threshold=threshold,
            include_diagonal=include_diagonal,
            tolerance=tolerance,
        )
        return report.verdicts.copy()

    from repro.games.quantum_value import has_quantum_advantage

    verdicts = np.zeros(num_games, dtype=bool)
    for index in range(num_games):
        affinity = random_affinity_graph(num_types, p_exclusive, rng)
        game = xor_game_from_graph(affinity, include_diagonal=include_diagonal)
        verdicts[index] = has_quantum_advantage(
            game, threshold=threshold, tolerance=tolerance
        )
    return verdicts


def advantage_probability(
    num_types: int,
    p_exclusive: float,
    num_games: int,
    rng: np.random.Generator,
    *,
    threshold: float = 1e-5,
    include_diagonal: bool = False,
    tolerance: float = 1e-8,
    method: str = "auto",
    game_family: str = "xor",
) -> float:
    """Fraction of random games with a quantum advantage (one Fig 3 point).

    ``method="auto"`` (default) runs the batched screening cascade; the
    serial per-game loop is available as ``method="reference"``. The two
    sample identical games and make identical per-game decisions (see
    :func:`advantage_decisions`), so the returned fraction is the same.
    Non-``"xor"`` values of ``game_family`` sweep the general-game
    families instead (see :func:`advantage_decisions`).
    """
    return float(
        advantage_decisions(
            num_types,
            p_exclusive,
            num_games,
            rng,
            threshold=threshold,
            include_diagonal=include_diagonal,
            tolerance=tolerance,
            method=method,
            game_family=game_family,
        ).mean()
    )
