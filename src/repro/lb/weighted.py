"""Utility-weighted quantum pairs: matching operators to queueing value.

The classical-frontier study shows the plain CHSH policy optimizes the
wrong objective at high load: it weighs separating an EE pair as much as
batching a CC pair, but batching saves a service slot while separation
only avoids imbalance. Solving the Tsirelson SDP for the *utility-
weighted* colocation game (``repro.games.weighted``) tilts the
measurement operators toward colocation accuracy.

Measured result (EXPERIMENTS.md): with ``cc_weight ~ 6`` the weighted
quantum pairs dominate plain CHSH, the same-type classical
work-maximizer, and random at every load at or above 1.0 — recovering
quantum superiority in the deep-overload regime where plain CHSH loses
to the deterministic strategy.
"""

from __future__ import annotations

from repro.games.quantum_value import tsirelson_strategy
from repro.games.weighted import weighted_colocation_game
from repro.lb.policies import GroupAssignment

__all__ = ["WeightedCHSHPairedAssignment"]


class WeightedCHSHPairedAssignment(GroupAssignment):
    """CHSH-style pairs with utility-weighted optimal operators.

    ``cc_weight`` is the relative utility of winning the both-type-C
    case versus the others; ~6 approximates the queueing value ratio at
    knee loads (a CC win saves a full service slot, an EE win only
    spreads one slot of work). ``p_colocate`` matches the workload mix.
    """

    def __init__(
        self,
        num_balancers: int,
        num_servers: int,
        *,
        cc_weight: float = 6.0,
        p_colocate: float = 0.5,
    ) -> None:
        game = weighted_colocation_game(p_colocate, cc_weight=cc_weight)
        strategy = tsirelson_strategy(game)
        super().__init__(num_balancers, num_servers, strategy)
        self.cc_weight = cc_weight
        self.p_colocate = p_colocate
