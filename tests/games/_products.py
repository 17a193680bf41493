"""Products (parallel repetition) of XOR games.

In the XOR-ed product of two XOR games the referee plays both games at
once and the team must get the XOR of the two target bits right. A
celebrated structural fact (Cleve-Slofstra-Unger-Upadhyay) is that the
*quantum* bias is exactly multiplicative under this product —
``eps_q(G1 (+) G2) = eps_q(G1) * eps_q(G2)`` — while the classical bias
can be strictly super-multiplicative (playing two CHSH instances XOR-ed
together, classical players win more than the naive square).

Systems reading: a load-balancer pair that must coordinate *several*
decisions per round (one per game instance) keeps exactly its per-game
quantum edge per instance, whereas classical strategies can hedge across
instances. ``test_products.py`` and ``test_game_properties.py`` check
both facts on these products.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GameError
from repro.games.xor import XORGame

__all__ = ["xor_product", "xor_power"]


def xor_product(first: XORGame, second: XORGame) -> XORGame:
    """The XOR-ed product game ``first (+) second``.

    Alice's input is a pair ``(x1, x2)`` (flattened as
    ``x1 * nx2 + x2``), similarly for Bob; the input distribution is the
    product; the target is ``s1(x1, y1) XOR s2(x2, y2)``.
    """
    distribution = np.kron(first.distribution, second.distribution)
    targets = (
        first.targets[:, None, :, None] ^ second.targets[None, :, None, :]
    )
    nx = first.num_inputs_a * second.num_inputs_a
    ny = first.num_inputs_b * second.num_inputs_b
    targets = targets.reshape(nx, ny)
    return XORGame(
        name=f"({first.name})(+)({second.name})",
        distribution=distribution,
        targets=targets,
    )


def xor_power(game: XORGame, k: int) -> XORGame:
    """The ``k``-fold XOR-ed product of ``game`` with itself."""
    if k < 1:
        raise GameError(f"power must be >= 1, got {k}")
    out = game
    for _ in range(k - 1):
        out = xor_product(out, game)
    return out
