"""Every ADMM solver steps on ``C / ||C||_F``, so a cost's scale is free.

Scaling a cost by ``s > 0`` scales its optimum by ``s``. The solvers
iterate on the normalized cost, so ``s * C`` runs the same trajectory
as ``C``: the same iteration count, with the objective and the dual
bound scaled by ``s``. The scales are powers of two, so the normalized
costs are equal bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.games import build_npa_relaxation, chsh_nonlocal_game, ffl_game
from repro.sdp import solve_diagonal_sdp_batch, solve_partition_sdp

from tests.sdp.test_batch import random_cost_stack

SCALES = (2.0**-12, 2.0**-6, 2.0**6)


def assert_scaled(scaled, base, s):
    assert scaled.iterations == base.iterations
    assert scaled.converged == base.converged
    assert scaled.objective == pytest.approx(
        s * base.objective, rel=1e-12, abs=0.0
    )
    assert scaled.upper_bound == pytest.approx(
        s * base.upper_bound, rel=1e-12, abs=0.0
    )


@pytest.mark.parametrize("n", range(3, 9))
def test_serial_diagonal_solver(n):
    # A single game is solved as a stack of one.
    for cost in random_cost_stack(2, n, 100 + n)[:, None]:
        base = solve_diagonal_sdp_batch(cost)[0]
        for s in SCALES:
            assert_scaled(solve_diagonal_sdp_batch(s * cost)[0], base, s)


@pytest.mark.parametrize("n", range(3, 9))
def test_stacked_diagonal_solver(n):
    costs = random_cost_stack(3, n, 200 + n)
    base = solve_diagonal_sdp_batch(costs)
    for s in SCALES:
        for scaled, plain in zip(solve_diagonal_sdp_batch(s * costs), base):
            assert_scaled(scaled, plain, s)


@pytest.mark.parametrize("make_game", [chsh_nonlocal_game, ffl_game])
def test_partition_solver_on_npa_relaxations(make_game):
    relaxation = build_npa_relaxation(make_game(), level="1+ab")
    structure = (relaxation.classes, relaxation.zero_entries)
    base = solve_partition_sdp(relaxation.cost[None], *structure)[0]
    for s in SCALES:
        scaled = solve_partition_sdp(s * relaxation.cost[None], *structure)[0]
        assert_scaled(scaled, base, s)
