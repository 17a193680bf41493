"""Random-restart search over multi-path collision-game strategies.

Each see-saw restart starts from a random shared state and random
projective measurements (one outcome per path) and then optimizes them,
so the best of its restarts is a random strategy search that works for
any number of paths. No sampled-and-optimized strategy may beat the
classical value.
"""

from __future__ import annotations

import pytest

from repro.ecmp import collision_game
from repro.errors import GameError
from repro.games import seesaw_lower_bound


class TestRandomStrategySearch:
    def test_never_beats_classical_two_paths(self):
        game = collision_game(3, 2, 2)
        best = seesaw_lower_bound(game, restarts=10, iterations=20, seed=0)
        assert best.value <= game.classical_value() + 1e-9

    def test_never_beats_classical_three_paths(self):
        game = collision_game(4, 3, 3)
        best = seesaw_lower_bound(
            game, dim=3, restarts=4, iterations=20, seed=0
        )
        assert best.value <= game.classical_value() + 1e-9

    def test_values_are_probabilities(self):
        game = collision_game(3, 2, 3)
        best = seesaw_lower_bound(game, dim=3, restarts=3, iterations=5, seed=1)
        assert 0.0 <= best.value <= 1.0
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in best.restart_values)

    def test_reproducible(self):
        game = collision_game(3, 2, 2)
        a = seesaw_lower_bound(game, restarts=3, iterations=5, seed=5)
        b = seesaw_lower_bound(game, restarts=3, iterations=5, seed=5)
        assert a.value == b.value
        assert a.restart_values == b.restart_values

    def test_more_samples_never_worse(self):
        # Restart r draws the same random strategy in any run with more
        # restarts, so the best value is monotone in the budget.
        game = collision_game(3, 2, 3)
        few = seesaw_lower_bound(game, dim=3, restarts=2, iterations=3, seed=3)
        many = seesaw_lower_bound(game, dim=3, restarts=6, iterations=3, seed=3)
        assert many.restart_values[:2] == few.restart_values
        assert max(many.restart_values) >= max(few.restart_values)

    def test_larger_local_dim_accepted(self):
        game = collision_game(3, 2, 2)
        best = seesaw_lower_bound(game, dim=4, restarts=2, iterations=5, seed=2)
        assert 0.0 <= best.value <= game.classical_value() + 1e-9

    def test_validation(self):
        game = collision_game(3, 2, 3)
        with pytest.raises(GameError):
            seesaw_lower_bound(game, dim=3, restarts=0)
        with pytest.raises(GameError):
            seesaw_lower_bound(game, dim=1)
