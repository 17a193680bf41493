"""Tests for XOR-ed product games (parallel repetition)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import GameError
from repro.games.quantum_value import xor_quantum_bias
from repro.games.xor import XORGame
from tests.games._products import xor_power, xor_product


def colocate_game(n: int = 2) -> XORGame:
    dist = np.full((n, n), 1.0 / (n * n))
    return XORGame("co", dist, np.zeros((n, n), dtype=int))


class TestStructure:
    def test_shapes_multiply(self):
        product = xor_product(XORGame.chsh(), colocate_game(3))
        assert product.num_inputs_a == 6
        assert product.num_inputs_b == 6

    def test_distribution_is_product(self):
        product = xor_product(XORGame.chsh(), XORGame.chsh())
        assert product.distribution[0, 0] == pytest.approx(1 / 16)
        assert product.distribution.sum() == pytest.approx(1.0)

    def test_targets_xor(self):
        chsh = XORGame.chsh()
        product = xor_product(chsh, chsh)
        # Flattened input (x1, x2) = x1 * 2 + x2; target = s1 ^ s2.
        for x1 in range(2):
            for x2 in range(2):
                for y1 in range(2):
                    for y2 in range(2):
                        expected = chsh.targets[x1, y1] ^ chsh.targets[x2, y2]
                        assert (
                            product.targets[x1 * 2 + x2, y1 * 2 + y2]
                            == expected
                        )

    def test_power_one_is_same_game(self):
        game = XORGame.chsh()
        assert xor_power(game, 1) is game

    def test_power_validation(self):
        with pytest.raises(GameError):
            xor_power(XORGame.chsh(), 0)


class TestBiasMultiplicativity:
    def test_quantum_bias_multiplicative_for_chsh_squared(self):
        """Cleve et al.: quantum XOR bias is exactly multiplicative."""
        chsh = XORGame.chsh()
        squared = xor_power(chsh, 2)
        single, _ = xor_quantum_bias(chsh)
        double, _ = xor_quantum_bias(squared)
        assert double == pytest.approx(single ** 2, abs=1e-6)

    def test_classical_bias_supermultiplicative_for_chsh(self):
        """The classical bias of CHSH (+) CHSH is 1/2, not (1/2)^2 —
        classical players hedge across instances."""
        squared = xor_power(XORGame.chsh(), 2)
        assert squared.classical_bias() == pytest.approx(0.5)
        assert squared.classical_bias() > XORGame.chsh().classical_bias() ** 2

    def test_chsh_squared_has_no_quantum_advantage(self):
        """Striking consequence: the XOR-ed double CHSH game is
        classical — quantum multiplicativity meets classical hedging."""
        squared = xor_power(XORGame.chsh(), 2)
        quantum, _ = xor_quantum_bias(squared)
        assert quantum == pytest.approx(squared.classical_bias(), abs=1e-6)

    def test_trivial_game_absorbs(self):
        # Producting with an always-colocate game preserves values.
        chsh = XORGame.chsh()
        product = xor_product(chsh, colocate_game(2))
        assert product.classical_bias() == pytest.approx(
            chsh.classical_bias()
        )
        quantum, _ = xor_quantum_bias(product)
        single, _ = xor_quantum_bias(chsh)
        assert quantum == pytest.approx(single, abs=1e-6)

    def test_quantum_multiplicative_random_pair(self):
        rng = np.random.default_rng(3)
        dist = rng.dirichlet(np.ones(4)).reshape(2, 2)
        targets = rng.integers(0, 2, size=(2, 2))
        other = XORGame("rand", dist, targets)
        b_chsh, _ = xor_quantum_bias(XORGame.chsh())
        b_other, _ = xor_quantum_bias(other)
        b_prod, _ = xor_quantum_bias(xor_product(XORGame.chsh(), other))
        assert b_prod == pytest.approx(b_chsh * b_other, abs=1e-5)
