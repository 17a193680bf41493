"""Unit tests for the shared statistical helpers in tests/_stattools.py."""

from __future__ import annotations

import numpy as np
import pytest

from tests._stattools import (
    assert_bootstrap_dominates,
    assert_ci_overlap,
    bootstrap_ci,
    confidence_interval,
)


class TestConfidenceInterval:
    def test_brackets_the_mean(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low, high = confidence_interval(values)
        assert low < np.mean(values) < high

    def test_narrows_with_sample_size(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=10)
        large = np.concatenate([small] * 16)  # same sd, 16x the n
        s_low, s_high = confidence_interval(small)
        l_low, l_high = confidence_interval(large)
        assert (l_high - l_low) < (s_high - s_low)

    def test_higher_confidence_widens(self):
        values = np.random.default_rng(1).normal(size=30)
        low95, high95 = confidence_interval(values, confidence=0.95)
        low99, high99 = confidence_interval(values, confidence=0.99)
        assert low99 < low95 and high99 > high95

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])

    def test_overlap_assertion(self):
        rng = np.random.default_rng(2)
        same_a = rng.normal(0.0, 1.0, size=30)
        same_b = rng.normal(0.0, 1.0, size=30)
        assert_ci_overlap(same_a, same_b, "same distribution")
        far = rng.normal(10.0, 1.0, size=30)
        with pytest.raises(AssertionError, match="distant"):
            assert_ci_overlap(same_a, far, "distant")


class TestBootstrap:
    def test_deterministic_for_fixed_seed(self):
        values = np.random.default_rng(3).normal(size=25)
        assert bootstrap_ci(values, seed=7) == bootstrap_ci(values, seed=7)

    def test_different_seeds_differ(self):
        values = np.random.default_rng(3).normal(size=25)
        assert bootstrap_ci(values, seed=1) != bootstrap_ci(values, seed=2)

    def test_brackets_the_mean(self):
        values = np.random.default_rng(4).normal(5.0, 1.0, size=40)
        mean, low, high = bootstrap_ci(values)
        assert low <= mean <= high
        assert mean == pytest.approx(np.mean(values))

    def test_dominates_passes_for_clear_gap(self):
        smaller = [1.0, 1.1, 0.9, 1.05, 0.95]
        larger = [2.0, 2.2, 1.9, 2.1, 2.05]
        assert_bootstrap_dominates(smaller, larger, label="clear gap")

    def test_dominates_fails_for_overlap(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95]
        with pytest.raises(AssertionError, match="no gap"):
            assert_bootstrap_dominates(values, values, label="no gap")

    def test_dominates_respects_factor(self):
        smaller = [0.9, 1.0, 0.95, 1.05, 0.97]
        larger = [2.0, 2.1, 1.95, 2.05, 2.02]
        # smaller ~ 0.5 * larger: dominates at factor 0.8, not at 0.4.
        assert_bootstrap_dominates(smaller, larger, factor=0.8)
        with pytest.raises(AssertionError):
            assert_bootstrap_dominates(smaller, larger, factor=0.4)

    def test_dominates_requires_paired_samples(self):
        with pytest.raises(ValueError, match="shape"):
            assert_bootstrap_dominates([1.0, 2.0], [1.0, 2.0, 3.0])
