"""Tests for the analysis helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    FigureData,
    OnlineStats,
    Series,
    bootstrap_mean_ci,
    format_figure,
    format_table,
    mean_confidence_interval,
)
from repro.errors import ConfigurationError


class TestOnlineStats:
    def test_mean_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100)
        stats = OnlineStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(values.mean())
        assert stats.variance() == pytest.approx(values.var(ddof=1))
        assert stats.count == 100

    def test_variance_needs_two(self):
        stats = OnlineStats()
        stats.push(1.0)
        with pytest.raises(ConfigurationError):
            stats.variance()

    def test_stderr_shrinks(self):
        rng = np.random.default_rng(1)
        small, large = OnlineStats(), OnlineStats()
        small.extend(rng.normal(size=10))
        large.extend(rng.normal(size=1000))
        assert large.stderr() < small.stderr()


class TestOnlineStatsMerge:
    def test_merge_matches_single_accumulator(self):
        """Per-worker accumulators fold into the single-accumulator
        ground truth (the parallel sweep engine relies on this)."""
        rng = np.random.default_rng(4)
        values = rng.normal(loc=3.0, scale=2.0, size=400)
        ground_truth = OnlineStats()
        ground_truth.extend(values)
        merged = OnlineStats()
        for chunk in np.array_split(values, 7):
            worker = OnlineStats()
            worker.extend(chunk)
            merged.merge(worker)
        assert merged.count == ground_truth.count
        assert merged.mean == pytest.approx(ground_truth.mean, rel=1e-12)
        assert merged.variance() == pytest.approx(
            ground_truth.variance(), rel=1e-12
        )

    def test_merge_into_empty(self):
        other = OnlineStats()
        other.extend([1.0, 2.0, 3.0])
        stats = OnlineStats()
        stats.merge(other)
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.variance() == pytest.approx(1.0)

    def test_merge_empty_is_noop(self):
        stats = OnlineStats()
        stats.extend([1.0, 2.0])
        before = (stats.count, stats.mean, stats.variance())
        stats.merge(OnlineStats())
        assert (stats.count, stats.mean, stats.variance()) == before

    def test_merge_returns_self_for_chaining(self):
        a, b, c = OnlineStats(), OnlineStats(), OnlineStats()
        a.extend([1.0])
        b.extend([2.0])
        c.extend([3.0])
        assert a.merge(b).merge(c) is a
        assert a.count == 3
        assert a.mean == pytest.approx(2.0)


class TestConfidenceIntervals:
    def test_interval_brackets_mean(self):
        mean, low, high = mean_confidence_interval([1.0, 2.0, 3.0])
        assert low <= mean <= high
        assert mean == pytest.approx(2.0)

    def test_single_sample_degenerate(self):
        mean, low, high = mean_confidence_interval([5.0])
        assert mean == low == high == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([])

    def test_bootstrap_brackets_true_mean(self):
        rng = np.random.default_rng(2)
        values = rng.normal(loc=10.0, size=300)
        mean, low, high = bootstrap_mean_ci(values, rng)
        assert low <= 10.0 <= high
        assert low <= mean <= high

    def test_bootstrap_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigurationError):
            bootstrap_mean_ci([], rng)
        with pytest.raises(ConfigurationError):
            bootstrap_mean_ci([1.0], rng, confidence=1.5)


class TestJainFairness:
    def test_even_allocation(self):
        from repro.analysis import jain_fairness

        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_one_holds_all(self):
        from repro.analysis import jain_fairness

        assert jain_fairness([9.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_intermediate(self):
        from repro.analysis import jain_fairness

        value = jain_fairness([1.0, 2.0, 3.0])
        assert 1 / 3 < value < 1.0

    def test_all_zero_is_fair(self):
        from repro.analysis import jain_fairness

        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_validation(self):
        from repro.analysis import jain_fairness

        with pytest.raises(ConfigurationError):
            jain_fairness([])
        with pytest.raises(ConfigurationError):
            jain_fairness([-1.0, 2.0])

    def test_split_pairs_improve_fairness_on_exclusive_load(self):
        """On an all-E workload, split-always pairs never collide within
        a pair and beat random fairness; CHSH pairs deliberately collide
        15% of EE pairs (they optimize the *mixed* workload) and land at
        or slightly below random — a documented boundary."""
        import numpy as np

        from repro.analysis import jain_fairness
        from repro.lb import (
            CHSHPairedAssignment,
            ClassicalPairedAssignment,
            RandomAssignment,
        )
        from repro.net.packet import TaskType

        rng = np.random.default_rng(0)
        m = 10
        tasks = np.full((300, 20), TaskType.EXCLUSIVE.bit, dtype=np.uint8)
        scores = {}
        for name, policy in (
            ("random", RandomAssignment(20, m)),
            ("split", ClassicalPairedAssignment(20, m)),
            ("quantum", CHSHPairedAssignment(20, m)),
        ):
            fairness = [
                jain_fairness(np.bincount(row, minlength=m))
                for row in policy.assign_batch(tasks, rng)
            ]
            scores[name] = float(np.mean(fairness))
        assert scores["split"] > scores["random"]
        assert scores["quantum"] == pytest.approx(scores["random"], abs=0.03)


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Series("s", (1.0, 2.0), (1.0,))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Series("s", (), ())

    def test_figure_add_and_get(self):
        fig = FigureData("t", "x", "y")
        fig.add("curve", [1, 2], [3, 4])
        assert fig.get("curve").y == (3.0, 4.0)
        with pytest.raises(ConfigurationError):
            fig.get("missing")

    def test_csv_export(self):
        fig = FigureData("t", "x", "y")
        fig.add("a", [1], [2])
        csv = fig.to_csv()
        assert csv.splitlines() == ["series,x,y", "a,1.0,2.0"]


class TestTables:
    def test_basic_rendering(self):
        table = format_table(["name", "value"], [["x", 1.5]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.5000" in lines[-1]

    def test_row_width_checked(self):
        with pytest.raises(ConfigurationError):
            format_table(["a"], [[1, 2]])

    def test_headers_required(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_empty_rows_ok(self):
        table = format_table(["a", "b"], [])
        assert "a" in table

    def test_format_figure(self):
        fig = FigureData("Fig", "load", "queue")
        fig.add("classical", [0.5, 1.0], [0.1, 3.0])
        fig.add("quantum", [0.5, 1.0], [0.1, 2.0])
        rendered = format_figure(fig)
        assert "classical" in rendered
        assert "quantum" in rendered
        assert "0.5000" in rendered

    def test_format_figure_mismatched_grids(self):
        fig = FigureData("Fig", "x", "y")
        fig.add("a", [1.0], [1.0])
        fig.add("b", [2.0], [1.0])
        with pytest.raises(ConfigurationError):
            format_figure(fig)

    def test_format_figure_empty(self):
        with pytest.raises(ConfigurationError):
            format_figure(FigureData("Fig", "x", "y"))
