"""Shared statistical helpers for the test suite.

The single home for every piece of statistics the tests lean on, so
parity, degradation, and seed-robustness suites make identical
methodological choices (and fix them in one place):

- :func:`run_pair` / :func:`seeds_mean_queue` — cross-engine and
  multi-seed drivers for the Fig 4 simulation.
- :func:`confidence_interval` / :func:`assert_ci_overlap` — the
  normal-approximation CI overlap check for claims that two policies
  or two chunk sizes agree in distribution.
- :func:`bootstrap_ci` / :func:`assert_bootstrap_dominates` —
  seeded percentile-bootstrap CIs (via
  :func:`repro.analysis.stats.bootstrap_mean_ci`) and a paired
  dominance assertion for "policy A beats policy B across seeds".

Unit tests live in ``tests/obs/test_stattools.py``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from repro.analysis.stats import bootstrap_mean_ci
from repro.lb import run_timestep_simulation

__all__ = [
    "run_pair",
    "seeds_mean_queue",
    "confidence_interval",
    "assert_ci_overlap",
    "bootstrap_ci",
    "assert_bootstrap_dominates",
]


# -- simulation drivers ------------------------------------------------------


def run_pair(policy_factory, *, n=20, m=12, timesteps=240, seed=0, **kwargs):
    """Run one seed through both engines; returns ``(reference,
    vectorized)`` results for parity comparison."""
    reference = run_timestep_simulation(
        policy_factory(n, m), timesteps=timesteps, seed=seed,
        engine="reference", **kwargs,
    )
    vectorized = run_timestep_simulation(
        policy_factory(n, m), timesteps=timesteps, seed=seed,
        engine="vectorized", **kwargs,
    )
    return reference, vectorized


def seeds_mean_queue(policy_factory, *, n=20, m=12, timesteps=200,
                     num_seeds=20, engine="auto", **kwargs):
    """Mean queue length per seed for ``seed in range(num_seeds)``."""
    values = []
    for seed in range(num_seeds):
        result = run_timestep_simulation(
            policy_factory(n, m, **kwargs),
            timesteps=timesteps,
            seed=seed,
            engine=engine,
        )
        values.append(result.mean_queue_length)
    return values


# -- normal-approximation CIs ------------------------------------------------


def confidence_interval(values, *, confidence=0.95):
    """Normal-approximation CI for the sample mean: ``(low, high)``."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two values for a CI")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    half = z * values.std(ddof=1) / math.sqrt(len(values))
    return values.mean() - half, values.mean() + half


def assert_ci_overlap(a_values, b_values, label="", *, confidence=0.95):
    """Assert the two samples' mean CIs overlap (distributional parity)."""
    a_low, a_high = confidence_interval(a_values, confidence=confidence)
    b_low, b_high = confidence_interval(b_values, confidence=confidence)
    assert a_low <= b_high and b_low <= a_high, (
        f"{label}: CI [{a_low:.3f}, {a_high:.3f}] vs "
        f"[{b_low:.3f}, {b_high:.3f}]"
    )


# -- bootstrap CIs -----------------------------------------------------------


def bootstrap_ci(values, *, seed=0, resamples=2000, confidence=0.95):
    """Seeded percentile-bootstrap CI for the mean: ``(mean, low, high)``."""
    rng = np.random.default_rng(seed)
    return bootstrap_mean_ci(
        values, rng, resamples=resamples, confidence=confidence
    )


def assert_bootstrap_dominates(
    smaller,
    larger,
    *,
    factor=1.0,
    label="",
    seed=0,
    resamples=2000,
    confidence=0.95,
):
    """Assert ``mean(smaller_i - factor * larger_i) < 0`` by bootstrap.

    The samples must be paired (same seeds, index-aligned); the check
    holds when the paired-difference bootstrap CI lies entirely below
    zero, i.e. ``smaller`` beats ``factor * larger`` across seeds, not
    just on one lucky seed.
    """
    smaller = np.asarray(smaller, dtype=float)
    larger = np.asarray(larger, dtype=float)
    if smaller.shape != larger.shape:
        raise ValueError(
            f"paired samples differ in shape: {smaller.shape} vs "
            f"{larger.shape}"
        )
    diffs = smaller - factor * larger
    mean, low, high = bootstrap_ci(
        diffs, seed=seed, resamples=resamples, confidence=confidence
    )
    assert high < 0.0, (
        f"{label}: paired difference CI [{low:.4f}, {high:.4f}] "
        f"(mean {mean:.4f}) is not entirely below 0 — "
        f"'smaller' does not dominate at factor {factor}"
    )
