"""Tests for the ADMM SDP solvers, projections and Gram vectors.

The diagonal SDP cases call the one diagonal solver with a stack of one,
which is how a single game is solved.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import SolverError
from repro.sdp import (
    SDPResult,
    gram_vectors,
    project_psd_batch,
    solve_diagonal_sdp_batch,
    solve_partition_sdp,
    symmetrize,
)


def chsh_cost() -> np.ndarray:
    """Tsirelson cost matrix for CHSH with uniform inputs."""
    w = np.array([[1, 1], [1, -1]]) / 4.0
    c = np.zeros((4, 4))
    c[:2, 2:] = w / 2
    c[2:, :2] = w.T / 2
    return c


def solve_one(cost, *, warm_start=None, **options):
    """The diagonal SDP of one cost matrix, as a stack of one."""
    warm = None if warm_start is None else np.asarray(warm_start)[None]
    return solve_diagonal_sdp_batch(
        np.asarray(cost)[None], warm_starts=warm, **options
    )[0]


class TestProjections:
    def test_project_psd_idempotent(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(6, 6))
        once = project_psd_batch(mat[None])[0]
        twice = project_psd_batch(once[None])[0]
        assert np.allclose(once, twice, atol=1e-12)

    def test_project_psd_clips_negative(self):
        mat = np.diag([1.0, -2.0])
        assert np.allclose(project_psd_batch(mat[None])[0], np.diag([1.0, 0.0]))

    def test_project_psd_fixed_point_on_psd(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 5))
        psd = a @ a.T
        assert np.allclose(project_psd_batch(psd[None])[0], psd, atol=1e-10)

    def test_project_psd_rejects_nonsquare(self):
        with pytest.raises(SolverError):
            project_psd_batch(np.ones((2, 3))[None])

    def test_symmetrize(self):
        mat = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert np.allclose(symmetrize(mat), [[0, 1], [1, 0]])


class TestDiagonalSDP:
    def test_chsh_tsirelson_bias(self):
        res = solve_one(chsh_cost(), tolerance=1e-9)
        assert res.converged
        assert res.objective == pytest.approx(math.sqrt(2) / 2, abs=1e-7)
        assert res.upper_bound == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_primal_below_upper_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = rng.normal(size=(6, 6))
            res = solve_one(c, tolerance=1e-8)
            assert res.objective <= res.upper_bound + 1e-7

    def test_solution_feasible(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(8, 8))
        res = solve_one(c)
        assert np.allclose(np.diag(res.matrix), 1.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(res.matrix)
        assert eigs.min() >= -1e-8

    def test_identity_cost(self):
        # max Tr(X) with unit diagonal is exactly n.
        res = solve_one(np.eye(5))
        assert res.objective == pytest.approx(5.0, abs=1e-6)

    def test_all_ones_cost(self):
        # max sum(X) with unit diagonal PSD is n^2 (X = ones).
        n = 4
        res = solve_one(np.ones((n, n)))
        assert res.objective == pytest.approx(n * n, abs=1e-5)

    def test_negative_identity_off_diagonal(self):
        # C = -J + I pushes off-diagonals to -1/(n-1)-ish; optimum is known
        # to satisfy the bound; just check feasibility and bound coherence.
        n = 5
        c = -np.ones((n, n)) + np.eye(n)
        res = solve_one(c)
        assert res.objective <= res.upper_bound + 1e-7

    def test_custom_diagonal(self):
        c = np.eye(3)
        res = solve_one(c, diagonal=np.array([2.0, 3.0, 4.0]))
        assert res.objective == pytest.approx(9.0, abs=1e-6)
        assert np.allclose(np.diag(res.matrix), [2.0, 3.0, 4.0])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(SolverError):
            solve_one(np.eye(2), diagonal=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_diagonal(self, value):
        with pytest.raises(SolverError):
            solve_one(np.eye(2), diagonal=np.array([1.0, value]))

    def test_rejects_nonsquare_cost(self):
        with pytest.raises(SolverError):
            solve_one(np.ones((2, 3)))

    def test_rejects_bad_diagonal_shape(self):
        with pytest.raises(SolverError):
            solve_one(np.eye(3), diagonal=np.ones(2))

    def test_warm_start_cuts_iterations(self):
        c = chsh_cost()
        cold = solve_one(c, tolerance=1e-9)
        warm = solve_one(c, tolerance=1e-9, warm_start=cold.matrix)
        assert warm.iterations <= cold.iterations
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)

    def test_warm_start_shape_checked(self):
        with pytest.raises(SolverError):
            solve_one(np.eye(3), warm_start=np.eye(2))

    def test_rejects_nonsquare_warm_start(self):
        # The shape check runs before the warm start is symmetrized, so
        # a non-square one is a SolverError, not a NumPy broadcast error.
        with pytest.raises(SolverError):
            solve_one(np.eye(4), warm_start=np.ones((4, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_cost(self, value):
        with pytest.raises(SolverError, match="non-finite"):
            solve_one(np.full((3, 3), value))

    def test_rejects_nonfinite_warm_start(self):
        warm = np.eye(3)
        warm[0, 1] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            solve_one(np.eye(3), warm_start=warm)

    def test_result_repr_and_gap(self):
        res = solve_one(np.eye(2))
        assert isinstance(res, SDPResult)
        assert "converged" in repr(res)
        assert res.gap == pytest.approx(res.upper_bound - res.objective)


class TestPartitionSDP:
    def test_rejects_nonsquare_cost(self):
        with pytest.raises(SolverError):
            solve_partition_sdp(np.ones((2, 3))[None], [])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_cost(self, value):
        cost = np.eye(3)
        cost[1, 2] = cost[2, 1] = value
        with pytest.raises(SolverError, match="non-finite"):
            solve_partition_sdp(cost[None], [((1, 1), (1, 2))])

    @pytest.mark.parametrize("name", ["corner_value", "diagonal_cap"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_scalar_outside_positive_reals(self, name, value):
        # NaN fails every comparison, so a bare "<= 0" test lets it
        # through: a NaN cap then gives a NaN bound marked converged, an
        # infinite cap an infinite bound, and a non-finite corner breaks
        # the eigensolver.
        with pytest.raises(SolverError, match=name):
            solve_partition_sdp(
                np.eye(3)[None], [((1, 1), (1, 2))], **{name: value}
            )


class TestGramVectors:
    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=(5, 3))
        gram = v @ v.T
        rec = gram_vectors(gram)
        assert np.allclose(rec @ rec.T, gram, atol=1e-8)

    def test_rank_detection(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        gram = v @ v.T
        assert gram_vectors(gram).shape[1] == 2

    def test_normalize_option(self):
        gram = np.eye(3)
        vecs = gram_vectors(gram, normalize=True)
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0)

    def test_rejects_indefinite(self):
        with pytest.raises(SolverError):
            gram_vectors(np.diag([1.0, -1.0]))

    def test_rejects_zero(self):
        with pytest.raises(SolverError):
            gram_vectors(np.zeros((3, 3)))

    def test_sdp_solution_has_low_rank_vectors(self):
        res = solve_one(chsh_cost(), tolerance=1e-10)
        vecs = gram_vectors(res.matrix, tolerance=1e-6)
        # CHSH optimum is achievable with 2-dimensional real vectors.
        assert vecs.shape[1] <= 3
