"""Tests for the stacked (batched) ADMM diagonal-SDP solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import SolverError
from repro.obs import capture
from repro.sdp import (
    dual_upper_bound_batch,
    project_psd_batch,
    repair_feasible_batch,
    solve_diagonal_sdp_batch,
    symmetrize_batch,
)
from repro.sdp.batch import LINE_CHECK_PERIOD

from tests.sdp._oracles import project_psd
from tests.sdp.test_admm import chsh_cost


def random_cost_stack(
    num: int, n: int, seed: int, *, symmetric: bool = True
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    costs = rng.normal(size=(num, n, n))
    if symmetric:
        costs = (costs + np.swapaxes(costs, 1, 2)) / 2.0
    return costs


class TestBatchedProjections:
    def test_symmetrize_batch_matches_serial(self):
        stack = random_cost_stack(4, 5, 0, symmetric=False)
        sym = symmetrize_batch(stack)
        for mat, expect in zip(sym, (stack + np.swapaxes(stack, 1, 2)) / 2):
            assert np.allclose(mat, expect)
            assert np.allclose(mat, mat.T)

    def test_project_psd_batch_matches_serial(self):
        stack = symmetrize_batch(random_cost_stack(6, 7, 1, symmetric=False))
        batched = project_psd_batch(stack)
        for index in range(stack.shape[0]):
            assert np.allclose(
                batched[index], project_psd(stack[index]), atol=1e-12
            )

    def test_project_psd_batch_rejects_bad_shapes(self):
        with pytest.raises(SolverError):
            project_psd_batch(np.ones((3, 3)))
        with pytest.raises(SolverError):
            project_psd_batch(np.ones((2, 3, 4)))


class TestRepairAndDualBound:
    def test_repair_produces_feasible_stack(self):
        stack = random_cost_stack(5, 6, 2)
        diagonal = np.ones(6)
        repaired = repair_feasible_batch(stack, diagonal)
        for mat in repaired:
            assert np.allclose(np.diag(mat), 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(mat).min() >= -1e-8

    def test_dual_bound_dominates_solved_primal(self):
        costs = random_cost_stack(6, 5, 3)
        results = solve_diagonal_sdp_batch(costs, tolerance=1e-8)
        primals = np.stack([res.matrix for res in results])
        bounds = dual_upper_bound_batch(costs, primals)
        for res, bound in zip(results, bounds):
            assert res.objective <= bound + 1e-7

    def test_dual_bound_valid_for_any_primal_guess(self):
        # The certificate must upper-bound the true optimum even when the
        # primal guess is garbage — that is what the screening cascade
        # relies on to refute advantage without solving.
        costs = random_cost_stack(4, 5, 4)
        sloppy = repair_feasible_batch(
            random_cost_stack(4, 5, 99), np.ones(5)
        )
        bounds = dual_upper_bound_batch(costs, sloppy)
        truths = solve_diagonal_sdp_batch(costs, tolerance=1e-9)
        for truth, bound in zip(truths, bounds):
            assert truth.objective <= bound + 1e-7

    def test_dual_bound_rejects_mismatched_stacks(self):
        with pytest.raises(SolverError):
            dual_upper_bound_batch(np.ones((2, 3, 3)), np.ones((3, 3, 3)))
        with pytest.raises(SolverError):
            dual_upper_bound_batch(np.ones((3, 3)), np.ones((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_dual_bound_rejects_nonfinite_costs(self, value):
        # Unchecked, the eigensolver raises LinAlgError instead.
        costs = random_cost_stack(3, 4, 16)
        costs[1, 2, 3] = value
        primals = np.broadcast_to(np.eye(4), costs.shape)
        with pytest.raises(SolverError, match="non-finite"):
            dual_upper_bound_batch(costs, primals)


class TestStackedSolver:
    def test_chsh_slice_reaches_tsirelson_bias(self):
        results = solve_diagonal_sdp_batch(
            chsh_cost()[None], tolerance=1e-9
        )
        assert len(results) == 1
        assert results[0].converged
        assert results[0].objective == pytest.approx(
            math.sqrt(2) / 2, abs=1e-7
        )

    def test_matches_serial_solver_per_slice(self):
        # A single game is solved as a stack of one.
        costs = random_cost_stack(10, 6, 5)
        batched = solve_diagonal_sdp_batch(costs, tolerance=1e-8)
        for cost, res in zip(costs, batched):
            serial = solve_diagonal_sdp_batch(cost[None], tolerance=1e-8)[0]
            assert res.converged == serial.converged
            assert res.iterations == serial.iterations
            assert res.objective == pytest.approx(
                serial.objective, abs=1e-9
            )
            assert res.upper_bound == pytest.approx(
                serial.upper_bound, abs=1e-9
            )
            assert np.allclose(res.matrix, serial.matrix, atol=1e-9)

    def test_freezing_keeps_fast_slices_converged(self):
        # A trivial slice (identity cost) converges orders of magnitude
        # before a hard one; the frozen iterate must stay at its own
        # convergence point rather than drifting with the batch.
        easy = np.eye(4)[None]
        hard = random_cost_stack(1, 4, 6)
        batched = solve_diagonal_sdp_batch(
            np.concatenate([easy, hard]), tolerance=1e-9
        )
        serial_easy = solve_diagonal_sdp_batch(easy, tolerance=1e-9)[0]
        assert batched[0].iterations == serial_easy.iterations
        assert batched[0].iterations < batched[1].iterations
        assert batched[0].objective == pytest.approx(4.0, abs=1e-6)

    def test_custom_diagonal(self):
        diagonal = np.array([2.0, 3.0, 4.0])
        results = solve_diagonal_sdp_batch(
            np.eye(3)[None], diagonal=diagonal
        )
        assert results[0].objective == pytest.approx(9.0, abs=1e-6)
        assert np.allclose(np.diag(results[0].matrix), diagonal)

    def test_warm_start_cuts_iterations(self):
        costs = np.stack([chsh_cost(), chsh_cost()])
        cold = solve_diagonal_sdp_batch(costs, tolerance=1e-9)
        warm = solve_diagonal_sdp_batch(
            costs,
            tolerance=1e-9,
            warm_starts=np.stack([res.matrix for res in cold]),
        )
        for cold_res, warm_res in zip(cold, warm):
            assert warm_res.iterations <= cold_res.iterations
            assert warm_res.objective == pytest.approx(
                cold_res.objective, abs=1e-7
            )

    def test_empty_batch(self):
        assert solve_diagonal_sdp_batch(np.zeros((0, 4, 4))) == []

    def test_unconverged_slices_reported(self):
        costs = random_cost_stack(3, 6, 7)
        results = solve_diagonal_sdp_batch(costs, max_iterations=3)
        assert all(not res.converged for res in results)
        assert all(res.iterations == 3 for res in results)
        # Even unconverged, the repaired primal and dual bound bracket.
        for res in results:
            assert res.objective <= res.upper_bound + 1e-7

    def test_rejects_bad_inputs(self):
        with pytest.raises(SolverError):
            solve_diagonal_sdp_batch(np.ones((3, 3)))
        with pytest.raises(SolverError):
            solve_diagonal_sdp_batch(np.ones((2, 3, 4)))
        with pytest.raises(SolverError):
            solve_diagonal_sdp_batch(
                np.ones((2, 3, 3)), diagonal=np.ones(2)
            )
        with pytest.raises(SolverError):
            solve_diagonal_sdp_batch(
                np.ones((2, 3, 3)), diagonal=np.zeros(3)
            )
        with pytest.raises(SolverError):
            solve_diagonal_sdp_batch(
                np.ones((2, 3, 3)), warm_starts=np.ones((1, 3, 3))
            )

    def test_rejects_nonsquare_warm_starts(self):
        # Checked before symmetrizing, which would raise NumPy's
        # broadcast error instead.
        with pytest.raises(SolverError):
            solve_diagonal_sdp_batch(
                np.ones((2, 3, 3)), warm_starts=np.ones((2, 3, 4))
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_costs(self, value):
        costs = random_cost_stack(3, 4, 9)
        costs[1, 0, 0] = value
        with pytest.raises(SolverError, match="non-finite"):
            solve_diagonal_sdp_batch(costs)

    def test_rejects_nonfinite_warm_starts(self):
        warm = np.broadcast_to(np.eye(4), (3, 4, 4)).copy()
        warm[2, 1, 3] = np.inf
        with pytest.raises(SolverError, match="non-finite"):
            solve_diagonal_sdp_batch(
                random_cost_stack(3, 4, 10), warm_starts=warm
            )

    def test_emits_metrics(self):
        with capture() as registry:
            solve_diagonal_sdp_batch(random_cost_stack(4, 5, 8))
        assert registry.counter("sdp.batch.solves").value == 1
        assert registry.counter("sdp.batch.games").value == 4
        assert registry.counter("sdp.batch.iterations").value > 0


def assert_same_result(a, b) -> None:
    assert a.iterations == b.iterations
    assert a.objective == b.objective
    assert a.upper_bound == b.upper_bound
    assert a.converged == b.converged
    assert np.array_equal(a.matrix, b.matrix)


def one_line(num: int, index: int, value: float, fill: float) -> np.ndarray:
    line = np.full(num, fill)
    line[index] = value
    return line


class TestDecisionLines:
    """Per-slice lines stop a slice once its bounds settle on which side
    of its band the optimum lies."""

    def test_stop_above_returns_an_achievable_value(self):
        costs = random_cost_stack(4, 6, 11)
        reference = solve_diagonal_sdp_batch(costs)
        line = np.array([res.objective for res in reference]) - 0.05
        with capture() as registry:
            results = solve_diagonal_sdp_batch(costs, stop_above=line)
        assert registry.counter("sdp.batch.verdict_stops").value == 4
        for res, ref, value in zip(results, reference, line):
            assert not res.converged
            assert res.iterations % LINE_CHECK_PERIOD == 0
            assert res.iterations < ref.iterations
            assert np.array_equal(np.diag(res.matrix), np.ones(6))
            assert np.linalg.eigvalsh(res.matrix).min() >= -1e-9
            assert res.objective > value
            assert res.objective <= ref.upper_bound + 1e-9

    def test_stop_below_returns_a_rigorous_bound(self):
        costs = random_cost_stack(4, 6, 12)
        reference = solve_diagonal_sdp_batch(costs)
        line = np.array([res.objective for res in reference]) + 0.05
        with capture() as registry:
            results = solve_diagonal_sdp_batch(costs, stop_below=line)
        assert registry.counter("sdp.batch.verdict_stops").value == 4
        for res, ref, value in zip(results, reference, line):
            assert not res.converged
            assert res.iterations % LINE_CHECK_PERIOD == 0
            assert res.iterations < ref.iterations
            assert res.upper_bound <= value
            assert res.upper_bound >= ref.objective - 1e-9

    def test_unreachable_lines_change_nothing(self):
        costs = random_cost_stack(5, 6, 13)
        plain = solve_diagonal_sdp_batch(costs)
        with capture() as registry:
            lined = solve_diagonal_sdp_batch(
                costs,
                stop_below=np.full(5, -np.inf),
                stop_above=np.full(5, np.inf),
            )
        assert registry.counter("sdp.batch.verdict_stops").value == 0
        for a, b in zip(plain, lined):
            assert_same_result(a, b)

    def test_slice_ignores_the_lines_of_other_slices(self):
        costs = random_cost_stack(4, 6, 14)
        reference = solve_diagonal_sdp_batch(costs)
        optima = np.array([res.objective for res in reference])
        # Slice 0 stops above, slice 2 stops below, slices 1 and 3 run on.
        below = one_line(4, 2, optima[2] + 0.05, -np.inf)
        above = one_line(4, 0, optima[0] - 0.05, np.inf)
        together = solve_diagonal_sdp_batch(
            costs, stop_below=below, stop_above=above
        )
        assert not together[0].converged and not together[2].converged
        for index in range(4):
            alone = solve_diagonal_sdp_batch(
                costs,
                stop_below=one_line(4, index, below[index], -np.inf),
                stop_above=one_line(4, index, above[index], np.inf),
            )
            assert_same_result(together[index], alone[index])
        for index in (1, 3):
            assert_same_result(together[index], reference[index])

    @pytest.mark.parametrize("name", ["stop_below", "stop_above"])
    @pytest.mark.parametrize("shape", [(), (2,), (3, 1)])
    def test_rejects_misshapen_lines(self, name, shape):
        with pytest.raises(SolverError, match=name):
            solve_diagonal_sdp_batch(
                random_cost_stack(3, 4, 15), **{name: np.zeros(shape)}
            )
