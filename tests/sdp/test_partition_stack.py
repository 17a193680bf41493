"""A stacked partition solve returns, slice by slice, its stacks of one.

``solve_partition_sdp`` takes a ``(B, n, n)`` stack of costs that share
one partition. Every step acts on each slice alone, and a slice leaves
the stack at its own convergence, decision line or iteration cap, so
slice ``i`` must equal the solve of ``costs[i:i + 1]`` bit for bit:
the same matrix bytes, objective, bound, iteration count, residuals
and convergence flag. Each slice must also equal the one-matrix loop
that the stacked solver replaced (``tests/sdp/_oracles.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.games import (
    NPA_LEVELS,
    NonlocalGame,
    build_npa_relaxation,
    sample_game_family,
)
from repro.obs import capture
from repro.sdp import solve_partition_sdp
from repro.sdp.batch import LINE_CHECK_PERIOD

from tests.sdp._oracles import solve_partition_serial


def three_output_games(count: int, seed: int) -> list[NonlocalGame]:
    """Random games with three outputs, whose relaxations pin zeros."""
    rng = np.random.default_rng(seed)
    return [
        NonlocalGame(
            name=f"three-output-{index}",
            prob_mat=np.full((2, 2), 0.25),
            pred_mat=(rng.random((3, 3, 2, 2)) < 0.5).astype(float),
        )
        for index in range(count)
    ]


#: Stacks of games that share one alphabet, hence one partition.
STACKS = {
    "random-nonlocal-2": lambda: sample_game_family(
        "random-nonlocal", 2, 0.5, 6, np.random.default_rng(1)
    ),
    "random-nonlocal-3": lambda: sample_game_family(
        "random-nonlocal", 3, 0.6, 6, np.random.default_rng(2)
    ),
    "colocation3": lambda: sample_game_family(
        "colocation3", 3, 0.4, 6, np.random.default_rng(3)
    ),
    "three-outputs": lambda: three_output_games(6, 4),
}


def relaxation_stack(kind: str, level: str):
    """``(costs, classes, zero_entries)`` of one stack of relaxations."""
    relaxations = [
        build_npa_relaxation(game, level=level) for game in STACKS[kind]()
    ]
    first = relaxations[0]
    for relaxation in relaxations:
        assert relaxation.classes == first.classes
        assert relaxation.zero_entries == first.zero_entries
    costs = np.stack([relaxation.cost for relaxation in relaxations])
    return costs, first.classes, first.zero_entries


def assert_identical(result, reference):
    assert result.matrix.tobytes() == reference.matrix.tobytes()
    assert result.objective == reference.objective
    assert result.upper_bound == reference.upper_bound
    assert result.iterations == reference.iterations
    assert result.primal_residual == reference.primal_residual
    assert result.dual_residual == reference.dual_residual
    assert result.converged == reference.converged


def assert_slices_are_stacks_of_one(costs, classes, zeros, **options):
    """Solve the stack, then every slice alone; return the stacked results."""
    lines = options.pop("stop_below", None)
    stacked = solve_partition_sdp(
        costs, classes, zeros, stop_below=lines, **options
    )
    assert len(stacked) == costs.shape[0]
    for index, result in enumerate(stacked):
        alone = solve_partition_sdp(
            costs[index : index + 1],
            classes,
            zeros,
            stop_below=None if lines is None else lines[index : index + 1],
            **options,
        )[0]
        assert_identical(result, alone)
    return stacked


def mixed_lines(plain) -> np.ndarray:
    """Per-slice lines: none, unreachable, and just above the bound."""
    pattern = (-np.inf, -0.5, 1e-1, 1e-3, 1e-5)
    lines = []
    for index, result in enumerate(plain):
        offset = pattern[index % len(pattern)]
        if offset == -0.5:
            # Far below the optimum, so no bound ever reaches it.
            lines.append(result.objective + offset)
        else:
            lines.append(result.upper_bound + offset)
    return np.array(lines)


@pytest.mark.parametrize("level", NPA_LEVELS)
@pytest.mark.parametrize("kind", sorted(STACKS))
def test_each_slice_is_its_stack_of_one(kind, level):
    costs, classes, zeros = relaxation_stack(kind, level)
    options = {"max_iterations": 600}
    plain = assert_slices_are_stacks_of_one(costs, classes, zeros, **options)
    lines = mixed_lines(plain)
    lined = assert_slices_are_stacks_of_one(
        costs, classes, zeros, stop_below=lines, **options
    )
    # A slice without a line, or with one it never reaches, runs as if
    # it had none.
    for index in (0, 1):
        assert lined[index].iterations == plain[index].iterations
        assert lined[index].upper_bound == plain[index].upper_bound


@pytest.mark.parametrize("level", NPA_LEVELS)
@pytest.mark.parametrize("kind", sorted(STACKS))
def test_each_slice_is_the_serial_loop(kind, level):
    # The one-matrix loop the stacked solver replaced does the same
    # arithmetic in the same order, lines and cap included.
    costs, classes, zeros = relaxation_stack(kind, level)
    plain = solve_partition_sdp(costs, classes, zeros, max_iterations=600)
    lines = mixed_lines(plain)
    lined = solve_partition_sdp(
        costs, classes, zeros, max_iterations=600, stop_below=lines
    )
    for cost, line, result in zip(costs, lines, lined):
        serial = solve_partition_serial(
            cost, classes, zeros, max_iterations=600, stop_below=line
        )
        assert_identical(result, serial)


def test_lines_stop_slices_at_different_checks():
    costs, classes, zeros = relaxation_stack("random-nonlocal-3", "1+ab")
    plain = solve_partition_sdp(costs, classes, zeros)
    lines = np.array([r.upper_bound for r in plain]) + np.array(
        [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    )
    lined = assert_slices_are_stacks_of_one(
        costs, classes, zeros, stop_below=lines
    )
    stops = [r.iterations for r in lined if not r.converged]
    assert all(count % LINE_CHECK_PERIOD == 0 for count in stops)
    assert len(set(stops)) > 1
    # The counters sum over the slices of one stacked solve.
    with capture() as registry:
        solve_partition_sdp(costs, classes, zeros, stop_below=lines)
    assert registry.counter("npa.verdict_stops").value == len(stops)
    assert registry.counter("admm.iterations").value == sum(
        r.iterations for r in lined
    )
    for result, line in zip(lined, lines):
        assert result.upper_bound <= line or result.converged


def test_slices_that_converge_before_the_first_check():
    costs, classes, zeros = relaxation_stack("random-nonlocal-2", "1")
    plain = solve_partition_sdp(costs, classes, zeros, tolerance=1e-2)
    lines = np.array([r.upper_bound for r in plain]) + 1e-3
    lined = assert_slices_are_stacks_of_one(
        costs, classes, zeros, stop_below=lines, tolerance=1e-2
    )
    early = [r for r in lined if r.iterations < LINE_CHECK_PERIOD]
    assert early and all(r.converged for r in early)
    assert any(not r.converged for r in lined)


def test_iteration_cap_applies_per_slice():
    costs, classes, zeros = relaxation_stack("colocation3", "1+ab")
    capped = assert_slices_are_stacks_of_one(
        costs, classes, zeros, max_iterations=100, tolerance=1e-3
    )
    assert all(r.iterations <= 100 for r in capped)
    assert any(r.iterations == 100 and not r.converged for r in capped)
    assert any(r.iterations < 100 and r.converged for r in capped)


def test_zero_iterations_return_the_start():
    costs, classes, zeros = relaxation_stack("three-outputs", "1")
    for result in assert_slices_are_stacks_of_one(
        costs, classes, zeros, max_iterations=0
    ):
        assert result.iterations == 0
        assert not result.converged
        assert np.array_equal(result.matrix, np.eye(costs.shape[1]))


def test_empty_stack_returns_no_results():
    costs, classes, zeros = relaxation_stack("colocation3", "1")
    assert solve_partition_sdp(costs[:0], classes, zeros) == []


@pytest.mark.parametrize("shape", [(), (5,), (6, 1), (7,)])
def test_stop_below_of_the_wrong_shape_raises(shape):
    costs, classes, zeros = relaxation_stack("random-nonlocal-2", "1")
    with pytest.raises(SolverError, match="stop_below"):
        solve_partition_sdp(
            costs, classes, zeros, stop_below=np.zeros(shape)
        )
