"""The chunk passes walk their blocks invisibly.

The workload's and the policies' uniform draws, the engine's arrival
bincount, its window scan, and the paired, group and degraded policies'
Born sampling each walk a chunk in blocks of at most
``SCAN_BLOCK_CELLS`` cells. The golden systems (20 and 23
balancers) fit in one block at the default budget, so here the budget
shrinks until every pass walks many blocks: 1-row blocks, and an uneven
2-3 rows (76 cells over rows of 20-38 cells). Every golden value, raw
``assign_batch`` digests included, and every exact-parity and streaming
case must come out unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro._blocks as blocks
from tests.lb import test_engine
from tests.lb import test_golden_policy_values as golden


@pytest.fixture(autouse=True, scope="module", params=[1, 76],
                ids=["1-row", "2-3-rows"])
def small_blocks(request):
    # Module scope: the hypothesis parity case rejects function-scoped
    # fixtures.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "SCAN_BLOCK_CELLS", request.param)
        yield request.param


def test_budget_gives_the_intended_rows(small_blocks):
    widths = [20, 23, 2 * 16, 2 * 19]  # policy rows, then window rows
    rows = {blocks.block_rows(width) for width in widths}
    assert rows == ({1} if small_blocks == 1 else {2, 3})


def test_uniform_blocks_draw_one_whole_call():
    """The blocks hold the doubles of one whole draw, row by row, and
    leave the generator where that draw leaves it."""
    whole_rng, block_rng = np.random.default_rng(4), np.random.default_rng(4)
    whole = whole_rng.random((40, 5))
    parts, drawn = zip(*(
        (part, uniform.copy())
        for part, uniform in blocks.uniform_blocks(block_rng, 40, 5)
    ))
    assert len(parts) > 1
    assert np.array_equal(np.concatenate(drawn), whole)
    assert [p.start for p in parts[1:]] == [p.stop for p in parts[:-1]]
    assert block_rng.random() == whole_rng.random()


@pytest.mark.parametrize("name", sorted(golden.POLICIES))
def test_golden_values_unchanged(name):
    assert golden.policy_values(name) == golden._golden()[name]


class TestExactParityInBlocks(test_engine.TestExactParity):
    pass


class TestChunkedStreamingInBlocks(test_engine.TestChunkedStreaming):
    pass
