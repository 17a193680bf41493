"""The batched Born lookup equals the right-bisect it replaces.

:func:`repro.lb.policies.born_outcomes` descends each draw's own block
of the flat cumulative table instead of bisecting the whole table. These
properties check it against ``np.searchsorted(..., side="right")``
element for element, on behaviors built to hit the edges of the proof
in its docstring: zero-probability outcomes, deterministic rows, and
rows whose cumsum ends one ulp below or above 1 (where the ``min(c, 1)``
clip binds), probed at every block with every table entry's own offset
and both its float neighbours.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lb.policies import behavior_sampling_tables, born_outcomes

ROW_KINDS = ("random", "deterministic", "ulp_below", "ulp_above")


@st.composite
def behaviors(draw, sizes=None):
    """A ``k``-party binary-output behavior, row by row: ``k`` in 2..4
    with drawn input alphabets, or the given alphabet ``sizes``."""
    if sizes is None:
        k = draw(st.integers(2, 4))
        sizes = tuple(
            draw(st.integers(1, 3 if k == 2 else 2)) for _ in range(k)
        )
    k = len(sizes)
    width = 1 << k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(int(np.prod(sizes))):
        kind = draw(st.sampled_from(ROW_KINDS))
        row = np.zeros(width)
        if kind == "deterministic":
            row[rng.integers(width)] = 1.0
        else:
            row = rng.random(width)
            row[rng.random(width) < 0.4] = 0.0
            if not row.any():
                row[rng.integers(width)] = 1.0
            row /= row.sum()
            if kind != "random":
                # Steer the last nonzero entry until the cumsum ends one
                # ulp off 1 (rounding may leave it a few ulps away).
                target = np.nextafter(1.0, 0.0 if kind == "ulp_below" else 2.0)
                last = np.flatnonzero(row)[-1]
                for _ in range(4):
                    row[last] += target - row.cumsum()[-1]
        rows.append(row)
    return np.stack(rows).reshape(sizes + (2,) * k)


def _probe_uniforms(flat, width, rng):
    """Uniform draws aimed at every table entry's own offset, both of its
    float neighbours, the ends of ``[0, 1)`` and a few random values."""
    own_block = np.repeat(np.arange(flat.size // width), width)
    offsets = flat - own_block
    candidates = np.concatenate([
        rng.random(16),
        offsets,
        np.nextafter(offsets, -np.inf),
        np.nextafter(offsets, np.inf),
        [0.0, 1.0 - 2.0**-53],
    ])
    return np.unique(candidates[(candidates >= 0.0) & (candidates < 1.0)])


def _bisect_outcomes(flat, width, block, uniform):
    position = np.searchsorted(flat, block + uniform, side="right")
    return np.minimum(position - width * block.astype(np.int64), width - 1)


def _draw_grid(flat, width, seed):
    """Every block against every probe uniform, block in the policies'
    dtype."""
    uniform = _probe_uniforms(flat, width, np.random.default_rng(seed))
    blocks = np.arange(flat.size // width, dtype=np.min_scalar_type(flat.size))
    block, uniform = np.meshgrid(blocks, uniform, indexing="ij")
    return block, uniform


@settings(max_examples=150, deadline=None)
@given(behavior=behaviors(), seed=st.integers(0, 2**32 - 1))
def test_descent_equals_right_bisect(behavior, seed):
    _, _, flat = behavior_sampling_tables(behavior)
    width = 1 << (behavior.ndim // 2)
    block, uniform = _draw_grid(flat, width, seed)
    outcome = born_outcomes(flat, width, block, uniform)
    assert outcome.dtype == block.dtype
    np.testing.assert_array_equal(
        outcome, _bisect_outcomes(flat, width, block, uniform)
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_row_selects_each_draws_table(data, seed):
    """Stacked tables (the degraded policies' live and fallback halves):
    each draw matches the bisect over its own table."""
    live = data.draw(behaviors())
    fallback = data.draw(behaviors(sizes=live.shape[: live.ndim // 2]))
    _, _, live_flat = behavior_sampling_tables(live)
    _, _, fallback_flat = behavior_sampling_tables(fallback)
    width = 1 << (live.ndim // 2)
    tables = np.concatenate([live_flat, fallback_flat])
    block, uniform = _draw_grid(live_flat, width, seed)
    block = block.astype(np.min_scalar_type(tables.size))
    dead = np.random.default_rng(seed).random(block.shape) < 0.5
    row = np.where(dead, block + live_flat.size // width, block)
    np.testing.assert_array_equal(
        born_outcomes(tables, width, block, uniform, row),
        np.where(
            dead,
            _bisect_outcomes(fallback_flat, width, block, uniform),
            _bisect_outcomes(live_flat, width, block, uniform),
        ),
    )


@pytest.mark.parametrize("high", [7, 9999, 10**4, 2**31 - 1])
@pytest.mark.parametrize("size", [1, 5, (3, 4), (7, 11)])
def test_int32_server_draws_match_int64(high, size):
    """The batched policies draw servers as int32: same values as the
    default int64 draw, and the generator ends in the same state."""
    wide, narrow = np.random.default_rng(3), np.random.default_rng(3)
    np.testing.assert_array_equal(
        wide.integers(0, high, size=size),
        narrow.integers(0, high, size=size, dtype=np.int32),
    )
    assert wide.random() == narrow.random()
    assert wide.integers(0, high) == narrow.integers(0, high)
