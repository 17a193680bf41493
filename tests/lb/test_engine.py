"""Parity suite: the vectorized engine vs the reference deque loop.

Both engines draw every chunk through the same ``draw_batch`` and
``assign_batch`` calls, so for every batched policy — uniform random,
round robin, the dedicated pool, every group and paired policy, and the
degraded policies — they must produce bit-identical ``SimulationResult``
values, degradation reports included: under the paper and serial
disciplines, at any chunk size, with odd balancer counts, early stops
and trace replays. Uniform random and round robin also draw the same
numbers under any chunking, so their runs do not depend on the chunk
size either.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._blocks import SCAN_BLOCK_CELLS
from repro.errors import ConfigurationError
from repro.games import AffinityGraph
from repro.games.chsh import colocation_quantum_strategy
from repro.lb import (
    CHSHPairedAssignment,
    ClassicalGraphPairedAssignment,
    ClassicalGroupAssignment,
    ClassicalPairedAssignment,
    DedicatedPoolAssignment,
    GHZGroupAssignment,
    GroupAssignment,
    MultiClassPairedAssignment,
    OmniscientAssignment,
    PowerOfTwoAssignment,
    RandomAssignment,
    RoundRobinAssignment,
    SameTypePairedAssignment,
    SIMULATION_ENGINES,
    WeightedCHSHPairedAssignment,
    WGroupAssignment,
    XORPairedAssignment,
    make_degraded_chsh,
    run_timestep_simulation,
    vectorization_unsupported_reason,
)
from repro.lb.engine import window_dtype
from repro.lb.policies import AssignmentPolicy
from repro.net.workload import BernoulliTaskMix, MultiClassTaskMix

from tests._stattools import run_pair
from tests._traces import record_bernoulli_trace

EXACT_POLICIES = [RandomAssignment, RoundRobinAssignment]
VEC_DISCIPLINES = ["paper", "serial"]

_three_classes = partial(
    MultiClassTaskMix, class_probabilities=(0.4, 0.3, 0.3)
)
#: Vertex 0 exclusive, vertices 1 and 2 two C subtypes that do not mix.
_TRIANGLE = AffinityGraph.complete(3, {(0, 1), (0, 2), (1, 2)})
#: Every batched policy family: name -> (policy factory (N, M),
#: workload factory (N)).
BUILT_IN_BATCH_POLICIES = {
    "random": (RandomAssignment, BernoulliTaskMix),
    "round_robin": (RoundRobinAssignment, BernoulliTaskMix),
    "dedicated_pool": (DedicatedPoolAssignment, BernoulliTaskMix),
    "classical_pairs": (ClassicalPairedAssignment, BernoulliTaskMix),
    "same_type_pairs": (SameTypePairedAssignment, BernoulliTaskMix),
    "chsh_pairs": (CHSHPairedAssignment, BernoulliTaskMix),
    "sticky_pairs": (
        partial(
            GroupAssignment,
            strategy=colocation_quantum_strategy(),
            sticky_servers=True,
        ),
        BernoulliTaskMix,
    ),
    "ghz3": (GHZGroupAssignment, BernoulliTaskMix),
    "ghz4": (partial(GHZGroupAssignment, group_size=4), BernoulliTaskMix),
    "w3": (WGroupAssignment, BernoulliTaskMix),
    "classical_group3": (ClassicalGroupAssignment, BernoulliTaskMix),
    "multi_class3": (MultiClassPairedAssignment, _three_classes),
    "xor_graph_pairs": (
        partial(XORPairedAssignment, affinity=_TRIANGLE), _three_classes
    ),
    "classical_graph_pairs": (
        partial(ClassicalGraphPairedAssignment, affinity=_TRIANGLE),
        _three_classes,
    ),
    "weighted_pairs": (WeightedCHSHPairedAssignment, BernoulliTaskMix),
    "degraded": (
        partial(make_degraded_chsh, availability=0.6), BernoulliTaskMix
    ),
    "degraded_random_fallback": (
        partial(make_degraded_chsh, availability=0.6, fallback="random"),
        BernoulliTaskMix,
    ),
    "degraded_outage": (
        partial(make_degraded_chsh, availability=0.7, mean_outage_steps=3.0),
        BernoulliTaskMix,
    ),
    "degraded_measurement_error": (
        partial(
            make_degraded_chsh, fidelity=0.95, availability=0.8,
            measurement_error=0.05,
        ),
        BernoulliTaskMix,
    ),
}


def run_engines(make_policy, make_workload, *, n, m, **kwargs):
    """One run on each engine, each with a fresh policy and workload;
    returns ``(reference, vectorized)``."""
    return tuple(
        run_timestep_simulation(
            make_policy(n, m), workload=make_workload(n), engine=engine,
            **kwargs,
        )
        for engine in ("reference", "vectorized")
    )


class TestExactParity:
    @pytest.mark.parametrize("policy_factory", EXACT_POLICIES)
    @pytest.mark.parametrize("discipline", VEC_DISCIPLINES)
    def test_bit_identical(self, policy_factory, discipline):
        for seed in range(5):
            reference, vectorized = run_pair(
                policy_factory, discipline=discipline, seed=seed
            )
            assert reference == vectorized

    def test_odd_balancer_count(self):
        reference, vectorized = run_pair(RandomAssignment, n=13, m=7, seed=3)
        assert reference == vectorized

    def test_single_server_pool(self):
        reference, vectorized = run_pair(RandomAssignment, n=9, m=1, seed=2)
        assert reference == vectorized

    def test_max_total_queue_early_stop(self):
        reference, vectorized = run_pair(
            RandomAssignment, n=60, m=4, timesteps=3000, seed=5,
            max_total_queue=400.0,
        )
        assert reference == vectorized
        assert vectorized.timesteps < 2400  # it actually stopped early

    def test_trace_workload(self):
        trace = record_bernoulli_trace(15, 300, np.random.default_rng(7))
        reference = run_timestep_simulation(
            RandomAssignment(15, 8), timesteps=300, seed=1,
            workload=trace.replayer(), engine="reference",
        )
        vectorized = run_timestep_simulation(
            RandomAssignment(15, 8), timesteps=300, seed=1,
            workload=trace.replayer(), engine="vectorized",
        )
        assert reference == vectorized

    def test_cycled_trace_workload(self):
        trace = record_bernoulli_trace(10, 40, np.random.default_rng(8))
        reference = run_timestep_simulation(
            RandomAssignment(10, 6), timesteps=150, seed=1,
            workload=trace.replayer(cycle=True), engine="reference",
        )
        vectorized = run_timestep_simulation(
            RandomAssignment(10, 6), timesteps=150, seed=1,
            workload=trace.replayer(cycle=True), engine="vectorized",
        )
        assert reference == vectorized

    def test_exhausted_trace_raises_in_batch(self):
        trace = record_bernoulli_trace(10, 40, np.random.default_rng(8))
        with pytest.raises(ConfigurationError, match="exhausted"):
            run_timestep_simulation(
                RandomAssignment(10, 6), timesteps=150, seed=1,
                workload=trace.replayer(), engine="vectorized",
            )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=17),
        m=st.integers(min_value=1, max_value=9),
        timesteps=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=10_000),
        discipline=st.sampled_from(VEC_DISCIPLINES),
        p_colocate=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        chunk_steps=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        warmup_fraction=st.sampled_from([0.0, 0.2, 0.5]),
        max_total_queue=st.one_of(
            st.just(float("inf")), st.integers(min_value=0, max_value=60)
        ),
    )
    def test_property_parity(
        self, n, m, timesteps, seed, discipline, p_colocate, chunk_steps,
        warmup_fraction, max_total_queue,
    ):
        reference, vectorized = run_pair(
            RandomAssignment, n=n, m=m, timesteps=timesteps, seed=seed,
            discipline=discipline, p_colocate=p_colocate,
            chunk_steps=chunk_steps, warmup_fraction=warmup_fraction,
            max_total_queue=float(max_total_queue),
        )
        assert reference == vectorized

    @pytest.mark.parametrize("discipline", VEC_DISCIPLINES)
    def test_warmup_strictly_inside_a_chunk(self, discipline):
        """Warmup step 30 falls mid-chunk (chunks of 16 start at 16 and
        32), so the kernel call is split there."""
        reference, vectorized = run_pair(
            RandomAssignment, n=14, m=9, timesteps=150, seed=3,
            discipline=discipline, chunk_steps=16,
        )
        assert reference == vectorized
        assert vectorized.timesteps == 120

    def test_early_stop_before_warmup(self):
        """Stopping before the warmup step leaves nothing measured."""
        reference, vectorized = run_pair(
            RandomAssignment, n=40, m=4, timesteps=400, seed=6,
            warmup_fraction=0.5, max_total_queue=100.0, chunk_steps=7,
        )
        assert reference == vectorized
        assert vectorized.timesteps == 0
        assert vectorized.served == 0

    def test_overload_compacts_and_grows_the_window(self):
        """Load 2 with tiny chunks: queues age across many chunks, so the
        window both drops dead rows and grows past its first capacity."""
        from repro.obs.metrics import capture

        with capture() as registry:
            reference, vectorized = run_pair(
                RandomAssignment, n=24, m=12, timesteps=300, seed=2,
                p_colocate=0.3, chunk_steps=4,
            )
            window_bytes = registry.snapshot()["gauges"]["engine.window_bytes"]
        assert reference == vectorized
        first_window = 4 * 2 * 12 * window_dtype(24).itemsize
        assert window_bytes > first_window

    @pytest.mark.parametrize(
        "n, itemsize", [(127, 1), (128, 2), (32_767, 2), (32_768, 4)]
    )
    def test_window_cells_hold_a_whole_step(self, n, itemsize):
        """One server and only type-C tasks: each step's one cell counts
        all N arrivals, the most a cell can hold. The window takes the
        narrowest signed type that holds N, on each side of the int8 and
        int16 limits; a narrower one would wrap the count."""
        from repro.obs.metrics import capture

        with capture() as registry:
            reference, vectorized = run_pair(
                RandomAssignment, n=n, m=1, timesteps=4, seed=1,
                p_colocate=1.0,
            )
            window_bytes = registry.snapshot()["gauges"]["engine.window_bytes"]
        assert reference == vectorized
        assert window_dtype(n).itemsize == itemsize
        assert window_bytes == 4 * 2 * 1 * itemsize


class TestPolicyParity:
    """Every batched policy, bit for bit across engines."""

    @pytest.mark.parametrize("discipline", VEC_DISCIPLINES)
    @pytest.mark.parametrize("name", sorted(BUILT_IN_BATCH_POLICIES))
    def test_bit_identical_at_every_chunk_size(self, name, discipline):
        """23 balancers leave an odd balancer and group leftovers."""
        for chunk_steps in (None, 1, 7):
            reference, vectorized = run_engines(
                *BUILT_IN_BATCH_POLICIES[name], n=23, m=19, timesteps=60, seed=3,
                discipline=discipline, chunk_steps=chunk_steps,
            )
            assert reference == vectorized, chunk_steps

    @pytest.mark.parametrize("name", sorted(BUILT_IN_BATCH_POLICIES))
    def test_early_stop(self, name):
        """Load 3 stops the run a few chunks in, after the warmup."""
        reference, vectorized = run_engines(
            *BUILT_IN_BATCH_POLICIES[name], n=36, m=12, timesteps=300, seed=5,
            max_total_queue=1500.0, chunk_steps=7,
        )
        assert reference == vectorized
        assert 0 < vectorized.timesteps < 240

    @pytest.mark.parametrize(
        "name", ["chsh_pairs", "dedicated_pool", "degraded", "ghz3"]
    )
    def test_trace_workload(self, name):
        trace = record_bernoulli_trace(15, 200, np.random.default_rng(7))
        reference, vectorized = run_engines(
            BUILT_IN_BATCH_POLICIES[name][0], lambda n: trace.replayer(),
            n=15, m=8, timesteps=200, seed=1, chunk_steps=7,
        )
        assert reference == vectorized


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            run_timestep_simulation(
                RandomAssignment(4, 4), timesteps=10, engine="warp"
            )
        assert set(SIMULATION_ENGINES) == {"auto", "reference", "vectorized"}

    def test_feedback_policy_falls_back_cleanly(self):
        """engine='auto' must route PowerOfTwoAssignment through the
        reference loop (it needs per-step queue observations)."""
        auto = run_timestep_simulation(
            PowerOfTwoAssignment(12, 8), timesteps=120, seed=4, engine="auto"
        )
        reference = run_timestep_simulation(
            PowerOfTwoAssignment(12, 8), timesteps=120, seed=4,
            engine="reference",
        )
        assert auto == reference

    def test_feedback_policy_vectorized_raises(self):
        with pytest.raises(ConfigurationError, match="queue feedback"):
            run_timestep_simulation(
                PowerOfTwoAssignment(12, 8), timesteps=120,
                engine="vectorized",
            )

    def test_fifo_discipline_vectorized_raises(self):
        with pytest.raises(ConfigurationError, match="discipline"):
            run_timestep_simulation(
                RandomAssignment(8, 4), timesteps=50, discipline="fifo",
                engine="vectorized",
            )

    def test_fifo_auto_falls_back(self):
        auto = run_timestep_simulation(
            RandomAssignment(8, 4), timesteps=120, seed=2,
            discipline="fifo", engine="auto",
        )
        reference = run_timestep_simulation(
            RandomAssignment(8, 4), timesteps=120, seed=2,
            discipline="fifo", engine="reference",
        )
        assert auto == reference

    def test_unsupported_reason_reporting(self):
        assert vectorization_unsupported_reason(
            RandomAssignment(8, 4), "paper"
        ) is None
        assert "fifo" in vectorization_unsupported_reason(
            RandomAssignment(8, 4), "fifo"
        )
        assert "queue feedback" in vectorization_unsupported_reason(
            PowerOfTwoAssignment(8, 4), "paper"
        )

    def test_feedback_policy_still_observes_queues(self):
        """Regression for the skip-when-no-op optimization: overriding
        policies keep receiving per-step observations."""
        calls = []

        class Recorder(RandomAssignment):
            def observe_queues(self, queue_lengths):
                calls.append(list(queue_lengths))

        run_timestep_simulation(Recorder(6, 4), timesteps=25, seed=1)
        assert len(calls) == 25
        assert all(len(c) == 4 for c in calls)

    @pytest.mark.parametrize(
        "policy_factory", [PowerOfTwoAssignment, OmniscientAssignment]
    )
    def test_feedback_policy_draws_one_step_chunks(self, policy_factory):
        """The chunk size cannot change what a feedback policy sees."""
        runs = [
            run_timestep_simulation(
                policy_factory(12, 8), timesteps=60, seed=2,
                chunk_steps=chunk_steps,
            )
            for chunk_steps in (None, 1, 7)
        ]
        assert runs[0] == runs[1] == runs[2]


class TestBatchedWorkloads:
    def test_bernoulli_batch_matches_sequential(self):
        """25 one-step batches draw the same tasks as one batch."""
        mix = BernoulliTaskMix(11, 0.4)
        batch = mix.draw_batch(np.random.default_rng(3), 25)
        sequential_rng = np.random.default_rng(3)
        sequential = np.concatenate(
            [mix.draw_batch(sequential_rng, 1) for _ in range(25)]
        )
        assert np.array_equal(batch, sequential)

    def test_batch_validation(self):
        mix = BernoulliTaskMix(5)
        with pytest.raises(ConfigurationError):
            mix.draw_batch(np.random.default_rng(0), 0)

    def test_trace_batch_advances_cursor(self):
        trace = record_bernoulli_trace(6, 30, np.random.default_rng(2))
        replayer = trace.replayer()
        rng = np.random.default_rng(0)
        first = replayer.draw_batch(rng, 10)
        second = replayer.draw_batch(rng, 10)
        assert not np.array_equal(first, second)
        # A one-step batch continues from the cursor.
        tasks = replayer.draw_batch(rng, 1)
        assert tasks[0].tolist() == [t.bit for t in trace.rounds[20]]


class TestBatchedPolicies:
    def test_batch_shape_validation(self):
        policy = RandomAssignment(6, 4)
        with pytest.raises(ConfigurationError):
            policy.assign_batch(np.zeros((5, 7), dtype=np.uint8),
                                np.random.default_rng(0))

    def test_base_policy_reports_no_batch(self):
        with pytest.raises(NotImplementedError, match="no batched"):
            AssignmentPolicy(4, 4).assign_batch(
                np.zeros((1, 4), dtype=np.uint8), np.random.default_rng(0)
            )
        assert PowerOfTwoAssignment(4, 4).needs_queue_feedback()
        assert OmniscientAssignment(4, 4).needs_queue_feedback()
        assert not RandomAssignment(4, 4).needs_queue_feedback()

    def test_round_robin_batch_continues_sequential_state(self):
        """One 6-step batch equals six one-step batches."""
        a, b = RoundRobinAssignment(5, 7), RoundRobinAssignment(5, 7)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        tasks = BernoulliTaskMix(5).draw_batch(np.random.default_rng(1), 6)
        batch = a.assign_batch(tasks, rng_a)
        for step in range(6):
            sequential = b.assign_batch(tasks[step : step + 1], rng_b)
            assert np.array_equal(batch[step], sequential[0])
        # both policies now agree on the next rotation
        assert np.array_equal(a._next, b._next)

    def test_sticky_pairs_stay_fixed_in_batch(self):
        policy = CHSHPairedAssignment(12, 8)
        policy._sticky = True
        tasks = BernoulliTaskMix(12).draw_batch(np.random.default_rng(0), 50)
        choices = policy.assign_batch(tasks, np.random.default_rng(1))
        for pair in range(6):
            used = set(choices[:, 2 * pair]) | set(choices[:, 2 * pair + 1])
            assert used == set(policy._sticky_servers[pair])

    def test_batch_outcomes_match_behavior_table(self):
        """Born sampling via the flat table reproduces p(a,b|x,y)."""
        policy = CHSHPairedAssignment(2, 2)
        rng = np.random.default_rng(5)
        tasks = np.ones((4000, 2), dtype=np.uint8)  # both type-C: x=y=1
        choices = policy.assign_batch(tasks, rng)
        colocated = (choices[:, 0] == choices[:, 1]).mean()
        p_same = policy._behavior[1, 1, 0, 0] + policy._behavior[1, 1, 1, 1]
        assert colocated == pytest.approx(p_same, abs=0.03)

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_invalid_choices_rejected_by_both_engines(self, engine):
        class OffByOne(RandomAssignment):
            def assign_batch(self, tasks, rng):
                return super().assign_batch(tasks, rng) + 1

        with pytest.raises(ConfigurationError, match="invalid server 4"):
            run_timestep_simulation(
                OffByOne(8, 4), timesteps=50, seed=0, engine=engine
            )

    def test_paired_batch_rejects_alien_inputs(self):
        from repro.errors import StrategyError

        policy = CHSHPairedAssignment(4, 4)
        bad = np.full((3, 4), 7, dtype=np.int64)
        with pytest.raises(StrategyError):
            policy.assign_batch(bad, np.random.default_rng(0))

    @pytest.mark.parametrize("name", sorted(BUILT_IN_BATCH_POLICIES))
    def test_built_in_batches_are_int32(self, name):
        """23 balancers leave an odd balancer and group leftovers."""
        make_policy, workload = BUILT_IN_BATCH_POLICIES[name]
        tasks = workload(23).draw_batch(np.random.default_rng(1), 9)
        choices = make_policy(23, 19).assign_batch(
            tasks, np.random.default_rng(2)
        )
        assert choices.dtype == np.int32
        assert choices.shape == (9, 23)
        assert 0 <= choices.min() and choices.max() < 19


class TestChunkedStreaming:
    """The streaming engine: chunk-size invariance, early stops across
    chunk boundaries, and the bounded sliding window."""

    @pytest.mark.parametrize("policy_factory", EXACT_POLICIES)
    @pytest.mark.parametrize("discipline", VEC_DISCIPLINES)
    @pytest.mark.parametrize("chunk_steps", [1, 7, 64])
    def test_chunk_size_is_bit_invisible(
        self, policy_factory, discipline, chunk_steps
    ):
        """Exact policies are bit-identical to the reference engine for
        *any* chunk size — chunking must not perturb a single value."""
        reference, vectorized = run_pair(
            policy_factory, timesteps=300, seed=4, discipline=discipline,
            chunk_steps=chunk_steps,
        )
        assert reference == vectorized

    def test_overload_keeps_old_arrivals_alive_across_chunks(self):
        """Under load > 1 queues age past many chunk boundaries; the
        window must keep those columns addressable until served."""
        reference, vectorized = run_pair(
            RandomAssignment, n=30, m=20, timesteps=600, seed=9,
            p_colocate=0.3, chunk_steps=5,
        )
        assert reference == vectorized

    @pytest.mark.parametrize("chunk_steps", [3, 50, None])
    def test_early_stop_across_chunk_boundaries(self, chunk_steps):
        reference, vectorized = run_pair(
            RandomAssignment, n=60, m=4, timesteps=3000, seed=5,
            max_total_queue=400.0, chunk_steps=chunk_steps,
        )
        assert reference == vectorized
        assert vectorized.timesteps < 2400

    def test_chunk_counters_and_window_gauge(self):
        from repro.obs.metrics import capture

        with capture() as registry:
            run_timestep_simulation(
                RandomAssignment(20, 16), timesteps=500, seed=1,
                engine="vectorized", chunk_steps=50,
            )
            snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.vectorized.chunks"] == 10
        assert snapshot["counters"]["engine.vectorized.steps"] == 500
        # The sliding window stays far below full materialization:
        # the pre-chunking engine held M x timesteps cells per type.
        window_bytes = snapshot["gauges"]["engine.window_bytes"]
        full_bytes = 2 * 16 * 500 * window_dtype(20).itemsize
        assert 0 < window_bytes < full_bytes / 2
        assert snapshot["gauges"]["engine.steps_per_sec"] > 0

    def test_single_chunk_matches_chunked(self):
        """The default chunk (one chunk at this scale) and a tiny
        chunk agree bit-for-bit: the running float accumulators are
        threaded through the kernel so the addition order matches a
        monolithic run."""
        single = run_timestep_simulation(
            RandomAssignment(24, 12), timesteps=400, seed=7,
            engine="vectorized",
        )
        tiny = run_timestep_simulation(
            RandomAssignment(24, 12), timesteps=400, seed=7,
            engine="vectorized", chunk_steps=11,
        )
        assert single == tiny


#: A wide chunk of 1.2M cells, over four blocks of SCAN_BLOCK_CELLS.
WIDE_N, WIDE_STEPS = 4000, 300
#: Traced bytes allowed beyond the arrays: Python objects, not arrays.
TRACE_SLACK = 1 << 16


def traced_peak(call):
    """``(call(), peak)``: the ``tracemalloc`` peak of the call, which
    counts only what it allocates."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestTransientMemory:
    """Wide chunks peak at their narrow results and one block of scratch:
    no draw or pass builds a chunk-wide float64 or other temporary."""

    def test_chunk_passes_allocate_one_block_of_scratch(self):
        """A wide CHSH-paired chunk peaks at its window, its draw and
        choice arrays, and one block of scratch: the uniform draws, the
        bincount and the Born sampling build no chunk-wide temporaries."""
        from repro.obs.metrics import capture

        n, m, steps = WIDE_N, WIDE_N, WIDE_STEPS
        # Warm up: imports and the process-wide behavior table.
        run_timestep_simulation(
            CHSHPairedAssignment(20, 20), timesteps=20, seed=1,
            engine="vectorized",
        )
        with capture() as registry:
            _, peak = traced_peak(
                lambda: run_timestep_simulation(
                    CHSHPairedAssignment(n, m), timesteps=steps, seed=3,
                    engine="vectorized", chunk_steps=steps,
                )
            )
            window = registry.snapshot()["gauges"]["engine.window_bytes"]
        cells, pair_cells = steps * n, steps * (n // 2)
        arrays = (
            cells * (1 + 4)  # uint8 task bits, int32 choices
            + pair_cells * (4 + 4 + 1)  # int32 s0 and s1, uint8 input blocks
        )
        one_block = 32 * SCAN_BLOCK_CELLS  # 32 bytes of scratch a cell
        assert peak < window + arrays + one_block

    def test_bernoulli_draw_holds_one_block_of_uniforms(self):
        mix = BernoulliTaskMix(WIDE_N)
        bits, peak = traced_peak(
            lambda: mix.draw_batch(np.random.default_rng(1), WIDE_STEPS)
        )
        # One float64 uniform a cell of one block, compared into the bits.
        assert peak < bits.nbytes + 8 * SCAN_BLOCK_CELLS + TRACE_SLACK

    def test_multi_class_draw_holds_one_block_of_uniforms(self):
        mix = MultiClassTaskMix(WIDE_N)
        classes, peak = traced_peak(
            lambda: mix.draw_batch(np.random.default_rng(1), WIDE_STEPS)
        )
        # A block's float64 uniforms and its intp bisect results.
        assert peak < classes.nbytes + 16 * SCAN_BLOCK_CELLS + TRACE_SLACK

    def test_dedicated_pool_assign_holds_one_block(self):
        tasks = BernoulliTaskMix(WIDE_N).draw_batch(
            np.random.default_rng(0), WIDE_STEPS
        )
        policy = DedicatedPoolAssignment(WIDE_N, WIDE_N)
        choices, peak = traced_peak(
            lambda: policy.assign_batch(tasks, np.random.default_rng(1))
        )
        # A block's uniforms, its two scaled copies and the selection.
        assert peak < choices.nbytes + 32 * SCAN_BLOCK_CELLS + TRACE_SLACK

    def test_degraded_assign_holds_its_integer_draws_and_one_block(self):
        tasks = BernoulliTaskMix(WIDE_N).draw_batch(
            np.random.default_rng(0), WIDE_STEPS
        )
        policy = make_degraded_chsh(WIDE_N, WIDE_N, availability=0.6)
        choices, peak = traced_peak(
            lambda: policy.assign_batch(tasks, np.random.default_rng(1))
        )
        pair_cells = WIDE_STEPS * (WIDE_N // 2)
        # Bool liveness, int32 s0 and s1, uint8 input blocks; the
        # liveness and Born uniforms are drawn a block at a time.
        arrays = choices.nbytes + pair_cells * (1 + 4 + 4 + 1)
        assert peak < arrays + 32 * SCAN_BLOCK_CELLS + TRACE_SLACK


class TestResolveChunkSteps:
    def test_explicit_value_honored(self):
        from repro.lb.engine import resolve_chunk_steps

        assert resolve_chunk_steps(17, 1000, 10, 10) == 17
        # ... but never beyond the run length.
        assert resolve_chunk_steps(5000, 1000, 10, 10) == 1000

    def test_explicit_value_validated(self):
        from repro.lb.engine import resolve_chunk_steps

        with pytest.raises(ConfigurationError, match="chunk_steps"):
            resolve_chunk_steps(0, 100, 10, 10)

    def test_default_is_single_chunk_at_paper_scale(self):
        from repro.lb.engine import DEFAULT_CHUNK_STEPS, resolve_chunk_steps

        assert resolve_chunk_steps(None, 2000, 100, 100) == 2000
        assert (
            resolve_chunk_steps(None, 1_000_000, 100, 100)
            == DEFAULT_CHUNK_STEPS
        )

    def test_default_shrinks_for_wide_systems(self):
        from repro.lb.engine import (
            CHUNK_CELL_BUDGET,
            DEFAULT_CHUNK_STEPS,
            resolve_chunk_steps,
        )

        width = 4 * CHUNK_CELL_BUDGET // DEFAULT_CHUNK_STEPS
        resolved = resolve_chunk_steps(None, 1_000_000, width, 10)
        assert resolved == CHUNK_CELL_BUDGET // width
        assert resolved < DEFAULT_CHUNK_STEPS
        assert resolved >= 1
