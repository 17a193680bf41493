"""Tests of the benchmark suite itself: ``python -m pytest benchmarks/suite``.

They check the arithmetic the suite reports (self time, compare verdicts,
failure tallies), that broken outputs and crashed repeats are caught, that
sweep repeats never see each other's cache or journal, and that
``BENCHMARK.json`` describes what the suite emits.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

from benchmarks.suite import compare, harness, tracing
from benchmarks.suite.__main__ import main

if str(harness.SRC) not in sys.path:
    sys.path.insert(0, str(harness.SRC))

from benchmarks.suite import workloads  # noqa: E402  (needs src on the path)


def _outcome(checks: dict, digest: str = "same") -> dict:
    """A finished repeat's result with only the fields summaries read."""
    return {
        "setup_s": 0.5,
        "unit_s": 2.0,
        "throughput": 100.0,
        "peak_rss_mib": 50.0,
        "unit": "games/s",
        "checks": checks,
        "digest": digest,
        "counters": {},
        "extras": {},
        "env": {},
    }


# -- self time -----------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ["unit", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["a.inner", 1, 2.0, 3.0],
        ["b", 0, 3.5, 6.0],  # overlaps a: [3.5, 4] must not count twice
        ["c", 0, 9.0, 12.0],  # overhangs the parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_times_aggregate_by_name_and_report_uncalled_layers():
    spans = [
        ["unit", -1, 0.0, 5.0],
        ["exec.cache_get", 0, 1.0, 2.0],
        ["exec.cache_get", 0, 3.0, 3.5],
        ["backend.serve_chunk", 1, 1.2, 1.7],
    ]
    metrics = tracing.layer_times(spans)
    assert metrics["unit.self_s"] == pytest.approx(3.5)
    assert metrics["exec.cache_get.self_s"] == pytest.approx(1.0)
    assert metrics["exec.cache_get.calls"] == 2
    assert metrics["backend.serve_chunk.self_s"] == pytest.approx(0.5)
    assert metrics["sdp.solve_partition_sdp.self_s"] == 0.0
    assert metrics["sdp.solve_partition_sdp.calls"] == 0


# -- compare ---------------------------------------------------------------


def _record(**metrics) -> dict:
    units = {"throughput": "games/s", "setup_s": "s", "fail_frac": "ratio"}
    return {
        "seed": 1,
        "workloads": {
            "w": {
                "metrics": {
                    name: {"unit": units[name], **harness.describe(samples)}
                    for name, samples in metrics.items()
                }
            }
        },
    }


RULES = {
    "throughput": {"bound": 0.10, "better": "higher"},
    "setup_s": {"bound": 0.25, "better": "lower"},
    "fail_frac": dict(compare.FAIL_FRAC),
}


@pytest.mark.parametrize(
    ("base", "new", "verdict"),
    [
        ([100, 101, 99, 100, 100], [97, 98, 96, 97, 97], "within"),
        ([100, 101, 99, 100, 100], [85, 86, 84, 85, 85], "worse"),
        ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "better"),
        # Spread wider than the bound: the median move is not resolved...
        ([60, 80, 100, 120, 140], [50, 70, 90, 110, 130], "unresolved"),
        # ...unless every new sample beats every base sample,
        ([60, 80, 100, 120, 140], [200, 250, 300, 350, 400], "better"),
        # ...or every one is worse and the median fell past the bound.
        ([60, 80, 100, 120, 140], [10, 20, 30, 40, 50], "worse"),
        # One outlying repeat does not widen the spread.
        ([100, 101, 99, 100, 40], [85, 86, 84, 85, 85], "worse"),
    ],
)
def test_compare_verdicts(base, new, verdict):
    rows = compare.compare_records(
        _record(throughput=base), _record(throughput=new), RULES
    )
    assert [row["verdict"] for row in rows] == [verdict]


def test_compare_respects_direction_and_any_fail_frac_rise():
    rows = compare.compare_records(
        _record(setup_s=[1.0, 1.0, 1.0], fail_frac=[0.0]),
        _record(setup_s=[0.5, 0.5, 0.5], fail_frac=[0.01]),
        RULES,
    )
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"setup_s": "better", "fail_frac": "worse"}


def test_compare_command_exits_nonzero_on_regression(tmp_path, capsys):
    base = _record(throughput=[100, 100, 100], fail_frac=[0.0])
    paths = {}
    for name, record in {
        "base": base,
        "same": _record(throughput=[99, 100, 101], fail_frac=[0.0]),
        "slow": _record(throughput=[50, 50, 50], fail_frac=[0.0]),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(record))
    assert main(["compare", str(paths["base"]), str(paths["same"])]) == 0
    assert main(["compare", str(paths["base"]), str(paths["slow"])]) == 1
    assert "worse" in capsys.readouterr().out


# -- failure accounting ------------------------------------------------------


class _SmallFig3(workloads.Fig3Paper):
    points = (0.5,)
    games = 24


class _SmallSweepWarm(workloads.SweepWarm):
    seeds = 1
    passes = 2


def test_flipped_fig3_verdict_raises_fail_frac(tmp_path):
    workload = _SmallFig3(seed=3, workdir=tmp_path)
    workload.setup()
    output = workload.run()
    clean = workload.check(output)
    assert all(clean.values())
    output.detail[0].verdicts[0] = ~output.detail[0].verdicts[0]
    flipped = workload.check(output)
    assert not flipped["reference_verdicts"] and not flipped["stage_bounds"]
    record = harness.summarize("fig3_paper", 3, [_outcome(clean), _outcome(flipped)])
    assert record["metrics"]["fail_frac"]["median"] > 0


def test_corrupted_sweep_value_raises_fail_frac(tmp_path):
    from repro.exec import ResultCache

    workload = _SmallSweepWarm(seed=3, workdir=tmp_path)
    workload.setup()
    assert all(workload.check(workload.run()).values())
    # Overwrite one cached result with a well-formed but wrong value.
    cache = ResultCache(tmp_path / "cache")
    entry = next((tmp_path / "cache").glob("*/*.pkl"))
    hit, value = cache.get(entry.stem)
    assert hit
    cache.put(
        entry.stem,
        dataclasses.replace(value, mean_queue_length=value.mean_queue_length + 1),
    )
    checks = workload.check(workload.run())
    assert not checks["matches_cold"]
    record = harness.summarize("sweep_warm", 3, [_outcome(checks)])
    assert record["metrics"]["fail_frac"]["median"] > 0


def test_repeats_with_different_outputs_fail_repeat_identical():
    checks = {"a": True}
    record = harness.summarize(
        "w", 1, [_outcome(checks, "x"), _outcome(checks, "x"), _outcome(checks, "y")]
    )
    assert record["checks"]["attempted"] == 5
    assert record["checks"]["failed"] == 1


def test_crashed_repeat_counts_as_all_failed(monkeypatch):
    monkeypatch.setattr(harness, "REPEAT_TIMEOUT_S", 0.01)
    record = harness.run_set(["fig3_paper"], 1, repeats=2)["workloads"]["fig3_paper"]
    assert record["crashed"] == 2
    assert record["metrics"]["fail_frac"]["median"] == 1.0
    assert record["metrics"]["throughput"]["n"] == 0


def test_one_crash_among_finished_repeats_counts_its_checks():
    checks = {"a": True, "b": True}
    record = harness.summarize(
        "w", 1, [_outcome(checks), {"crashed": "exit code -9"}]
    )
    # Finished repeat: 2 checks; crashed repeat: 2 checks + repeat_identical.
    assert record["checks"] == {
        "attempted": 5,
        "failed": 3,
        "failures": ["repeat 1: crashed (exit code -9)"],
    }


# -- isolation and tracing, through real repeat processes -----------------


def test_back_to_back_sweep_cold_repeats_are_isolated():
    untraced = harness.run_repeat("sweep_cold", 1, 0)
    traced = harness.run_repeat("sweep_cold", 1, 1, trace=True)
    for outcome in (untraced, traced):
        assert "crashed" not in outcome, outcome
        assert outcome["counters"]["sweep.points.computed"] == 800
        assert outcome["counters"].get("sweep.points.resumed", 0) == 0
        assert all(outcome["checks"].values())
    assert untraced["digest"] == traced["digest"]
    layers = harness.per_layer(traced, untraced["unit_s"])
    assert {entry["name"] for entry in harness.load_spec()["per_layer"]} == set(layers)
    assert layers["exec.journal_append.calls"] >= 800
    assert layers["exec.sweep_run.calls"] == 1
    assert not (harness.RESULTS / "tmp").exists() or not any(
        (harness.RESULTS / "tmp").iterdir()
    )


# -- the descriptor ----------------------------------------------------------


def test_benchmark_json_describes_the_suite():
    spec = harness.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    record = harness.summarize("w", 1, [_outcome({"a": True})])
    assert {m["name"] for m in spec["end_to_end"]} <= set(record["metrics"])
    line = harness.result_line(record, spec, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(v["value"] is not None for v in line["metrics"].values())
