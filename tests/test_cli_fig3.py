"""Regression tests for the fig3 CLI: sweep plumbing, RNG, telemetry.

The fig3 command routes through :class:`~repro.exec.runner.SweepRunner`
with one :class:`~repro.sim.rng.RandomStreams` substream per point, so a
point's value is a pure function of ``(vertices, p, games, seed)`` —
independent of worker count, point order, which other points ride in
the same invocation, and cache state. Each test pins one of those
independences.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_ARGS = [
    "fig3",
    "--games", "10",
    "--points", "0.0", "0.25", "0.5", "0.75", "1.0",
    "--seed", "7",
    "--jobs", "1",
]

#: Exact output of ``repro fig3 --games 10 --points 0.0 0.25 0.5 0.75 1.0
#: --seed 7``. Pinned: a drift here means the sampled games or the
#: decision rule changed, which silently redraws Fig 3.
GOLDEN_OUTPUT = """\
Fig 3: 5-vertex graphs, 10 games/point
P(edge exclusive) | P(quantum advantage)
------------------+---------------------
0.0000            | 0.0000
0.2500            | 0.7000
0.5000            | 0.6000
0.7500            | 0.6000
1.0000            | 0.0000"""


def run_fig3(capsys, *extra: str) -> str:
    assert main([*GOLDEN_ARGS, *extra]) == 0
    return capsys.readouterr().out


def table_rows(output: str) -> dict[float, float]:
    rows = {}
    for line in output.splitlines():
        parts = line.split("|")
        if len(parts) != 2:
            continue
        try:
            rows[float(parts[0])] = float(parts[1])
        except ValueError:
            continue
    return rows


def normalized(output: str) -> str:
    return "\n".join(line.rstrip() for line in output.rstrip().splitlines())


class TestGoldenOutput:
    def test_table_matches_golden(self, capsys):
        assert normalized(run_fig3(capsys)) == GOLDEN_OUTPUT

    def test_reference_method_matches_golden(self, capsys):
        out = main(
            ["fig3", "--games", "6", "--points", "0.25", "0.5", "--seed",
             "7", "--method", "reference", "--no-cache"]
        )
        assert out == 0
        reference = table_rows(capsys.readouterr().out)
        assert main(
            ["fig3", "--games", "6", "--points", "0.25", "0.5", "--seed",
             "7", "--method", "batched", "--no-cache"]
        ) == 0
        batched = table_rows(capsys.readouterr().out)
        assert reference == batched


class TestSweepIndependence:
    def test_parallel_matches_serial(self, capsys):
        serial = run_fig3(capsys, "--no-cache")
        parallel_out = main([*GOLDEN_ARGS[:-2], "--jobs", "2", "--no-cache"])
        assert parallel_out == 0
        assert capsys.readouterr().out == serial

    def test_point_value_independent_of_order_and_subset(self, capsys):
        base = ["fig3", "--games", "8", "--seed", "3", "--no-cache",
                "--points"]
        assert main([*base, "0.25", "0.5"]) == 0
        forward = table_rows(capsys.readouterr().out)
        assert main([*base, "0.5", "0.25"]) == 0
        reversed_ = table_rows(capsys.readouterr().out)
        assert main([*base, "0.5"]) == 0
        alone = table_rows(capsys.readouterr().out)
        assert forward == reversed_
        assert alone[0.5] == forward[0.5]

    def test_cache_replay_is_identical(self, capsys, tmp_path):
        cold = run_fig3(capsys)
        warm = run_fig3(capsys)
        assert warm == cold


class TestTelemetry:
    def test_manifest_records_cascade_and_config(self, tmp_path, capsys):
        out_path = tmp_path / "telemetry.json"
        assert main(
            [*GOLDEN_ARGS, "--no-cache", "--telemetry", f"json:{out_path}"]
        ) == 0
        payload = json.loads(out_path.read_text())
        manifest = payload["manifest"]
        assert manifest["kind"] == "cli"
        assert manifest["config"]["command"] == "fig3"
        assert manifest["config"]["method"] == "auto"
        assert manifest["seeds"] == [7]
        counters = manifest["metrics"]["counters"]
        # 5 points x 10 games, every game decided by exactly one stage.
        assert counters["fig3.cascade.games"] == 50
        decided = sum(
            counters.get(f"fig3.cascade.{stage}", 0)
            for stage in ("perfect", "lower", "upper", "sdp")
        )
        assert decided == 50
        assert counters["sweep.points.computed"] == 5
        span_names = {span["name"] for span in payload["spans"]}
        assert "cli.fig3" in span_names

    def test_cache_hits_surface_in_manifest(self, tmp_path, capsys):
        out_path = tmp_path / "warm.json"
        run_fig3(capsys)
        assert main(
            [*GOLDEN_ARGS, "--telemetry", f"json:{out_path}"]
        ) == 0
        manifest = json.loads(out_path.read_text())["manifest"]
        assert manifest["cache_hits"] == 5
        assert manifest["cache_misses"] == 0
        # Cache replay runs no cascade at all.
        counters = manifest["metrics"]["counters"]
        assert counters.get("fig3.cascade.games", 0) == 0


class TestValidation:
    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--method", "sorcery"])

    @pytest.mark.parametrize("family", ["colocation3", "random-nonlocal"])
    def test_rejects_reference_method_for_non_xor_family(
        self, family, capsys
    ):
        cache_root = Path(os.environ["REPRO_CACHE_DIR"])
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--games", "3", "--points", "0.5", "--method",
                  "reference", "--game-family", family])
        assert excinfo.value.code == 2
        assert "--method reference" in capsys.readouterr().err
        # Rejected before any sweep: no cache entry, no journal.
        assert not cache_root.exists()
