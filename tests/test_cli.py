"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro`` in a subprocess with a timeout, so a
    command that hangs fails its test instead of hanging it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])


class TestCommands:
    def test_chsh(self, capsys):
        assert main(["chsh"]) == 0
        out = capsys.readouterr().out
        assert "0.750000" in out
        assert "0.853553" in out

    def test_fig3_small(self, capsys):
        code = main(
            ["fig3", "--games", "3", "--points", "0.0", "--vertices", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P(quantum advantage)" in out
        assert "0.0000" in out

    def test_fig4_small(self, capsys):
        code = main(
            [
                "fig4",
                "--balancers",
                "10",
                "--steps",
                "50",
                "--loads",
                "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "classical random" in out
        assert "quantum CHSH" in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--balancers", "1", "--loads", "1.0"],
            ["--balancers", "3", "--loads", "5"],
            ["--steps", "0"],
            ["--loads", "0"],
            ["--balancers", "0"],
            ["--fidelity", "1.5"],
            ["--availability", "2"],
            ["--measurement-error", "0.7"],
            ["--outage", "0.5", "--availability", "0.9"],
        ],
        ids=["one-balancer", "one-server", "no-steps", "zero-load",
             "no-balancers", "fidelity-above-one", "availability-above-one",
             "measurement-error-above-half", "outage-below-one-step"],
    )
    def test_fig4_rejects_arguments_no_point_accepts(
        self, extra, capsys, monkeypatch
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("fig4 swept before checking its arguments")

        monkeypatch.setattr("repro.lb.sweep_load", no_sweep)
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4", "--balancers", "10", "--steps", "20", "--loads",
                  "1.0", "--jobs", "1", *extra])
        assert excinfo.value.code == 2
        assert "fig4: invalid arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--balancers", "1"],
            ["--steps", "0"],
            ["--loads", "0"],
            ["--group-size", "1"],
        ],
        ids=["one-balancer", "no-steps", "zero-load", "singleton-groups"],
    )
    def test_groups_rejects_arguments_no_point_accepts(
        self, extra, capsys, monkeypatch
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("groups swept before checking its arguments")

        monkeypatch.setattr("repro.lb.sweep_load", no_sweep)
        with pytest.raises(SystemExit) as excinfo:
            main(["groups", "--balancers", "12", "--steps", "20", "--loads",
                  "1.0", "--jobs", "1", *extra])
        assert excinfo.value.code == 2
        assert "groups: invalid arguments" in capsys.readouterr().err

    def test_ecmp(self, capsys):
        assert main(["ecmp"]) == 0
        out = capsys.readouterr().out
        assert "best classical" in out
        assert "0.666667" in out

    def test_budget(self, capsys):
        code = main(
            [
                "budget",
                "--source-fidelity",
                "0.99",
                "--fiber-km",
                "0.1",
                "--storage-us",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quantum advantage?" in out
        assert "yes" in out

    def test_budget_noisy_loses_advantage(self, capsys):
        code = main(
            [
                "budget",
                "--source-fidelity",
                "0.6",
                "--fiber-km",
                "0.1",
                "--storage-us",
                "0",
            ]
        )
        assert code == 0
        assert "NO" in capsys.readouterr().out

    def test_values(self, capsys):
        assert main(["values", "--seed", "1", "--vertices", "4"]) == 0
        out = capsys.readouterr().out
        assert "classical value" in out
        assert "quantum value" in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--vertices", "1"],
            ["--vertices", "0"],
            ["--p-exclusive", "1.5"],
            ["--vertices", "30"],
        ],
        ids=["one-vertex", "no-vertices", "p-above-one", "intractable"],
    )
    def test_values_rejects_arguments_it_cannot_use(self, extra):
        # A sampler that redraws forever (a graph of fewer than two
        # vertices has no edge to draw) fails by the timeout.
        result = run_cli("values", *extra)
        assert result.returncode == 2
        assert "values: invalid arguments" in result.stderr

    def test_mermin(self, capsys):
        assert main(["mermin", "--max-players", "4"]) == 0
        out = capsys.readouterr().out
        assert "0.750000" in out
        assert "1.000000" in out

    def test_mermin_validates_players(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mermin", "--max-players", "2"])
        assert excinfo.value.code == 2
        assert "mermin: --max-players" in capsys.readouterr().err

    def test_mermin_ten_players(self):
        # Every GHZ row is perfect; the table must not take minutes.
        result = run_cli("mermin", "--max-players", "10")
        assert result.returncode == 0
        rows = [
            line.split("|")
            for line in result.stdout.splitlines()
            if line.split("|")[0].strip().isdigit()
        ]
        assert [int(row[0]) for row in rows] == list(range(3, 11))
        assert all(row[2].strip() == "1.000000" for row in rows)

    def test_mermin_rejects_games_too_large_to_hold(self):
        # 4^12 predicate entries: refused before anything is computed.
        result = run_cli("mermin", "--max-players", "12")
        assert result.returncode == 2
        assert "mermin: invalid arguments" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["regime", "--balancers", "3"],
            ["regime", "--loads", "0"],
            ["regime", "--fidelities", "1.5"],
            ["budget", "--source-fidelity", "1.5"],
            ["budget", "--fiber-km", "-1"],
            ["calibrate", "--fidelity", "2"],
            ["calibrate", "--samples", "0"],
        ],
        ids=["regime-odd-fleet", "regime-zero-load", "regime-fidelity-above-one",
             "budget-fidelity-above-one", "budget-negative-fiber",
             "calibrate-fidelity-above-one", "calibrate-no-samples"],
    )
    def test_rejects_arguments_it_cannot_use(self, argv, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("regime swept before checking its arguments")

        monkeypatch.setattr("repro.lb.regime.SweepRunner", no_sweep)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"{argv[0]}: invalid arguments" in capsys.readouterr().err

    def test_regime_smoke(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "regime.json"
        code = main(
            ["regime", "--deadlines-ms", "0.3", "2.5",
             "--distances-km", "100", "--loads", "1.2",
             "--fidelities", "0.95", "--horizon-services", "40",
             "--jobs", "1", "--no-cache", "--json", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Regime map: distance 100 km" in out
        assert "legend: Q = quantum" in out
        # 0.3 ms sits below the 100 km one-way bound: forced classical.
        assert "0.3 ms   | S" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["cells"]) == 2
        assert sum(payload["counts"].values()) == 2

    def test_regime_telemetry_summary(self, capsys):
        code = main(
            ["regime", "--deadlines-ms", "2.5", "--distances-km", "50",
             "--loads", "1.2", "--fidelities", "0.95",
             "--horizon-services", "40", "--jobs", "1", "--no-cache",
             "--telemetry", "summary"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== telemetry ==" in out
        assert '"regime.cells": 1' in out

    def test_calibrate_good_hardware(self, capsys):
        code = main(
            ["calibrate", "--fidelity", "0.98", "--samples", "4000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certified non-classical?" in out
        assert "yes" in out

    def test_calibrate_bad_hardware(self, capsys):
        code = main(
            ["calibrate", "--fidelity", "0.5", "--samples", "2000"]
        )
        assert code == 0
        assert "NO" in capsys.readouterr().out


class TestTelemetry:
    def test_off_by_default(self, capsys):
        assert main(["chsh"]) == 0
        assert "telemetry" not in capsys.readouterr().out

    def test_summary_prints_manifest_and_spans(self, capsys):
        code = main(
            ["fig4", "--balancers", "8", "--steps", "40", "--loads", "1.0",
             "--jobs", "1", "--telemetry", "summary"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== telemetry ==" in out
        assert '"kind": "cli"' in out
        assert '"fig4.runs": 2' in out
        assert "cli.fig4" in out  # the span tree root
        assert "wall=" in out

    def test_json_writes_payload(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "t.json"
        code = main(
            ["fig4", "--balancers", "8", "--steps", "40", "--loads", "1.0",
             "--jobs", "1", "--telemetry", f"json:{out_path}"]
        )
        assert code == 0
        assert f"telemetry written to {out_path}" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["manifest"]["kind"] == "cli"
        assert payload["manifest"]["seeds"] == [0]
        assert payload["spans"][0]["name"] == "cli.fig4"

    def test_telemetry_works_on_simple_commands(self, capsys):
        assert main(["chsh", "--telemetry", "summary"]) == 0
        out = capsys.readouterr().out
        assert "== telemetry ==" in out
        assert '"command": "chsh"' in out

    def test_bad_telemetry_value_rejected(self):
        with pytest.raises(SystemExit):
            main(["chsh", "--telemetry", "loud"])
        with pytest.raises(SystemExit):
            main(["chsh", "--telemetry", "json:"])


class TestResume:
    FIG3 = ["fig3", "--games", "3", "--points", "0.0", "--vertices", "4"]

    def test_listing_with_no_journals(self, capsys):
        assert main(["resume"]) == 0
        assert "no journaled sweeps found" in capsys.readouterr().out

    def test_fig3_journals_and_lists(self, capsys):
        from repro.exec import list_journals

        assert main(self.FIG3) == 0
        capsys.readouterr()
        states = list_journals()
        assert len(states) == 1
        header = states[0].header
        assert header["label"] == "fig3"
        assert header["meta"]["argv"][0] == "fig3"
        assert main(["resume"]) == 0
        out = capsys.readouterr().out
        assert header["run_key"] in out
        assert "complete" in out

    def test_listing_shows_failures_and_remaining_compute(self, capsys):
        """The listing reads failed points, the mean compute time of a
        computed point and the worker-seconds left from the journal's
        own records; cache-served records (0.0 s) stay out of the
        mean."""
        from repro.exec import SweepJournal

        journal = SweepJournal("feedfacecafe0001")
        journal.write_header(label="demo", total=6)
        for index, status, wall in [
            (0, "done", 0.25),
            (1, "done", 0.0),  # served from the cache
            (2, "failed", 2.0),
            (3, "done", 0.75),
        ]:
            journal.record_point(
                key=f"k{index}",
                index=index,
                seed=index,
                status=status,
                value=float(index),
                wall_seconds=wall,
                error="ValueError: boom" if status == "failed" else None,
            )
        journal.close()
        assert main(["resume"]) == 0
        out = capsys.readouterr().out
        header, _, row = out.splitlines()[1:4]
        cells = dict(
            zip(
                [c.strip() for c in header.split("|")],
                [c.strip() for c in row.split("|")],
            )
        )
        assert cells["points"] == "3/6"
        assert cells["failed"] == "1"
        assert cells["s/point"] == "1.000"
        # Three points left (the failed one recomputes), at 1.0 s each.
        assert cells["left (worker-s)"] == "3.0"
        assert cells["status"] == "interrupted"

    def test_resume_by_prefix_reruns_command(self, capsys):
        from repro.exec import list_journals

        assert main(self.FIG3) == 0
        capsys.readouterr()
        run_key = list_journals()[0].header["run_key"]
        assert main(["resume", run_key[:6]]) == 0
        out = capsys.readouterr().out
        assert f"resuming [fig3] {run_key}" in out
        assert "P(quantum advantage)" in out

    def test_unknown_run_key_exits(self, capsys):
        with pytest.raises(SystemExit, match="no journaled sweep matches"):
            main(["resume", "deadbeef"])

    def test_no_journal_flag_suppresses_journal(self, capsys):
        from repro.exec import list_journals

        assert main([*self.FIG3, "--no-journal"]) == 0
        assert list_journals() == []
