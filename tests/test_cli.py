"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


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

    def test_mermin(self, capsys):
        assert main(["mermin", "--max-players", "4"]) == 0
        out = capsys.readouterr().out
        assert "0.750000" in out
        assert "1.000000" in out

    def test_mermin_validates_players(self):
        with pytest.raises(SystemExit):
            main(["mermin", "--max-players", "2"])

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
