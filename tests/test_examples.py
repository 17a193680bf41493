"""Smoke tests: the example scripts must run and print their headlines.

Only the fast examples run here (the full set is exercised manually /
in CI with longer budgets); each is executed in-process with a stubbed
``__main__`` guard via runpy.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


class TestQuickstart:
    def test_prints_paper_values(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "0.750000" in out
        assert "0.853553" in out
        assert "Monte-Carlo" in out


class TestXorGameDesigner:
    def test_strategy_achieves_the_sdp_optimum(self, capsys):
        out = run_example("xor_game_designer.py", capsys)
        assert (
            "explicit quantum strategy achieves 0.833333 "
            "(SDP optimum 0.833333)"
        ) in out


class TestNoisyHardware:
    def test_prints_budget_table(self, capsys):
        out = run_example("noisy_hardware.py", capsys)
        assert "advantage" in out
        assert "Maximum storage time" in out


class TestTestbedCalibration:
    def test_prints_certification(self, capsys):
        out = run_example("testbed_calibration.py", capsys)
        assert "certified" in out
        assert "pairs needed" in out


class TestEcmpStudy:
    @pytest.mark.slow
    def test_prints_negative_result(self, capsys):
        out = run_example("ecmp_study.py", capsys)
        assert "No quantum strategy found beats the classical value" in out
