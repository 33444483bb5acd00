"""The shipped examples stay runnable.

Each example is executed in-process via runpy with stdout captured;
failures here mean the public API drifted out from under the docs.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "self inductance" in out
        assert "overshoot" in out

    def test_loop_extraction(self, capsys):
        out = run_example("loop_extraction.py", capsys)
        assert "Figure 3(b)" in out
        assert "ladder fit" in out

    def test_power_grid_noise(self, capsys):
        out = run_example("power_grid_noise.py", capsys)
        assert "droop" in out

    def test_advanced_analysis(self, capsys):
        out = run_example("advanced_analysis.py", capsys)
        assert "hierarchical" in out
        assert "worst" in out
