"""The `repro check` subcommand end to end."""

import textwrap
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

CLEAN_DECK = textwrap.dedent("""\
    * clean driver - line - load
    V1 in 0 DC 1
    Rdrv in a 10
    L1 a b 1n
    Rload b 0 50
    C1 b 0 10f
    .end
""")

# Pairwise couplings each |k| = 0.6 < 1, yet the assembled inductance
# matrix is indefinite: the ERC must catch it before any simulation.
CORRUPTED_DECK = textwrap.dedent("""\
    * truncation-corrupted inductance block
    V1 in 0 DC 1
    Rdrv in a 10
    L1 a b 1n
    L2 b c 1n
    L3 c d 1n
    K12 L1 L2 -0.6
    K13 L1 L3 -0.6
    K23 L2 L3 -0.6
    Rload d 0 50
    .end
""")


class TestCheckDecks:
    def test_clean_deck_exits_zero(self, tmp_path, capsys):
        deck = tmp_path / "clean.sp"
        deck.write_text(CLEAN_DECK)
        assert main(["check", str(deck)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out
        assert "check: ok" in out

    def test_non_spd_deck_fails_before_simulation(self, tmp_path, capsys):
        deck = tmp_path / "corrupted.sp"
        deck.write_text(CORRUPTED_DECK)
        assert main(["check", str(deck)]) == 1
        out = capsys.readouterr().out
        assert "erc.non-passive-inductance" in out
        assert "check: FAIL" in out

    def test_suppressing_the_rule_restores_success(self, tmp_path):
        deck = tmp_path / "corrupted.sp"
        deck.write_text(CORRUPTED_DECK)
        assert main([
            "check", str(deck),
            "--suppress", "erc.non-passive-inductance",
        ]) == 0

    def test_unsupported_suffix_exits_two(self, tmp_path, capsys):
        stray = tmp_path / "notes.txt"
        stray.write_text("not a deck")
        assert main(["check", str(stray)]) == 2
        assert "unsupported input" in capsys.readouterr().out

    def test_worst_exit_code_wins_across_inputs(self, tmp_path):
        good = tmp_path / "good.sp"
        good.write_text(CLEAN_DECK)
        bad = tmp_path / "bad.sp"
        bad.write_text(CORRUPTED_DECK)
        assert main(["check", str(good), str(bad)]) == 1


class TestCheckScripts:
    def make_script(self, tmp_path, body):
        script = tmp_path / "model.py"
        script.write_text(textwrap.dedent(body))
        return script

    def test_clean_script_exits_zero(self, tmp_path, capsys):
        script = self.make_script(tmp_path, """\
            from repro.circuit.netlist import GROUND, Circuit

            c = Circuit("demo")
            c.add_vsource("v", "a", GROUND, 1.0)
            c.add_resistor("r", "a", GROUND, 10.0)
        """)
        assert main(["check", str(script)]) == 0
        assert "demo" in capsys.readouterr().out

    def test_script_stdout_is_swallowed(self, tmp_path, capsys):
        script = self.make_script(tmp_path, """\
            from repro.circuit.netlist import GROUND, Circuit

            c = Circuit("quiet")
            c.add_vsource("v", "a", GROUND, 1.0)
            c.add_resistor("r", "a", GROUND, 10.0)
            print("SCRIPT NOISE")
        """)
        assert main(["check", str(script)]) == 0
        assert "SCRIPT NOISE" not in capsys.readouterr().out

    def test_strict_escalates_warnings(self, tmp_path):
        script = self.make_script(tmp_path, """\
            from repro.circuit.netlist import GROUND, Circuit

            c = Circuit("stubby")
            c.add_vsource("v", "a", GROUND, 1.0)
            c.add_resistor("r", "a", GROUND, 10.0)
            c.add_resistor("rstub", "a", "stub", 1.0)
        """)
        assert main(["check", str(script)]) == 0
        assert main(["check", str(script), "--strict"]) == 1

    def test_missing_deck_is_a_clean_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing.sp")]) == 2
        out = capsys.readouterr().out
        assert "missing.sp" in out
        assert "check: FAIL" in out

    def test_crashing_script_is_reported_not_raised(self, tmp_path, capsys):
        script = self.make_script(tmp_path, "raise RuntimeError('boom')\n")
        assert main(["check", str(script)]) == 1
        assert "script raised RuntimeError: boom" in capsys.readouterr().out

    def test_script_calling_sys_exit_zero_is_fine(self, tmp_path):
        script = self.make_script(tmp_path, """\
            import sys

            from repro.circuit.netlist import GROUND, Circuit

            c = Circuit("exits")
            c.add_vsource("v", "a", GROUND, 1.0)
            c.add_resistor("r", "a", GROUND, 10.0)
            sys.exit(0)
        """)
        assert main(["check", str(script)]) == 0

    def test_script_calling_sys_exit_nonzero_fails(self, tmp_path, capsys):
        script = self.make_script(tmp_path, "import sys\nsys.exit(3)\n")
        assert main(["check", str(script)]) == 1
        assert "exited with status 3" in capsys.readouterr().out

    def test_script_without_circuits_is_reported(self, tmp_path, capsys):
        script = self.make_script(tmp_path, "x = 1\n")
        assert main(["check", str(script)]) == 0
        assert "no circuits constructed" in capsys.readouterr().out

    def test_sanitize_flag_surfaces_runtime_findings(self, tmp_path, capsys):
        script = self.make_script(tmp_path, """\
            import numpy as np

            from repro.circuit.mna import MNASystem
            from repro.circuit.netlist import GROUND, Circuit

            matrix = np.array([
                [1.0, -0.6, -0.6],
                [-0.6, 1.0, -0.6],
                [-0.6, -0.6, 1.0],
            ]) * 1e-9
            c = Circuit("corrupted")
            c.add_vsource("v", "a", GROUND, 1.0)
            c.add_resistor("r0", "a", "x0", 1.0)
            c.add_inductor_set(
                "Lblk", [("x0", "y0"), ("x1", "y1"), ("x2", "y2")], matrix
            )
            for i in range(3):
                c.add_resistor(f"ry{i}", f"y{i}", GROUND, 1.0)
                if i:
                    c.add_resistor(f"rx{i}", f"x{i}", GROUND, 1.0)
            MNASystem(c).build_matrices()
        """)
        assert main(["check", str(script), "--sanitize"]) == 1
        out = capsys.readouterr().out
        assert "sanitizer findings" in out
        assert "qa.non-spd" in out


@pytest.mark.slow
class TestExamplesStayClean:
    def test_every_example_script_checks_clean(self, capsys):
        examples = sorted(EXAMPLES.glob("*.py"))
        assert examples
        assert main(["check"] + [str(p) for p in examples]) == 0
