"""``repro resume``: finishing a run from nothing but its .ckpt file."""

import numpy as np
import pytest

from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import transient_analysis
from repro.circuit.waveforms import Ramp
from repro.resilience import (
    CheckpointConfig,
    FaultSpec,
    InjectedFault,
    ResiliencePolicy,
    inject_faults,
)
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointMismatch,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.resume import describe, resume_transient

BRITTLE = ResiliencePolicy(
    escalation="safe", max_retries=0, max_step_halvings=0
)
T_STOP, DT = 1e-9, 1e-12


def _line():
    c = Circuit("resume-line")
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.0, 20e-12, 30e-12))
    c.add_resistor("rs", "in", "a", 25.0)
    c.add_inductor("l1", "a", "out", 2e-9)
    c.add_capacitor("cl", "out", GROUND, 100e-15)
    return c


@pytest.fixture()
def killed_run(tmp_path):
    """A transient checkpoint left behind by a mid-run 'crash'."""
    path = tmp_path / "crashed.ckpt"
    # ``transient.step`` fires once per 100-step block: the sixth block
    # (from step 500) raises, and so does its per-step replay.
    with inject_faults(FaultSpec(
        "transient.step", "raise", after=5, max_hits=None
    )):
        with pytest.raises(InjectedFault):
            transient_analysis(
                _line(), T_STOP, DT, policy=BRITTLE,
                checkpoint=CheckpointConfig(path, interval=100),
            )
    return path


class TestResumeTransient:
    def test_finishes_from_the_ckpt_file_alone(self, killed_run):
        # The resume path knows nothing but the file: the circuit comes
        # from the embedded deck, the state from the arrays.
        with inject_faults():
            baseline = transient_analysis(_line(), T_STOP, DT, policy=BRITTLE)
            result = resume_transient(killed_run)
        assert len(result.times) == len(baseline.times)
        for node in ("in", "a", "out"):
            scale = float(np.abs(baseline.voltage(node)).max()) or 1.0
            err = float(
                np.abs(result.voltage(node) - baseline.voltage(node)).max()
            )
            assert err / scale <= 1e-9
        assert result.report.by_kind("resume")
        assert not killed_run.exists()

    def test_keep_preserves_the_file(self, killed_run):
        with inject_faults():
            resume_transient(killed_run, keep=True)
        assert killed_run.exists()

    def test_describe_summarizes_without_resuming(self, killed_run):
        text = describe(killed_run)
        assert "transient checkpoint" in text
        assert "emergency" in text
        assert "resumable from CLI: yes" in text
        assert killed_run.exists()  # describe is read-only

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        save_checkpoint(path, "loop-sweep", {"fingerprint": {}}, {})
        with pytest.raises(CheckpointMismatch):
            resume_transient(path)

    def test_missing_deck_is_a_clear_error(self, killed_run):
        snap = load_checkpoint(killed_run)
        del snap.meta["deck"]
        save_checkpoint(killed_run, "transient", snap.meta, snap.arrays)
        with pytest.raises(CheckpointError) as err:
            resume_transient(killed_run)
        assert "no embedded SPICE deck" in str(err.value)


class TestResumeCLI:
    def test_info_flag(self, killed_run, capsys):
        from repro.cli import main

        assert main(["resume", str(killed_run), "--info"]) == 0
        out = capsys.readouterr().out
        assert "transient checkpoint" in out

    def test_full_cli_resume_writes_csv(self, killed_run, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "waves.csv"
        with inject_faults():
            code = main(["resume", str(killed_run), "--out", str(csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed transient" in out
        table = np.genfromtxt(csv, delimiter=",", names=True)
        assert len(table) == int(round(T_STOP / DT)) + 1
        assert "out" in table.dtype.names

    def test_cli_reports_unreadable_checkpoint(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert main(["resume", str(bad)]) == 1
        assert "resume failed" in capsys.readouterr().out
