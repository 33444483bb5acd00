"""Checkpoint files, fingerprints, and kill/resume round trips."""

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
    Checkpoint,
    CheckpointError,
    CheckpointMismatch,
    load_checkpoint,
    save_checkpoint,
    verify_fingerprint,
)

#: No retries, no halvings: the first injected fault is fatal, which is
#: exactly what the kill/resume tests need.
BRITTLE = ResiliencePolicy(
    escalation="safe", max_retries=0, max_step_halvings=0
)


def _rlc_line():
    """A small RLC line driven by a ramp: SPICE-expressible, oscillatory."""
    c = Circuit("ckpt-line")
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.0, 20e-12, 30e-12))
    c.add_resistor("rs", "in", "a", 25.0)
    c.add_inductor("l1", "a", "b", 2e-9)
    c.add_resistor("rl", "b", "out", 5.0)
    c.add_capacitor("cl", "out", GROUND, 100e-15)
    c.add_capacitor("ca", "a", GROUND, 20e-15)
    return c


T_STOP, DT = 1e-9, 1e-12  # 1000 steps


class TestFileFormat:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(
            path, "transient", {"fingerprint": {"n": 3}, "step": 7},
            {"x": np.arange(3.0)},
        )
        snap = load_checkpoint(path)
        assert isinstance(snap, Checkpoint)
        assert snap.kind == "transient"
        assert snap.meta["step"] == 7
        assert np.array_equal(snap.arrays["x"], np.arange(3.0))

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not an npz container")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_npz_without_header_rejected(self, tmp_path):
        path = tmp_path / "plain.ckpt"
        with open(path, "wb") as f:
            np.savez(f, x=np.zeros(2))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_fingerprint_mismatch_names_the_keys(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(
            path, "transient",
            {"fingerprint": {"dt": 1e-12, "size": 5}}, {},
        )
        snap = load_checkpoint(path)
        with pytest.raises(CheckpointMismatch) as err:
            verify_fingerprint(
                snap, "transient", {"dt": 2e-12, "size": 5}, path
            )
        assert "dt" in str(err.value)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, "loop-sweep", {"fingerprint": {}}, {})
        with pytest.raises(CheckpointMismatch):
            verify_fingerprint(load_checkpoint(path), "transient", {}, path)

    def test_interval_validated(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointConfig(tmp_path / "x.ckpt", interval=0)


class TestTransientKillResume:
    def test_killed_run_resumes_and_matches_uninterrupted(self, tmp_path):
        # Acceptance: a transient killed mid-run resumes from its
        # checkpoint and the final waveform matches an uninterrupted run
        # to <= 1e-9 relative error.
        circuit = _rlc_line()
        with inject_faults():
            baseline = transient_analysis(
                circuit, T_STOP, DT, policy=BRITTLE
            )

        path = tmp_path / "line.ckpt"
        config = CheckpointConfig(path, interval=100)
        # ``transient.step`` fires once per 100-step block: the seventh
        # block (from step 600) raises, and so does its per-step replay.
        with inject_faults(FaultSpec(
            "transient.step", "raise", after=6, max_hits=None
        )):
            with pytest.raises(InjectedFault):
                transient_analysis(
                    _rlc_line(), T_STOP, DT, policy=BRITTLE,
                    checkpoint=config,
                )
        assert path.exists()  # emergency snapshot survived the "crash"
        killed = load_checkpoint(path)
        assert killed.meta["reason"].startswith("emergency")
        assert 0 < killed.meta["step"] < 1000

        with inject_faults():
            resumed = transient_analysis(
                _rlc_line(), T_STOP, DT, policy=BRITTLE,
                checkpoint=CheckpointConfig(path, interval=100),
            )
        scale = float(np.abs(baseline.data).max())
        rel_err = float(np.abs(resumed.data - baseline.data).max()) / scale
        assert rel_err <= 1e-9
        assert np.array_equal(resumed.times, baseline.times)
        assert resumed.report.by_kind("resume")
        assert not path.exists()  # finished run cleans up its checkpoint

    def test_periodic_checkpoints_written_and_cleaned(self, tmp_path):
        path = tmp_path / "periodic.ckpt"
        with inject_faults():
            result = transient_analysis(
                _rlc_line(), T_STOP, DT, policy=BRITTLE,
                checkpoint=CheckpointConfig(path, interval=250),
            )
        assert result.report.by_kind("checkpoint")
        assert not path.exists()

    def test_keep_leaves_the_file(self, tmp_path):
        path = tmp_path / "kept.ckpt"
        with inject_faults():
            transient_analysis(
                _rlc_line(), T_STOP, DT, policy=BRITTLE,
                checkpoint=CheckpointConfig(path, interval=250, keep=True),
            )
        assert path.exists()
        snap = load_checkpoint(path)
        assert snap.kind == "transient"
        assert "deck" in snap.meta  # the RLC line is SPICE-expressible

    def test_mismatched_checkpoint_refuses_to_resume(self, tmp_path):
        path = tmp_path / "stale.ckpt"
        with inject_faults(FaultSpec(
            "transient.step", "raise", after=6, max_hits=None
        )):
            with pytest.raises(InjectedFault):
                transient_analysis(
                    _rlc_line(), T_STOP, DT, policy=BRITTLE,
                    checkpoint=CheckpointConfig(path, interval=100),
                )
        with inject_faults():
            with pytest.raises(CheckpointMismatch):
                transient_analysis(  # different dt => different run
                    _rlc_line(), T_STOP, 2e-12, policy=BRITTLE,
                    checkpoint=CheckpointConfig(path, interval=100),
                )


class TestLoopSweepKillResume:
    @pytest.fixture(scope="class")
    def loop_setup(self, signal_grid_structure):
        from repro.geometry.clocktree import TapPoint  # noqa: F401
        from repro.loop.extractor import LoopPort

        layout, ports = signal_grid_structure
        port = LoopPort(
            signal=ports["driver"], reference=ports["gnd_driver"],
            short_signal=ports["receiver"],
            short_reference=ports["gnd_receiver"],
        )
        return layout, port

    def test_killed_sweep_resumes_where_it_stopped(self, tmp_path, loop_setup):
        from repro.loop.extractor import extract_loop_impedance

        layout, port = loop_setup
        freqs = np.logspace(8, 10, 6)
        with inject_faults():
            baseline = extract_loop_impedance(
                layout, port, freqs, policy=BRITTLE
            )

        path = tmp_path / "sweep.ckpt"
        with inject_faults(FaultSpec("loop.freq", "raise", after=3)):
            with pytest.raises(InjectedFault):
                extract_loop_impedance(
                    layout, port, freqs, policy=BRITTLE,
                    checkpoint=CheckpointConfig(path, interval=2),
                )
        snap = load_checkpoint(path)
        assert snap.kind == "loop-sweep"
        done = snap.arrays["done"]
        assert 0 < int(done.sum()) < len(freqs)

        with inject_faults():
            resumed = extract_loop_impedance(
                layout, port, freqs, policy=BRITTLE,
                checkpoint=CheckpointConfig(path, interval=2),
            )
        assert np.allclose(
            resumed.impedance, baseline.impedance, rtol=1e-9, atol=0.0
        )
        assert resumed.report.by_kind("resume")
        assert not path.exists()
