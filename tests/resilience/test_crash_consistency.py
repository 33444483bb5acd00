"""Crash consistency of checkpointed parallel sweeps under real SIGKILLs.

The scenario-store side lives in ``tests/scenarios/test_crash_consistency``;
this module covers the ``.ckpt`` side: a parallel loop-impedance sweep
that loses a worker mid-flight still matches the serial sweep bit for
bit, and a sweep whose parent process is SIGKILLed leaves a resumable
checkpoint that converges to the serial answer.
"""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.loop.extractor import LoopPort, extract_loop_impedance
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointConfig, load_checkpoint
from repro.resilience.faults import inject_faults
from repro.resilience.supervisor import SupervisorConfig

from tests.orphans import child_pids, kill, wait_gone

REPO_ROOT = Path(__file__).resolve().parents[2]
FREQS = np.logspace(8, 10, 6)


def _port(ports):
    return LoopPort(
        signal=ports["driver"],
        reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )


def _clean_env():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for name in (
        "REPRO_FAULTS", "REPRO_WORKERS", "REPRO_DEADLINE",
        "REPRO_TIME_BUDGET", "REPRO_WORKER_RLIMIT_MB",
    ):
        env.pop(name, None)
    return env


class TestWorkerKill:
    def test_killed_worker_still_matches_serial(
        self, tmp_path, signal_grid_structure, monkeypatch
    ):
        layout, ports = signal_grid_structure
        marker = tmp_path / "killed"

        def crash_once(site):
            if site != "perf.worker":
                return
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.close(fd)
            time.sleep(0.3)
            os._exit(13)

        with inject_faults():
            baseline = extract_loop_impedance(
                layout, _port(ports), FREQS,
                max_segment_length=150e-6, workers=1,
            )
        monkeypatch.setattr(faults, "maybe_disrupt", crash_once)
        monkeypatch.setenv("REPRO_DEADLINE", "30")  # harmless; exercises plumbing
        path = tmp_path / "worker_kill.ckpt"
        with inject_faults():
            survived = extract_loop_impedance(
                layout, _port(ports), FREQS,
                max_segment_length=150e-6, workers=2,
                checkpoint=CheckpointConfig(path, interval=1),
            )
        assert marker.exists()  # the worker really died
        assert np.array_equal(survived.impedance, baseline.impedance)
        assert survived.report.by_kind("worker-lost")
        assert survived.report.by_kind("restart")
        assert not path.exists()  # completed sweep cleans its checkpoint


DRIVER = """
    import pathlib
    import time

    import numpy as np

    import repro.resilience.faults as faults
    from repro.geometry import build_signal_over_grid
    from repro.loop.extractor import LoopPort, extract_loop_impedance
    from repro.resilience.checkpoint import CheckpointConfig

    def lag(site):
        if site == "perf.worker":
            time.sleep(0.7)  # widen the kill window; results are unchanged

    faults.maybe_disrupt = lag  # forked pool workers inherit the patch

    layout, ports = build_signal_over_grid(
        length=300e-6, returns_per_side=2, pitch=8e-6
    )
    port = LoopPort(
        signal=ports["driver"],
        reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )
    extract_loop_impedance(
        layout, port, np.logspace(8, 10, 6),
        max_segment_length=150e-6, workers=2,
        checkpoint=CheckpointConfig(pathlib.Path(r"%s"), interval=1),
    )
    print("SWEEP-FINISHED")
"""


class TestParentKill:
    def test_sigkilled_parent_leaves_a_resumable_checkpoint(
        self, tmp_path, signal_grid_structure
    ):
        layout, ports = signal_grid_structure
        path = tmp_path / "parent_kill.ckpt"
        driver = tmp_path / "driver.py"
        driver.write_text(textwrap.dedent(DRIVER % path))
        workers: list[int] = []
        proc = subprocess.Popen(
            [sys.executable, str(driver)], env=_clean_env(),
            cwd=str(REPO_ROOT), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            # Kill the parent as soon as a periodic checkpoint lands.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if path.exists():
                    break
                if proc.poll() is not None:
                    pytest.fail(
                        "driver exited before it could be killed: "
                        + proc.stderr.read().decode()
                    )
                time.sleep(0.02)
            else:
                pytest.fail("driver never wrote a checkpoint")
            workers = child_pids(proc.pid)
            proc.kill()
            proc.wait(timeout=30)
            orphans = wait_gone(workers, timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
            kill(workers)
            proc.stdout.close()
            proc.stderr.close()
        # The pool workers leave with their killed parent, not linger.
        assert workers
        assert not orphans, f"workers outlived their killed parent: {orphans}"

        snap = load_checkpoint(path)
        done = int(snap.arrays["done"].sum())
        assert 0 < done < len(FREQS)
        with inject_faults():
            baseline = extract_loop_impedance(
                layout, _port(ports), FREQS,
                max_segment_length=150e-6, workers=1,
            )
            resumed = extract_loop_impedance(
                layout, _port(ports), FREQS,
                max_segment_length=150e-6, workers=2,
                checkpoint=CheckpointConfig(path, interval=2),
            )
        assert resumed.report.by_kind("resume")
        assert np.array_equal(resumed.impedance, baseline.impedance)
        assert not path.exists()
