"""Crash consistency of parallel loop sweeps when a worker is killed.

The scenario-store side lives in ``tests/scenarios/test_crash_consistency``;
this module covers the sweep side: a parallel loop-impedance sweep that
loses a worker mid-flight still matches the serial sweep bit for bit.
The sweep is hierarchical: an exact sweep of this many points solves
from one reduction, in process, and reaches no pool.
"""

import os
import time

import numpy as np

from repro.loop.extractor import LoopPort, extract_loop_impedance
from repro.resilience import faults
from repro.resilience.faults import inject_faults

FREQS = np.logspace(8, 10, 6)


def _port(ports):
    return LoopPort(
        signal=ports["driver"],
        reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )


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
                max_segment_length=150e-6, assembly="hierarchical",
                workers=1,
            )
        monkeypatch.setattr(faults, "maybe_disrupt", crash_once)
        monkeypatch.setenv("REPRO_DEADLINE", "30")  # harmless; exercises plumbing
        with inject_faults():
            survived = extract_loop_impedance(
                layout, _port(ports), FREQS,
                max_segment_length=150e-6, assembly="hierarchical",
                workers=2,
            )
        assert marker.exists()  # the worker really died
        assert np.array_equal(survived.impedance, baseline.impedance)
        assert survived.report.by_kind("worker-lost")
        assert survived.report.by_kind("restart")

