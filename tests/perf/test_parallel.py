"""Parallel frequency sweeps: bit-identical to serial, resilient to pool loss."""

import os
import time

import numpy as np
import pytest

from repro.circuit.ac import ac_analysis, ac_impedance
from repro.circuit.netlist import GROUND, Circuit
from repro.loop.extractor import LoopPort, extract_loop_impedance
from repro.perf.parallel import SweepSpec, explicit_workers, parallel_sweep
from repro.resilience import faults
from repro.resilience.faults import FaultSpec, inject_faults
from repro.resilience.report import RunReport
from repro.resilience.supervisor import (
    SupervisorConfig, chunk_indices, worker_count,
)


def make_port(ports):
    return LoopPort(
        signal=ports["driver"],
        reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )


def rlc_ladder(n=6):
    c = Circuit("ladder")
    prev = "p"
    for k in range(n):
        mid = f"m{k}"
        nxt = f"n{k}"
        c.add_resistor(f"r{k}", prev, mid, 3.0 + k)
        c.add_inductor(f"l{k}", mid, nxt, 1e-9)
        c.add_capacitor(f"c{k}", nxt, GROUND, 0.2e-12)
        prev = nxt
    c.add_resistor("rterm", prev, GROUND, 50.0)
    return c


class TestChunking:
    def test_covers_all_indices_contiguously(self):
        chunks = chunk_indices(np.arange(17), workers=3)
        flat = np.concatenate(chunks)
        assert np.array_equal(flat, np.arange(17))

    def test_explicit_chunk_size(self):
        chunks = chunk_indices(np.arange(10), workers=2, chunk=4)
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_empty_indices(self):
        assert chunk_indices(np.array([], dtype=int), workers=4) == []

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            chunk_indices(np.arange(4), workers=1, chunk=0)


class TestWorkerCount:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert worker_count(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert worker_count() == 5
        assert explicit_workers()

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        import os

        assert worker_count() == (os.cpu_count() or 1)
        assert not explicit_workers()
        assert explicit_workers(2)

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            worker_count()
        with pytest.raises(ValueError):
            worker_count(0)

    def test_errors_name_the_offending_value_and_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'many'"):
            worker_count()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match=r"REPRO_WORKERS='0'"):
            worker_count()
        monkeypatch.delenv("REPRO_WORKERS")
        with pytest.raises(ValueError, match=r"workers=-2"):
            worker_count(-2)
        with pytest.raises(ValueError, match="'three'"):
            worker_count("three")

    def test_explicit_workers_validates_the_env_at_the_gate(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", "a few")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            explicit_workers()


class TestACParallelEqualsSerial:
    freqs = np.logspace(6, 10, 9)

    def test_ac_impedance_bit_identical(self):
        with inject_faults():
            serial = ac_impedance(rlc_ladder(), self.freqs, ("p", GROUND))
            parallel = ac_impedance(
                rlc_ladder(), self.freqs, ("p", GROUND), workers=3
            )
        assert np.array_equal(serial, parallel)

    def test_ac_analysis_bit_identical(self):
        stimulus = {}
        circuit = rlc_ladder()
        circuit.add_isource("iin", "p", GROUND, 0.0)
        stimulus = {"iin": 1.0 + 0.0j}
        with inject_faults():
            serial = ac_analysis(circuit, self.freqs, stimulus)
            parallel = ac_analysis(circuit, self.freqs, stimulus, workers=2)
        assert np.array_equal(serial.x, parallel.x)

    def test_single_point_stays_serial(self):
        # One frequency cannot be fanned out; must not hang or fork.
        z1 = ac_impedance(rlc_ladder(), [1e9], ("p", GROUND), workers=4)
        z2 = ac_impedance(rlc_ladder(), [1e9], ("p", GROUND), workers=1)
        assert np.array_equal(z1, z2)


class TestLoopParallelEqualsSerial:
    # An exact sweep of 4 or more points solves from one reduction, in
    # process; the hierarchical sweep reaches the pool at every size.
    def test_figure3_sweep_bit_identical(self, signal_grid_structure):
        layout, ports = signal_grid_structure
        freqs = np.logspace(7, 10.7, 8)
        with inject_faults():
            serial = extract_loop_impedance(
                layout, make_port(ports), freqs,
                max_segment_length=150e-6, assembly="hierarchical",
                workers=1,
            )
            parallel = extract_loop_impedance(
                layout, make_port(ports), freqs,
                max_segment_length=150e-6, assembly="hierarchical",
                workers=3,
            )
        assert np.array_equal(serial.impedance, parallel.impedance)

    def test_worker_count_does_not_change_results(self,
                                                  signal_grid_structure):
        layout, ports = signal_grid_structure
        freqs = np.logspace(8, 10, 5)
        with inject_faults():
            results = [
                extract_loop_impedance(
                    layout, make_port(ports), freqs,
                    max_segment_length=150e-6, assembly="hierarchical",
                    workers=w,
                ).impedance
                for w in (1, 2, 4)
            ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


class TestPoolDegradation:
    # Hierarchical, so that the multi-point sweep reaches the pool.
    def test_pool_fault_degrades_to_serial(self, signal_grid_structure):
        layout, ports = signal_grid_structure
        freqs = np.logspace(8, 10, 5)
        with inject_faults():
            reference = extract_loop_impedance(
                layout, make_port(ports), freqs,
                max_segment_length=150e-6, assembly="hierarchical",
                workers=1,
            )
        with inject_faults(FaultSpec("perf.pool", "raise", probability=1.0)):
            degraded = extract_loop_impedance(
                layout, make_port(ports), freqs,
                max_segment_length=150e-6, assembly="hierarchical",
                workers=3,
            )
        assert np.array_equal(reference.impedance, degraded.impedance)
        downgrades = degraded.report.by_kind("downgrade")
        assert downgrades
        assert "serial" in downgrades[0].detail


def _claim(path):
    """Atomically claim a sentinel file; True for exactly one claimant."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class TestSupervisedSweep:
    """Deterministic worker faults recovered by the supervisor.

    ``faults.maybe_disrupt`` is monkeypatched with deterministic fakes;
    forked pool workers inherit the patched module, so the faults fire
    in the worker processes without any probabilistic injection.
    """

    freqs = np.linspace(1e6, 1e9, 8)

    @staticmethod
    def tiny():
        # (G + jwC) x = b with G = I, C = 0: port voltage 1.0 everywhere.
        return SweepSpec(
            g_matrix=np.eye(2),
            c_matrix=np.zeros((2, 2)),
            b=np.array([1.0, 0.0], dtype=complex),
            site="tiny",
            port=(0, -1),
        )

    def serial_reference(self):
        out = np.zeros(len(self.freqs), dtype=complex)
        with inject_faults():
            parallel_sweep(self.tiny(), self.freqs, out, workers=1)
        return out

    def test_crashed_worker_chunk_is_reissued(
        self, tmp_path, monkeypatch, supervision
    ):
        marker = tmp_path / "crashed"

        def crash_once(site):
            if site == "perf.worker" and _claim(marker):
                time.sleep(0.3)
                os._exit(13)

        monkeypatch.setattr(faults, "maybe_disrupt", crash_once)
        report = RunReport()
        out = np.zeros(len(self.freqs), dtype=complex)
        with inject_faults():
            parallel_sweep(
                self.tiny(), self.freqs, out, workers=2, chunk=2,
                report=report, config=SupervisorConfig(),
            )
        assert np.array_equal(out, self.serial_reference())
        assert report.by_kind("worker-lost")
        assert report.by_kind("restart")
        assert not report.quarantines

    def test_hung_worker_is_killed_via_env_deadline(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DEADLINE", "0.5")
        monkeypatch.delenv("REPRO_TIME_BUDGET", raising=False)
        monkeypatch.delenv("REPRO_WORKER_RLIMIT_MB", raising=False)
        marker = tmp_path / "hung"

        def hang_once(site):
            if site == "perf.worker" and _claim(marker):
                time.sleep(60.0)

        monkeypatch.setattr(faults, "maybe_disrupt", hang_once)
        report = RunReport()
        out = np.zeros(len(self.freqs), dtype=complex)
        with inject_faults():
            # config=None: the deadline must arrive via REPRO_DEADLINE.
            parallel_sweep(
                self.tiny(), self.freqs, out, workers=2, chunk=2,
                report=report,
            )
        assert np.array_equal(out, self.serial_reference())
        assert report.timeouts
        assert not report.quarantines

    def test_poison_points_become_nan_rows(self, monkeypatch, supervision):
        def hang_always(site):
            if site == "perf.worker":
                time.sleep(60.0)

        monkeypatch.setattr(faults, "maybe_disrupt", hang_always)
        supervision(max_chunk_retries=0, max_pool_restarts=50)
        report = RunReport()
        freqs = np.linspace(1e6, 1e9, 4)
        out = np.zeros(len(freqs), dtype=complex)
        with inject_faults():
            parallel_sweep(
                self.tiny(), freqs, out, workers=4, chunk=1,
                report=report,
                config=SupervisorConfig(deadline=0.4),
            )
        assert np.all(np.isnan(out.real)) and np.all(np.isnan(out.imag))
        assert len(report.quarantines) == 4

