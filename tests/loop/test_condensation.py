"""The loop sweep solves the condensed system, exactly.

``_sweep_impedance`` condenses the filament midpoint nodes out of the
dense MNA system before the sweep.  The full system is the reference:
with :meth:`MNASystem.series_nodes` patched to choose nothing, the same
code path factors every unknown.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.circuit.linalg import SingularCircuitError
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import GROUND, Circuit
from repro.loop.extractor import (
    LoopPort, _sweep_impedance, extract_loop_impedance,
)
from repro.obs.trace import tracing
from repro.resilience import (
    CheckpointConfig, FaultSpec, ResiliencePolicy, inject_faults,
)
from repro.resilience.checkpoint import load_checkpoint
from repro.resilience.report import RunReport
from repro.resilience.resume import resume_loop
from repro.scenarios.variants import VARIANTS, build_variant

BRITTLE = ResiliencePolicy(escalation="safe")


def make_port(ports):
    return LoopPort(
        signal=ports["driver"],
        reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )


def _sweep_span(trace):
    sweep = trace.find("loop.sweep")
    assert sweep is not None
    return sweep.attrs["mna_size"], sweep.attrs["solve_size"]


def _traced(run):
    with inject_faults(), tracing() as trace:
        result = run()
    return result, _sweep_span(trace)


@contextmanager
def _full_mna(monkeypatch):
    """Context in which the sweep condenses nothing (the reference)."""
    with monkeypatch.context() as patch:
        patch.setattr(
            MNASystem, "series_nodes",
            lambda self, exclude=(): np.zeros(0, dtype=np.intp),
        )
        yield


def _rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_condensed_matches_full_mna_on_every_variant(variant, monkeypatch):
    layout, port = build_variant(variant, 100e-6)
    freqs = [1e7, 1e9, 2e10]

    def run():
        return extract_loop_impedance(
            layout, port, freqs, max_segment_length=200e-6, workers=1,
        ).impedance

    condensed, (mna_size, solve_size) = _traced(run)
    assert solve_size < mna_size
    with _full_mna(monkeypatch):
        full, (_, full_size) = _traced(run)
    assert full_size == mna_size
    assert _rel(condensed, full) <= 1e-10, variant


def test_dc_point_matches_full_mna(signal_grid_structure, monkeypatch):
    layout, ports = signal_grid_structure
    freqs = [0.0, 1e8, 1e10]

    def run():
        return extract_loop_impedance(
            layout, make_port(ports), freqs, max_segment_length=150e-6,
            workers=1,
        ).impedance

    condensed, _ = _traced(run)
    with _full_mna(monkeypatch):
        full, _ = _traced(run)
    assert _rel(condensed, full) <= 1e-10
    assert condensed[0].real > 0.0
    assert abs(condensed[0].imag) <= 1e-12 * condensed[0].real


def test_port_on_a_series_node_is_not_condensed(monkeypatch):
    # The port sits on m, the node between ra and l1; b (between l1 and
    # rb) is the only node left to condense.
    c = Circuit("rl")
    c.add_resistor("ra", "a", "m", 2.0)
    c.add_inductor("l1", "m", "b", 1e-9)
    c.add_resistor("rb", "b", GROUND, 3.0)
    c.add_resistor("rg", "a", GROUND, 5.0)
    freqs = np.array([0.0, 1e8, 1e10])

    def run():
        return _sweep_impedance(
            c, freqs, ("m", GROUND), 1e-12, BRITTLE, None, RunReport(),
            workers=1,
        )

    z, (mna_size, solve_size) = _traced(run)
    assert solve_size == mna_size - 1
    with _full_mna(monkeypatch):
        full, _ = _traced(run)
    assert _rel(z, full) <= 1e-12
    omega = 2 * np.pi * freqs
    series = 3.0 + 1j * omega * 1e-9
    expected = 7.0 * series / (7.0 + series)
    assert _rel(z, expected) <= 1e-9


def test_parallel_sweep_is_condensed_and_bit_identical(signal_grid_structure):
    layout, ports = signal_grid_structure
    freqs = np.logspace(8, 10, 4)

    def run(workers):
        return lambda: extract_loop_impedance(
            layout, make_port(ports), freqs, max_segment_length=150e-6,
            workers=workers,
        ).impedance

    serial, sizes = _traced(run(1))
    parallel, parallel_sizes = _traced(run(2))
    assert sizes == parallel_sizes and sizes[1] < sizes[0]
    assert np.array_equal(serial, parallel)


def test_resume_from_the_embedded_deck(tmp_path, signal_grid_structure):
    layout, ports = signal_grid_structure
    freqs = np.logspace(8, 10, 5)

    def sweep(**kwargs):
        return extract_loop_impedance(
            layout, make_port(ports), freqs, max_segment_length=150e-6,
            workers=1, policy=BRITTLE, **kwargs,
        )

    with inject_faults():
        baseline = sweep().impedance
    path = tmp_path / "loop.ckpt"
    # Both rungs of every point from the fourth on fail.
    with inject_faults(FaultSpec("loop.*", "raise", after=3, max_hits=None)):
        with pytest.raises(SingularCircuitError):
            sweep(checkpoint=CheckpointConfig(path, interval=2))
    snap = load_checkpoint(path)
    assert snap.meta.get("deck")
    assert 0 < int(snap.arrays["done"].sum()) < len(freqs)
    (resumed_freqs, z), (mna_size, solve_size) = _traced(
        lambda: resume_loop(path)
    )
    assert solve_size < mna_size
    assert np.array_equal(resumed_freqs, freqs)
    # The deck's 9-digit K values are the only difference.
    assert _rel(z, baseline) <= 1e-8
    assert not path.exists()
