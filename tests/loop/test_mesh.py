"""The exact loop sweep in mesh currents, against the full MNA model.

``extract_loop_impedance(assembly="exact")`` solves the filament network
in mesh currents (``_MeshSystem``).  The reference is the nodal model of
the same branch table, stamped here as an MNA circuit (each filament's
resistor in series with its inductive branch) and solved by
``ac_impedance`` with the same ``GMIN`` leak on every node and filament
midpoint.
"""

import math

import numpy as np
import pytest

from repro import flows
from repro.circuit.ac import ac_impedance
from repro.circuit.netlist import Circuit
from repro.geometry.clocktree import TapPoint
from repro.geometry.layout import Layout, NetKind
from repro.geometry.segment import Direction, default_layer_stack
from repro.loop import extractor
from repro.loop.extractor import (
    GMIN, LoopPort, _loop_network, extract_loop_impedance,
)
from repro.obs.trace import tracing
from repro.perf import parallel
from repro.resilience import inject_faults
from repro.scenarios.variants import VARIANTS, build_variant


def make_port(ports):
    return LoopPort(
        signal=ports["driver"],
        reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )


def _mesh(layout, port, freqs, **kwargs):
    """Mesh-solved impedances and the ``loop.sweep`` span's attributes."""
    with inject_faults(), tracing() as trace:
        z = extract_loop_impedance(
            layout, port, freqs, workers=1, **kwargs
        ).impedance
    return z, trace.find("loop.sweep").attrs


def nodal_impedance(network, matrix, freqs):
    """Z of the branch table in nodal form, every unknown kept.

    Each filament is its resistor in series with its row of the dense
    partial-L ``matrix``, joined at a midpoint node; every other branch
    is a resistor.  ``GMIN`` leaks from every node and midpoint.
    """
    circuit = Circuit("loop_extraction")
    tails, heads = network.tails, network.heads
    branches = []
    for k in range(network.num_filaments):
        mid = circuit.node(f"m{k}")
        circuit.add_resistor(
            f"R{k}", f"n{tails[k]}", mid, network.resistance[k]
        )
        branches.append((mid, f"n{heads[k]}"))
    circuit.add_inductor_set("Lf", tuple(branches), matrix)
    for e in range(network.num_filaments, len(tails)):
        circuit.add_resistor(
            f"R{e}", f"n{tails[e]}", f"n{heads[e]}", network.resistance[e]
        )
    sig, ref = network.port
    with inject_faults():
        return ac_impedance(
            circuit, freqs, (f"n{sig}", f"n{ref}"), gmin=GMIN, workers=1,
        )


def _full_mna(layout, port, freqs, **kwargs):
    """The same network solved in nodal form, every unknown kept."""
    network = _loop_network(layout, port, float(max(freqs)), **kwargs)
    return nodal_impedance(network, network.extraction.matrix, freqs)


def _rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_mesh_matches_full_mna_on_every_variant(variant):
    layout, port = build_variant(variant, 100e-6)
    freqs = [0.0, 1e7, 1e9, 2e10]
    mesh, attrs = _mesh(layout, port, freqs, max_segment_length=200e-6)
    full = _full_mna(layout, port, freqs, max_segment_length=200e-6)
    # Fewer unknowns than the nodal model without its midpoints.
    assert attrs["mesh_size"] < attrs["filaments"] + attrs["nodes"]
    assert _rel(mesh, full) <= 1e-10, variant


def test_dc_point_matches_full_mna(signal_grid_structure):
    layout, ports = signal_grid_structure
    freqs = [0.0, 1e8, 1e10]
    mesh, _ = _mesh(layout, make_port(ports), freqs,
                    max_segment_length=150e-6)
    full = _full_mna(layout, make_port(ports), freqs,
                     max_segment_length=150e-6)
    assert _rel(mesh, full) <= 1e-10
    assert mesh[0].real > 0.0
    assert abs(mesh[0].imag) <= 1e-12 * mesh[0].real


@pytest.fixture(scope="module")
def clock_loop():
    """The e2e loop-sweep geometry: 944 filaments, 268 nodes."""
    case = flows.build_clock_testcase(
        die=400e-6, num_branches=3, branch_length=120e-6,
        stripe_pitch=60e-6,
    )
    driver = case.ports.driver
    far = max(case.ports.sinks,
              key=lambda s: math.hypot(s.x - driver.x, s.y - driver.y))
    port = LoopPort(
        signal=driver,
        reference=flows._gnd_tap_near(case.layout, driver.x, driver.y),
        short_signal=far,
        short_reference=flows._gnd_tap_near(case.layout, far.x, far.y),
    )
    return case.layout, port


def test_leak_term_keeps_the_loop_sweep_on_the_mna_model(
    clock_loop, monkeypatch
):
    layout, port = clock_loop
    freqs = [10 ** 10.5]
    mesh, attrs = _mesh(layout, port, freqs, max_segment_length=120e-6)
    # 1046 - 268 + 2 independent loops (2 components), plus the port.
    assert (attrs["filaments"], attrs["branches"], attrs["nodes"],
            attrs["mesh_size"]) == (944, 1046, 268, 781)
    full = _full_mna(layout, port, freqs, max_segment_length=120e-6)
    assert _rel(mesh, full) <= 1e-10
    # Without the leak term the mesh solve is the bare network, whose
    # R at 31.6 GHz sits ~6e-9 off the MNA model.
    monkeypatch.setattr(extractor, "GMIN", 0.0)
    bare, _ = _mesh(layout, port, freqs, max_segment_length=120e-6)
    assert abs(bare[0].real - full[0].real) > 1e-9 * full[0].real


def test_parallel_mesh_sweep_is_bit_identical(signal_grid_structure):
    layout, ports = signal_grid_structure
    # Three points: the most that an exact sweep solves point by point.
    freqs = np.logspace(8, 10, 3)

    def run(workers):
        with inject_faults(), tracing() as trace:
            z = extract_loop_impedance(
                layout, make_port(ports), freqs, max_segment_length=150e-6,
                workers=workers,
            ).impedance
        return z, trace.find("loop.sweep").attrs["mesh_size"]

    serial, size = run(1)
    pooled, pooled_size = run(2)
    assert size == pooled_size
    assert np.array_equal(serial, pooled)


def test_pool_width_is_sized_by_the_mesh(signal_grid_structure,
                                          monkeypatch):
    layout, ports = signal_grid_structure
    asked = []
    width = parallel.sweep_workers

    def spy(workers, size):
        asked.append(size)
        return width(workers, size)

    monkeypatch.setattr(parallel, "sweep_workers", spy)
    _, attrs = _mesh(layout, make_port(ports), [1e9],
                     max_segment_length=150e-6)
    assert asked == [attrs["mesh_size"]]


def _disconnected():
    """Signal and return bars shorted at the far end, and a floating
    bar that the port's reference tap lands on."""
    layout = Layout(default_layer_stack(6), name="floating_reference")
    layout.add_net("sig", NetKind.SIGNAL)
    layout.add_net("GND", NetKind.GROUND)
    layout.add_net("float", NetKind.SHIELD)
    for net, y in (("sig", 0.0), ("GND", 6e-6), ("float", -6e-6)):
        layout.add_wire(net, "M6", Direction.X, (0.0, y - 0.6e-6),
                        100e-6, 1.2e-6)
    port = LoopPort(
        signal=TapPoint("sig", 0.0, 0.0, "M6"),
        reference=TapPoint("float", 0.0, -6e-6, "M6"),
        short_signal=TapPoint("sig", 100e-6, 0.0, "M6"),
        short_reference=TapPoint("GND", 100e-6, 6e-6, "M6"),
    )
    return layout, port


@pytest.mark.parametrize("assembly", ["exact", "hierarchical"])
def test_disconnected_port_raises(assembly):
    layout, port = _disconnected()
    with pytest.raises(ValueError, match="different components"):
        extract_loop_impedance(layout, port, [1e9], assembly=assembly,
                               workers=1)
