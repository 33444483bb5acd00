"""Advanced analyses: hierarchy and worst-case crosstalk.

Run:  python examples/advanced_analysis.py

Two production-style workflows on top of the core reproduction:

1. hierarchical macromodeling (paper ref [16]) of a two-block RC network,
2. worst-case crosstalk alignment under switching-window uncertainty.
"""

import numpy as np

from repro.analysis.crosstalk import (
    simulate_aggressor_responses,
    worst_case_alignment,
)
from repro.circuit import Circuit, Ramp, transient_analysis
from repro.circuit.netlist import GROUND
from repro.geometry.structures import build_bus
from repro.mor.hierarchical import hierarchical_reduction
from repro.peec.model import PEECOptions, build_peec_model


def demo_hierarchy() -> None:
    print("== hierarchical interconnect model (ref [16]) ==")
    circuit = Circuit("line")
    prev = "in"
    blocks = [set(), set()]
    for b in range(2):
        for k in range(30):
            node = f"b{b}n{k}"
            circuit.add_resistor(f"r{b}_{k}", prev, node, 8.0)
            circuit.add_capacitor(f"c{b}_{k}", node, GROUND, 15e-15)
            blocks[b].add(node)
            prev = node
    blocks[1].discard(prev)  # keep the output node global
    circuit.add_resistor("rterm", prev, GROUND, 150.0)
    circuit.add_vsource("vin", "src", GROUND, Ramp(0, 1, 20e-12, 50e-12))
    circuit.add_resistor("rdrv", "src", "in", 25.0)

    model = hierarchical_reduction(circuit, blocks, order_per_block=10)
    from repro.circuit.mna import MNASystem

    print(f"  flat unknowns: {model.full_unknowns}, "
          f"hierarchical: {MNASystem(model.circuit).size} "
          f"(block orders {model.block_orders})")
    flat = transient_analysis(circuit, 3e-9, 4e-12, record=[prev])
    hier = transient_analysis(model.circuit, 3e-9, 4e-12, record=[prev])
    err = np.max(np.abs(flat.voltage(prev) - hier.voltage(prev)))
    print(f"  waveform error vs flat: {err * 1e3:.3f} mV\n")


def demo_crosstalk() -> None:
    print("== worst-case crosstalk alignment ==")
    layout, ports = build_bus(num_signals=3, length=400e-6, pitch=3e-6,
                              wire_width=1e-6)

    def build(active: str):
        model = build_peec_model(layout, PEECOptions(max_segment_length=150e-6))
        circuit = model.circuit
        for net in ("bus0", "bus1", "bus2"):
            n_in = model.node_at(ports[f"{net}:in"])
            n_out = model.node_at(ports[f"{net}:out"])
            circuit.add_capacitor(f"Cl_{net}", n_out, GROUND, 10e-15)
            if net == active:
                # Different intrinsic arrival times per aggressor: window
                # freedom lets sign-off align their peaks.
                delay = 20e-12 if net == "bus0" else 150e-12
                circuit.add_vsource(f"V_{net}", f"s_{net}", GROUND,
                                    Ramp(0, 1.2, delay, 30e-12))
                circuit.add_resistor(f"Rd_{net}", f"s_{net}", n_in, 60.0)
            else:
                circuit.add_resistor(f"Rd_{net}", n_in, GROUND, 60.0)
        for end in ("in", "out"):
            circuit.add_resistor(f"Rg_{end}",
                                 model.node_at(ports[f"gnd:{end}"]),
                                 GROUND, 0.1)
        build.victim = model.node_at(ports["bus1:out"])
        return circuit

    build("bus0")
    times, responses = simulate_aggressor_responses(
        build, ["bus0", "bus2"], build.victim, 0.6e-9, 2e-12
    )
    simultaneous = worst_case_alignment(
        times, responses, {"bus0": (0.0, 0.0), "bus2": (0.0, 0.0)}
    )
    windowed = worst_case_alignment(
        times, responses,
        {"bus0": (0.0, 0.2e-9), "bus2": (-0.2e-9, 0.2e-9)},
    )
    print(f"  simultaneous switching: {simultaneous.peak_noise * 1e3:.2f} mV")
    print(f"  worst window alignment: {windowed.peak_noise * 1e3:.2f} mV "
          f"(offsets {dict((k, f'{v * 1e12:.0f}ps') for k, v in windowed.offsets.items())})")


def main() -> None:
    demo_hierarchy()
    demo_crosstalk()


if __name__ == "__main__":
    main()
