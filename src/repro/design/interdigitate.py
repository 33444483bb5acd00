"""Inter-digitated wire study (paper Figure 7).

"Wider wires can be split into multiple thinner wires with shields in
between.  Such inter-digitizing reduces self-inductance, increases
resistance and capacitance.  However, it increases the amount of
metallization used for the interconnect."

The footprint is held constant: splitting a wire of width W into n
fingers inserts (n-1) shields *within the same routing span*, so the
signal copper shrinks to W - (n-1) * shield_width -- that is where the
resistance increase comes from.  The study reports loop inductance
(down), signal DC resistance (up), signal capacitance (up: more perimeter
and coupling to the interleaved shields), and total metallization
including shields (up).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.ac import ac_impedance
from repro.circuit.netlist import Circuit
from repro.extraction.capacitance import CapacitanceModel
from repro.extraction.resistance import segment_resistance
from repro.geometry.layout import NetKind, quantize_point
from repro.geometry.structures import build_interdigitated_wire
from repro.loop.extractor import LoopPort, extract_loop_impedance


@dataclass(frozen=True)
class InterdigitationResult:
    """Metrics of one finger-count configuration.

    Attributes:
        num_fingers: Signal finger count (1 = solid-wire baseline).
        frequency: Loop-extraction frequency [Hz].
        loop_inductance: Loop L [H].
        signal_resistance: DC resistance of the signal wire alone [ohm].
        total_capacitance: Signal-net ground + coupling capacitance [F].
        metal_area: Total metallization (signal + shields) [m^2].
    """

    num_fingers: int
    frequency: float
    loop_inductance: float
    signal_resistance: float
    total_capacitance: float
    metal_area: float


def _signal_capacitance(layout, cap_model: CapacitanceModel) -> float:
    """Ground + coupling capacitance attributed to the signal net [F]."""
    total = 0.0
    for seg in layout.segments:
        if layout.nets[seg.net].kind == NetKind.SIGNAL:
            total += cap_model.segment_ground_capacitance(seg, layout)
    for i, j, c in cap_model.coupling_pairs(layout.segments):
        kinds = (
            layout.nets[layout.segments[i].net].kind,
            layout.nets[layout.segments[j].net].kind,
        )
        if NetKind.SIGNAL in kinds:
            total += c
    return total


def _signal_dc_resistance(layout, ports) -> float:
    """DC resistance of the signal net from driver to receiver [ohm]."""
    circuit = Circuit("rsig")
    nodes: dict = {}

    def node(point) -> str:
        key = quantize_point(point)
        return nodes.setdefault(key, f"n{len(nodes)}")

    layer_of = {layer.name: layer for layer in layout.layers}
    for k, seg in enumerate(layout.segments):
        if layout.nets[seg.net].kind != NetKind.SIGNAL:
            continue
        a, b = seg.endpoints()
        circuit.add_resistor(
            f"r{k}", node(a), node(b), segment_resistance(seg, layer_of[seg.layer])
        )
    drv = ports["driver"]
    rcv = ports["receiver"]
    layer = layout.layer(drv.layer)
    n_drv = nodes[quantize_point((drv.x, drv.y, layer.z_center))]
    n_rcv = nodes[quantize_point((rcv.x, rcv.y, layer.z_center))]
    z = ac_impedance(circuit, [0.0], (n_drv, n_rcv), gmin=1e-12)
    return float(z[0].real)


def interdigitation_study(
    finger_counts=(1, 2, 4, 8),
    frequency: float = 2e9,
    length: float = 1000e-6,
    total_width: float = 12e-6,
    shield_width: float = 1e-6,
) -> list[InterdigitationResult]:
    """Sweep the finger count of a wide wire at constant footprint.

    Args:
        finger_counts: Finger counts to evaluate; 1 is the solid baseline.
        frequency: Loop-extraction frequency [Hz].
        length: Wire length [m].
        total_width: Total routing footprint shared by fingers and the
            interleaved shields [m].
        shield_width: Width of each interleaved shield [m].

    Returns:
        One result per finger count (Figure-7 trends: L down, R up, C up,
        metal up).
    """
    cap_model = CapacitanceModel()
    results = []
    for n in finger_counts:
        signal_copper = total_width - (n - 1) * shield_width
        if signal_copper <= 0:
            raise ValueError(
                f"{n} fingers with {shield_width:.2e} shields exceed the "
                f"{total_width:.2e} footprint"
            )
        layout, ports = build_interdigitated_wire(
            length=length,
            total_signal_width=signal_copper,
            num_fingers=n,
            shield_width=shield_width,
        )
        port = LoopPort(
            signal=ports["driver"],
            reference=ports["gnd_driver"],
            short_signal=ports["receiver"],
            short_reference=ports["gnd_receiver"],
        )
        res = extract_loop_impedance(
            layout, port, [frequency], max_segment_length=300e-6
        )
        area = sum(seg.length * seg.width for seg in layout.segments)
        results.append(
            InterdigitationResult(
                num_fingers=n,
                frequency=frequency,
                loop_inductance=float(res.inductance[0]),
                signal_resistance=_signal_dc_resistance(layout, ports),
                total_capacitance=_signal_capacitance(layout, cap_model),
                metal_area=area,
            )
        )
    return results
