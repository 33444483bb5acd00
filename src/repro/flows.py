"""High-level analysis flows: the paper's Section-6 experiments as API.

This module wires the substrates together the way the paper's evaluation
does: a global clock net over a multi-layer power grid, simulated as

* **PEEC (RC)** -- detailed model without inductance,
* **PEEC (RLC)** -- detailed model with (optionally sparsified) partial
  inductance, optionally accelerated by the combined block-diagonal +
  PRIMA reduction,
* **LOOP (RLC)** -- the Section-5 loop-inductance netlist,

and reports the Table-1 columns (element counts, worst delay, worst skew,
run time) plus full waveforms for the Figure-4 comparison.  The Figure-1
current-decomposition experiment (I1 short-circuit, I2 charging, I3
discharging currents) also lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import delay_50, skew
from repro.circuit.devices import CMOSInverter
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import TransientResult, transient_analysis
from repro.circuit.waveforms import Ramp
from repro.extraction.capacitance import CapacitanceModel
from repro.extraction.resistance import segment_resistance
from repro.geometry.clocktree import (
    ClockNetPorts,
    ClockNetSpec,
    HTreeSpec,
    TapPoint,
    build_clock_net,
    build_htree_clock,
)
from repro.geometry.grid import PowerGridSpec, build_power_grid
from repro.geometry.layout import Layout, NetKind
from repro.geometry.segment import Direction, default_layer_stack
from repro.loop.extractor import LoopPort, extract_loop_impedance
from repro.mor.combined import combined_reduction
from repro.mor.ports import NodePort
from repro.obs.trace import span
from repro.peec.activity import DEFAULT_ACTIVITY_SEED, attach_switching_activity
from repro.peec.model import PEECOptions, build_peec_model
from repro.peec.package import PackageSpec, attach_package, attach_package_to_nodes
from repro.resilience.report import RunReport, activate
from repro.sparsify.base import Sparsifier


@dataclass
class ClockNetTestCase:
    """The shared experimental topology: clock net over a power grid.

    Attributes:
        layout: Grid + clock net layout.
        ports: Driver/sink tap points of the clock net.
        vdd: Supply voltage [V].
        rise_time: Driver input edge rate [s].
        driver_resistance: Thevenin driver output resistance [ohm].
        load_capacitance: Per-sink receiver load [F].
        t_stop: Transient horizon [s].
        dt: Transient step [s].
        activity_seed: Seed for background switching-activity placement
            and timing (``run_peec_flow(background_activity=...)``); part
            of the test-case config so a flow run is reproducible.
    """

    layout: Layout
    ports: ClockNetPorts
    vdd: float = 1.2
    rise_time: float = 40e-12
    driver_resistance: float = 25.0
    load_capacitance: float = 30e-15
    t_stop: float = 1.2e-9
    dt: float = 2e-12
    activity_seed: int = DEFAULT_ACTIVITY_SEED

    @property
    def input_ramp(self) -> Ramp:
        """The driver stimulus (rising edge at 50 ps)."""
        return Ramp(0.0, self.vdd, 50e-12, self.rise_time)


def build_clock_testcase(
    die: float = 400e-6,
    stripe_pitch: float = 60e-6,
    num_branches: int = 3,
    branch_length: float = 120e-6,
    trunk_width: float = 4e-6,
    num_layers: int = 6,
    grid_layers: tuple[str, str] = ("M5", "M6"),
    topology: str = "spine",
    htree_levels: int = 2,
    **kwargs,
) -> ClockNetTestCase:
    """Build the standard clock-over-grid topology at a chosen scale.

    The defaults give a laptop-scale stand-in for the paper's proprietary
    "top-level clock net" (see DESIGN.md's substitution table); all trends
    are topology-class properties, so scale knobs only trade run time for
    statistics.

    Args:
        topology: ``"spine"`` (trunk + branches, default) or ``"htree"``
            (balanced recursive H-tree; ``num_branches``/``branch_length``
            are then ignored in favor of ``htree_levels``).
    """
    if topology not in ("spine", "htree"):
        raise ValueError(f"unknown topology {topology!r}")
    layers = default_layer_stack(num_layers)
    grid_spec = PowerGridSpec(
        die_width=die,
        die_height=die,
        layer_names=grid_layers,
        stripe_pitch=stripe_pitch,
        stripe_width=2e-6,
        pads_per_net=2,
    )
    # The clock must not physically overlap a grid stripe (a short in real
    # silicon); search placements for a clean one.
    clock_net = "clk"
    step = stripe_pitch / 8
    if topology == "spine":
        candidates = [
            (ox * step, oy * step, 1.0)
            for oy in (1, 4 / 3, 2, 3)
            for ox in (0, 1, 2, 3)
        ]
    else:
        candidates = [
            (ox * step, oy * step, scale)
            for scale in (0.7, 0.64, 0.58, 0.52)
            for ox in (1, 2, 3)
            for oy in (1, 2, 3)
        ]
    for offset_x, offset_y, span_scale in candidates:
        layout = build_power_grid(grid_spec, layers)
        if topology == "spine":
            clock_spec = ClockNetSpec(
                trunk_layer="M5",
                branch_layer="M6",
                trunk_width=trunk_width,
                trunk_y=die / 2 + offset_y,
                trunk_x_start=3e-6 + offset_x,
                trunk_length=die - 13e-6 - offset_x,
                num_branches=num_branches,
                branch_length=branch_length,
            )
            ports = build_clock_net(clock_spec, layout)
        else:
            htree_spec = HTreeSpec(
                h_layer="M5",
                v_layer="M6",
                center=(die / 2 + offset_x, die / 2 + offset_y),
                span=die * span_scale,
                levels=htree_levels,
                root_width=trunk_width,
            )
            ports = build_htree_clock(htree_spec, layout)
        if not layout.find_overlaps(net=clock_net):
            break
    else:
        raise ValueError(
            "could not place the clock net without overlapping the grid; "
            "adjust die/stripe_pitch"
        )
    return ClockNetTestCase(layout=layout, ports=ports, **kwargs)


@dataclass
class FlowResult:
    """Outcome of one model flavor's simulation.

    Attributes:
        kind: ``"peec_rc"`` / ``"peec_rlc"`` / ``"loop_rlc"``.
        stats: Element counts (Table-1 columns).
        delays: sink tap name -> 50% delay [s].
        worst_delay: Max over sinks [s].
        worst_skew: Max minus min delay [s].
        build_seconds: Extraction + model construction time.
        solve_seconds: Transient (+ reduction) time.
        times: Simulation time points [s].
        waveforms: sink tap name -> voltage waveform.
        report: Resilience log of the run (sparsifier/ROM downgrades,
            solver escalations, step halvings); ``report.clean`` is True
            for an undisturbed run.
    """

    kind: str
    stats: dict[str, int]
    delays: dict[str, float]
    worst_delay: float
    worst_skew: float
    build_seconds: float
    solve_seconds: float
    times: np.ndarray
    waveforms: dict[str, np.ndarray]
    report: RunReport | None = None

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.solve_seconds


def _measure(
    case: ClockNetTestCase,
    times: np.ndarray,
    waveforms: dict[str, np.ndarray],
) -> tuple[dict[str, float], float, float]:
    ramp = case.input_ramp
    v_in = np.array([ramp(t) for t in times])
    delays = {
        name: delay_50(times, v_in, wave, case.vdd)
        for name, wave in waveforms.items()
    }
    values = list(delays.values())
    return delays, max(values), skew(values)


def _gnd_tap_near(layout: Layout, x: float, y: float, ground_net: str = "GND") -> TapPoint:
    """Ground tap at the grid terminal nearest to (x, y)."""
    best, best_d, best_layer = None, math.inf, None
    for seg in layout.segments:
        if seg.net != ground_net or seg.direction == Direction.Z:
            continue
        for point in seg.endpoints():
            d = math.hypot(point[0] - x, point[1] - y)
            if d < best_d:
                best, best_d, best_layer = point, d, seg.layer
    if best is None:
        raise ValueError(f"no {ground_net!r} terminals in layout")
    return TapPoint(ground_net, best[0], best[1], best_layer, "gnd_near")


def run_peec_flow(
    case: ClockNetTestCase,
    include_inductance: bool = True,
    sparsifier: Sparsifier | None = None,
    use_reduction: bool = False,
    reduction_order: int = 40,
    record_extra: tuple[str, ...] = (),
    background_activity: int = 0,
) -> FlowResult:
    """Simulate the clock edge on the detailed PEEC model.

    Args:
        case: The shared topology.
        include_inductance: False gives the PEEC(RC) baseline row.
        sparsifier: Optional Section-4 strategy for the RLC model.
        use_reduction: Run the combined block-diagonal + PRIMA flow and
            simulate the reduced macromodel instead of the full circuit.
        reduction_order: PRIMA order when reducing.
        record_extra: Additional node names to record (advanced use).
        background_activity: Number of background switching-activity
            current sources to attach to the supply grids (0 = none);
            placement and timing are seeded from ``case.activity_seed``,
            so repeated runs of the same case are identical.
    """
    kind = "peec_rlc" if include_inductance else "peec_rc"
    report = RunReport()
    with span("flow.peec", kind=kind) as flow_sp:
        with span("flow.build") as build_sp:
            options = PEECOptions(
                include_inductance=include_inductance,
                sparsifier=sparsifier,
                max_segment_length=80e-6,
            )
            with activate(report):
                model = build_peec_model(case.layout, options)
            circuit = model.circuit
            sink_nodes: dict[str, str] = {}
            for k, sink in enumerate(case.ports.sinks):
                node = model.node_at(sink)
                sink_nodes[sink.name] = node
                circuit.add_capacitor(
                    f"Cload{k}", node, GROUND, case.load_capacitance
                )
            drv_node = model.node_at(case.ports.driver)
            if background_activity > 0:
                attach_switching_activity(
                    model,
                    num_sources=background_activity,
                    window=(0.0, min(0.5e-9, case.t_stop / 2)),
                    seed=case.activity_seed,
                )
            stats = dict(circuit.stats())
        build_seconds = build_sp.duration or 0.0

        with span("flow.solve") as solve_sp:
            used_rom = False
            if use_reduction:
                # A failed reduction (breakdown in the Krylov iteration, an
                # indefinite reduced system) downgrades to simulating the
                # full circuit rather than killing the flow.
                try:
                    pads = model.pad_nodes()
                    pad_items = sorted(pads.items())
                    active = [drv_node] + [node for _, (node, _) in pad_items]
                    with activate(report):
                        comb = combined_reduction(
                            circuit, active, list(sink_nodes.values()),
                            order=reduction_order,
                        )
                    host = Circuit("host")
                    host.add_vsource("Vin", "vin", GROUND, case.input_ramp)
                    port_names = (
                        ["p_drv"] + [f"p_{name}" for name, _ in pad_items]
                    )
                    mm = comb.model.to_macromodel(
                        "rom", [NodePort(n) for n in port_names]
                    )
                    host.add_macromodel(
                        "rom", mm.ports, mm.g_red, mm.c_red, mm.b_red
                    )
                    host.add_resistor(
                        "Rdrv", "vin", "p_drv", case.driver_resistance
                    )
                    attach_package_to_nodes(
                        host,
                        {name: (f"p_{name}", net)
                         for name, (_, net) in pad_items},
                        PackageSpec() if include_inductance else _rc_package(),
                    )
                except (RuntimeError, np.linalg.LinAlgError) as exc:
                    report.record_downgrade(
                        "mor", "rom", "full circuit", str(exc)
                    )
                else:
                    used_rom = True
                    with activate(report):
                        result = transient_analysis(host, case.t_stop, case.dt)
                    times = result.times
                    waveforms = {
                        name: comb.model.observe(result, "rom", node)
                        for name, node in sink_nodes.items()
                    }
            if not used_rom:
                attach_package(
                    model,
                    PackageSpec() if include_inductance else _rc_package(),
                )
                circuit.add_vsource("Vin", "vin", GROUND, case.input_ramp)
                circuit.add_resistor(
                    "Rdrv", "vin", drv_node, case.driver_resistance
                )
                record = list(sink_nodes.values()) + list(record_extra)
                with activate(report):
                    result = transient_analysis(
                        circuit, case.t_stop, case.dt, record=record
                    )
                times = result.times
                waveforms = {
                    name: result.voltage(node)
                    for name, node in sink_nodes.items()
                }
        solve_seconds = solve_sp.duration or 0.0
        flow_sp.attrs["rom"] = used_rom

    delays, worst, sk = _measure(case, times, waveforms)
    return FlowResult(
        kind=kind + ("+rom" if used_rom else ""),
        stats=stats,
        delays=delays,
        worst_delay=worst,
        worst_skew=sk,
        build_seconds=build_seconds,
        solve_seconds=solve_seconds,
        times=times,
        waveforms=waveforms,
        report=report,
    )


def _rc_package() -> PackageSpec:
    """Package model for the RC flow: the lead inductance is dropped
    (a tiny placeholder L keeps element classes uniform but is electrically
    negligible)."""
    return PackageSpec(resistance=0.1, inductance=1e-15)


def run_loop_flow(
    case: ClockNetTestCase,
    extraction_frequency: float = 2.5e9,
    workers: int | None = None,
) -> FlowResult:
    """Simulate the clock edge on the Section-5 loop-inductance model.

    Per-unit-length loop R and L are extracted FastHenry-style at
    ``extraction_frequency`` over the driver -> farthest-sink path (with
    the receiver shorted to the local ground grid), then applied to every
    clock-net segment of a tree-structured netlist with an ideal ground
    return.  Interconnect capacitance comes from the same Chern-style
    models as the PEEC flow; loads sit at the sink taps.  This preserves
    the paper's element-count profile: ~100x fewer elements, no mutuals.

    ``workers`` fans the extraction sweep out over a process pool (see
    :func:`repro.loop.extractor.extract_loop_impedance`); results are
    identical to the serial path.
    """
    report = RunReport()
    with span("flow.loop"):
        with span("flow.build") as build_sp:
            layout = case.layout
            ports = case.ports
            driver = ports.driver
            far_sink = max(
                ports.sinks,
                key=lambda s: math.hypot(s.x - driver.x, s.y - driver.y),
            )
            port = LoopPort(
                signal=driver,
                reference=_gnd_tap_near(layout, driver.x, driver.y),
                short_signal=far_sink,
                short_reference=_gnd_tap_near(
                    layout, far_sink.x, far_sink.y
                ),
            )
            with activate(report):
                extraction = extract_loop_impedance(
                    layout, port, [extraction_frequency],
                    max_segment_length=120e-6, workers=workers,
                )
            z = extraction.at(extraction_frequency)
            omega = 2.0 * math.pi * extraction_frequency
            path_length = (
                abs(far_sink.x - driver.x) + abs(far_sink.y - driver.y)
            )
            r_per_len = z.real / path_length
            l_per_len = (z.imag / omega) / path_length

            # Tree-structured netlist over the clock net's own segments.
            circuit = Circuit("loop_model")
            cap_model = CapacitanceModel()
            clock_net = driver.net
            node_names: dict[tuple[int, int, int], str] = {}

            from repro.geometry.layout import quantize_point

            def node_for(point) -> str:
                key = quantize_point(point)
                if key not in node_names:
                    node_names[key] = f"n{len(node_names)}"
                return node_names[key]

            segments = [
                s for s in layout.segments
                if s.net == clock_net and s.direction != Direction.Z
            ]
            for k, seg in enumerate(segments):
                a, b = seg.endpoints()
                na, nb = node_for(a), node_for(b)
                circuit.add_series_rl(
                    f"seg{k}", na, nb,
                    max(r_per_len * seg.length, 1e-6),
                    max(l_per_len * seg.length, 1e-18),
                )
                c_seg = cap_model.segment_ground_capacitance(seg, layout)
                for node in (na, nb):
                    cap_name = f"Cg_{k}_{node}"
                    circuit.add_capacitor(cap_name, node, GROUND, c_seg / 2)
            for via in layout.vias:
                if via.net != clock_net:
                    continue
                bottom, top = layout.via_endpoints(via)
                kb, kt = quantize_point(bottom), quantize_point(top)
                if kb in node_names and kt in node_names:
                    from repro.extraction.resistance import via_resistance

                    circuit.add_resistor(
                        f"Rv_{via.name}", node_names[kb], node_names[kt],
                        via_resistance(via),
                    )

            layer_z = {lay.name: lay.z_center for lay in layout.layers}
            sink_nodes = {}
            for k, sink in enumerate(ports.sinks):
                key = quantize_point((sink.x, sink.y, layer_z[sink.layer]))
                sink_nodes[sink.name] = node_names[key]
                circuit.add_capacitor(
                    f"Cload{k}", node_names[key], GROUND,
                    case.load_capacitance,
                )
            drv_key = quantize_point(
                (driver.x, driver.y, layer_z[driver.layer])
            )
            drv_node = node_names[drv_key]
            circuit.add_vsource("Vin", "vin", GROUND, case.input_ramp)
            circuit.add_resistor(
                "Rdrv", "vin", drv_node, case.driver_resistance
            )
            stats = dict(circuit.stats())
        build_seconds = build_sp.duration or 0.0

        with span("flow.solve") as solve_sp:
            with activate(report):
                result = transient_analysis(
                    circuit, case.t_stop, case.dt,
                    record=list(sink_nodes.values()),
                )
        solve_seconds = solve_sp.duration or 0.0
    waveforms = {
        name: result.voltage(node) for name, node in sink_nodes.items()
    }
    delays, worst, sk = _measure(case, result.times, waveforms)
    return FlowResult(
        kind="loop_rlc",
        stats=stats,
        delays=delays,
        worst_delay=worst,
        worst_skew=sk,
        build_seconds=build_seconds,
        solve_seconds=solve_seconds,
        times=result.times,
        waveforms=waveforms,
        report=report,
    )


@dataclass
class CurrentDecomposition:
    """The Figure-1 current populations at a switching edge.

    Attributes:
        times: Time points [s].
        i_shortcircuit: I1 -- crowbar current through both devices [A].
        i_charge: I2 -- current charging the line/load from VDD [A].
        i_discharge: I3 -- current discharging the line/load to ground [A].
        i_package: Total current through the package leads [A].
        peak: Peak absolute value of each component [A].
    """

    times: np.ndarray
    i_shortcircuit: np.ndarray
    i_charge: np.ndarray
    i_discharge: np.ndarray
    i_package: np.ndarray
    peak: dict[str, float]


def run_current_decomposition(
    case: ClockNetTestCase,
    driver_strength: float = 20.0,
    decap_total: float = 30e-12,
    falling_input: bool = False,
) -> CurrentDecomposition:
    """Reproduce the Figure-1 current-flow decomposition.

    A square-law CMOS inverter drives the clock net from the local grid;
    its PMOS and NMOS currents are reconstructed from the simulated node
    voltages and decomposed into the paper's I1 (short-circuit), I2
    (charging), I3 (discharging) populations, alongside the total package
    current that closes the I1/I2 loops externally.
    """
    from repro.peec.decap import attach_decaps

    model = build_peec_model(
        case.layout, PEECOptions(max_segment_length=80e-6)
    )
    circuit = model.circuit
    pkg_sources = attach_package(model, PackageSpec())
    attach_decaps(model, decap_total, count=6)
    drv_node = model.node_at(case.ports.driver)
    for k, sink in enumerate(case.ports.sinks):
        circuit.add_capacitor(
            f"Cload{k}", model.node_at(sink), GROUND, case.load_capacitance
        )
    vdd_node = model.nodes_of_net("VDD", "M5")[0]
    gnd_node = model.nodes_of_net("GND", "M5")[0]
    v0, v1 = (case.vdd, 0.0) if falling_input else (0.0, case.vdd)
    circuit.add_vsource("Vin", "vin", GROUND, Ramp(v0, v1, 50e-12, case.rise_time))
    inverter = CMOSInverter(
        "drv", "vin", drv_node, vdd_node, gnd_node, strength=driver_strength
    )
    circuit.add_device(inverter)

    record = ["vin", drv_node, vdd_node, gnd_node] + list(pkg_sources)
    result = transient_analysis(circuit, case.t_stop, case.dt, record=record)
    times = result.times

    # Reconstruct device branch currents from node voltages.
    n_steps = len(times)
    i_p = np.zeros(n_steps)  # PMOS vdd -> out
    i_n = np.zeros(n_steps)  # NMOS out -> gnd
    v_g = result.voltage("vin")
    v_o = result.voltage(drv_node)
    v_dd = result.voltage(vdd_node)
    v_ss = result.voltage(gnd_node)
    for k in range(n_steps):
        i_dev, _ = inverter.evaluate(
            np.array([v_g[k], v_o[k], v_dd[k], v_ss[k]])
        )
        i_p[k] = i_dev[2]  # current out of vdd node into the device
        i_n[k] = -i_dev[3]  # current out of the device into gnd node

    # I1 is the component flowing straight through both devices; I2/I3 are
    # the remainders charging/discharging the line.
    i1 = np.minimum(np.abs(i_p), np.abs(i_n)) * np.sign(i_p)
    i2 = i_p - i1
    i3 = i_n - i1
    i_pkg = sum(np.abs(result.current(name)) for name in pkg_sources)
    return CurrentDecomposition(
        times=times,
        i_shortcircuit=i1,
        i_charge=i2,
        i_discharge=i3,
        i_package=i_pkg,
        peak={
            "I1_short_circuit": float(np.max(np.abs(i1))),
            "I2_charge": float(np.max(np.abs(i2))),
            "I3_discharge": float(np.max(np.abs(i3))),
            "package": float(np.max(np.abs(i_pkg))),
        },
    )
