"""E8 -- Section 4: PRIMA reduction, order sweep and the combined flow.

"Reduced order models are very efficient in terms of simulation time and
can match the original large model quite accurately ... and also provide
a control over the accuracy via the order of the reduced system."  The
combined technique of ref [4] applies block-diagonal sparsification first
and excites only the *active* ports.

The benchmark reduces the clock-over-grid PEEC circuit at several orders,
reporting reduction time, simulation speedup over the full model, and the
worst sink-waveform error -- plus the active-port-count effect on the
reduction cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_clock_testcase
from repro.analysis.compare import compare_waveforms
from repro.analysis.report import format_table
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import transient_analysis
from repro.mor import NodePort, combined_reduction
from repro.obs.trace import span
from repro.peec.model import PEECOptions, build_peec_model
from repro.peec.package import PackageSpec, attach_package_to_nodes
from repro.sparsify import BlockDiagonalSparsifier


@pytest.fixture(scope="module")
def setup():
    case = build_clock_testcase(
        die=500e-6, stripe_pitch=70e-6, num_branches=3, branch_length=140e-6,
        t_stop=0.8e-9, dt=2e-12,
    )
    model = build_peec_model(
        case.layout,
        PEECOptions(
            max_segment_length=80e-6,
            sparsifier=BlockDiagonalSparsifier(
                num_sections=3, focus_nets=("clk",)
            ),
        ),
    )
    circuit = model.circuit
    sink_nodes = []
    for k, sink in enumerate(case.ports.sinks):
        node = model.node_at(sink)
        sink_nodes.append(node)
        circuit.add_capacitor(f"Cload{k}", node, GROUND, case.load_capacitance)
    drv = model.node_at(case.ports.driver)
    pads = model.pad_nodes()
    return case, model, drv, sink_nodes, pads


def _reference(setup):
    case, model, drv, sink_nodes, pads = setup
    import copy

    # Full (sparsified) model with package + driver, simulated directly.
    circuit = model.circuit
    # Work on the shared circuit: add the drive/packaging once.
    if "Vin" not in {s.name for s in circuit.vsources}:
        attach_package_to_nodes(
            circuit, {n: (node, net) for n, (node, net) in pads.items()},
            PackageSpec(),
        )
        circuit.add_vsource("Vin", "vin", GROUND, case.input_ramp)
        circuit.add_resistor("Rdrv", "vin", drv, case.driver_resistance)
    with span("bench.full_transient") as sp:
        result = transient_analysis(circuit, case.t_stop, case.dt,
                                    record=sink_nodes)
    return result, sp.duration


def test_bench_prima_order_sweep(setup, paper_report):
    case, model, drv, sink_nodes, pads = setup

    # Build a source-free copy of the linear circuit for reduction by
    # rebuilding the PEEC model (the reference run mutates the shared one).
    lin_model = build_peec_model(
        case.layout,
        PEECOptions(
            max_segment_length=80e-6,
            sparsifier=BlockDiagonalSparsifier(
                num_sections=3, focus_nets=("clk",)
            ),
        ),
    )
    lin_sinks = [lin_model.node_at(s) for s in case.ports.sinks]
    lin_drv = lin_model.node_at(case.ports.driver)
    lin_pads = lin_model.pad_nodes()
    for k, node in enumerate(lin_sinks):
        lin_model.circuit.add_capacitor(
            f"Cload{k}", node, GROUND, case.load_capacitance
        )
    pad_items = sorted(lin_pads.items())
    active = [lin_drv] + [node for _, (node, _) in pad_items]

    ref_result, ref_seconds = _reference(setup)

    def run_order(order: int):
        comb = combined_reduction(
            lin_model.circuit, active, lin_sinks, order=order
        )
        host = Circuit("host")
        host.add_vsource("Vin", "vin", GROUND, case.input_ramp)
        port_names = ["p_drv"] + [f"p_{name}" for name, _ in pad_items]
        mm = comb.model.to_macromodel("rom", [NodePort(n) for n in port_names])
        host.add_macromodel("rom", mm.ports, mm.g_red, mm.c_red, mm.b_red)
        host.add_resistor("Rdrv", "vin", "p_drv", case.driver_resistance)
        attach_package_to_nodes(
            host,
            {name: (f"p_{name}", net) for name, (_, net) in pad_items},
            PackageSpec(),
        )
        with span("bench.rom_transient") as sp:
            res = transient_analysis(host, case.t_stop, case.dt)
        sim_seconds = sp.duration
        worst = 0.0
        for k, node in enumerate(lin_sinks):
            wave = comb.model.observe(res, "rom", node)
            ref_wave = ref_result.voltage(sink_nodes[k])
            worst = max(
                worst,
                compare_waveforms(ref_result.times, ref_wave,
                                  res.times, wave).max_error,
            )
        return comb, sim_seconds, worst, res.system.size

    orders = (8, 16, 32, 48)

    def sweep():
        return {order: run_order(order) for order in orders}

    sweep_results = sweep()

    rows = []
    for order in orders:
        comb, sim_seconds, worst, _ = sweep_results[order]
        rows.append([
            order,
            comb.full_size,
            comb.model.order,
            f"{comb.reduction_seconds:.3f}",
            f"{sim_seconds:.3f}",
            f"{ref_seconds / sim_seconds:.1f}x",
            f"{worst * 1e3:.2f}",
        ])
    paper_report(format_table(
        ["order", "full unknowns", "reduced", "reduce [s]", "simulate [s]",
         "speedup", "worst sink error [mV]"],
        rows,
        title=(
            "Section 4 -- PRIMA order sweep over the block-diagonal PEEC "
            f"model (full simulation {ref_seconds:.2f} s)"
        ),
    ))

    errors = [sweep_results[o][2] for o in orders]
    # Accuracy is controlled by the order, and high orders are accurate.
    assert errors[-1] < errors[0]
    assert errors[-1] < 0.03
    # Reduced simulation beats the full one handily: every reduced host
    # steps under a tenth of the full model's unknowns.  A count, not a
    # wall clock, so the gate cannot flake on a busy host.
    full_unknowns = ref_result.system.size
    assert all(10 * sweep_results[o][3] < full_unknowns for o in orders)


def test_bench_active_ports_vs_all_ports(setup, paper_report):
    """The paper's refinement: "applying excitation sources only to the
    active ports, and not to the sinks."  Same target order; the
    active-port Krylov block is 5 wide (driver + 4 pads) instead of 21
    (+ 16 sinks), so each block buys more moments per solve."""
    case, _, _, _, _ = setup
    lin_model = build_peec_model(
        case.layout,
        PEECOptions(
            max_segment_length=80e-6,
            sparsifier=BlockDiagonalSparsifier(
                num_sections=3, focus_nets=("clk",)
            ),
        ),
    )
    lin_sinks = [lin_model.node_at(s) for s in case.ports.sinks]
    lin_drv = lin_model.node_at(case.ports.driver)
    pad_items = sorted(lin_model.pad_nodes().items())
    for k, node in enumerate(lin_sinks):
        lin_model.circuit.add_capacitor(
            f"Cload{k}", node, GROUND, case.load_capacitance
        )
    active = [lin_drv] + [node for _, (node, _) in pad_items]

    from repro.circuit.mna import MNASystem
    from repro.mor.prima import prima_reduce

    system = MNASystem(lin_model.circuit)
    order = 40
    freqs = [1e8, 1e9, 5e9]

    def reduce_both():
        out = {}
        for label, ports in (
            ("active ports only", active),
            ("all ports (+ sinks)", active + lin_sinks),
        ):
            with span("bench.prima_reduce") as sp:
                rom = prima_reduce(
                    system,
                    [NodePort(n, name=n) for n in ports],
                    order=order,
                    outputs=lin_sinks,
                    s0_hz=2e9,
                )
            # Accuracy proxy: driving-point transfer from the driver port
            # to the sinks vs the full model.
            h = rom.transfer(freqs)[:, :, 0]
            out[label] = (rom, sp.duration, h)
        return out

    results = reduce_both()

    # Full-model reference transfer for the same input column.
    import numpy as np
    import scipy.sparse as sp

    from repro.mor.ports import input_matrix, output_matrix

    g_matrix, c_matrix = system.build_matrices()
    b = input_matrix(system, [NodePort(active[0])])
    l_out = output_matrix(system, lin_sinks)
    h_full = np.zeros((len(freqs), len(lin_sinks)), dtype=complex)
    for i, f in enumerate(freqs):
        s = 2j * np.pi * f
        a_matrix = g_matrix + s * c_matrix
        if sp.issparse(a_matrix):
            a_matrix = a_matrix.toarray()
        x = np.linalg.solve(a_matrix, b[:, 0])
        h_full[i] = l_out.T @ x

    rows = []
    errors = {}
    for label, (rom, elapsed, h) in results.items():
        err = float(np.max(np.abs(h - h_full) / (np.abs(h_full) + 1e-12)))
        errors[label] = err
        rows.append([
            label,
            len(rom.input_names),
            rom.order,
            f"{elapsed * 1e3:.1f}",
            f"{err * 100:.3f}%",
        ])
    paper_report(format_table(
        ["variant", "ports", "order", "reduce [ms]",
         "worst driver->sink transfer error"],
        rows,
        title="Section 4 -- active-port PRIMA vs all-port PRIMA "
              f"(order {order})",
    ))

    # At equal order, exciting only the active ports spends the whole
    # subspace on the transfer that matters.
    assert errors["active ports only"] <= errors["all ports (+ sinks)"] * 1.5
    assert errors["active ports only"] < 0.05
