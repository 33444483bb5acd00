"""E7 -- Section 4 ablation: sparsification strategies compared.

Reproduces the paper's qualitative ranking of the sparsification options:

* naive truncation loses positive definiteness -- "the sparsified system
  becomes active and can generate energy";
* block-diagonal sparsification "guarantees the sparsified matrix to be
  positive definite" at some accuracy cost;
* the shell (shift-truncate) method yields guaranteed-PD sparse
  approximations;
* the halo (return-limited) rule drops couplings screened by P/G lines;
* the K-matrix tolerates aggressive truncation because of its locality.

For each strategy the benchmark reports retained mutuals, the minimum
eigenvalue (negative = active/non-passive), and the receiver-waveform
error of a driven transient against the dense PEEC reference; unstable
runs are reported as such.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.compare import compare_waveforms
from repro.analysis.report import format_table
from repro.circuit.linalg import SingularCircuitError
from repro.circuit.netlist import GROUND
from repro.circuit.transient import transient_analysis
from repro.circuit.waveforms import Ramp
from repro.extraction.partial_matrix import extract_for_layout
from repro.geometry import build_signal_over_grid
from repro.obs.trace import span
from repro.peec.model import PEECOptions, build_peec_model
from repro.sparsify import (
    BlockDiagonalSparsifier,
    DenseInductance,
    HaloSparsifier,
    KMatrixSparsifier,
    ShellSparsifier,
    TruncationSparsifier,
    min_eigenvalue,
)


@pytest.fixture(scope="module")
def structure():
    # Long, tightly pitched lines: the regime where naive truncation goes
    # indefinite (coupling coefficients cluster near the threshold).
    return build_signal_over_grid(
        length=2000e-6, signal_width=2e-6, return_width=1e-6,
        pitch=2e-6, returns_per_side=4,
    )


def _simulate(structure, sparsifier):
    layout, ports = structure
    model = build_peec_model(
        layout,
        PEECOptions(max_segment_length=250e-6, sparsifier=sparsifier),
    )
    circuit = model.circuit
    drv = model.node_at(ports["driver"])
    rcv = model.node_at(ports["receiver"])
    circuit.add_capacitor("Cload", rcv, GROUND, 25e-15)
    for tap_name in ("gnd_driver", "gnd_receiver"):
        circuit.add_resistor(
            f"Rg_{tap_name}", model.node_at(ports[tap_name]), GROUND, 0.05
        )
    circuit.add_vsource("Vin", "vin", GROUND, Ramp(0.0, 1.0, 20e-12, 40e-12))
    circuit.add_resistor("Rdrv", "vin", drv, 40.0)
    result = transient_analysis(circuit, 0.8e-9, 2e-12, record=[rcv])
    return result.times, result.voltage(rcv)


def test_bench_sparsification_ablation(structure, paper_report):
    layout, _ = structure
    # Extract on the same segmentation the simulated circuits use, so the
    # reported eigenvalues describe the matrices actually simulated.
    from repro.geometry.segment import Direction
    from repro.peec.model import _split_segments
    from repro.extraction.partial_matrix import extract_partial_inductance

    split = [
        seg for seg, _, _ in _split_segments(layout, 250e-6)
        if seg.direction != Direction.Z
    ]
    extraction = extract_partial_inductance(split)

    strategies = [
        ("dense (reference)", DenseInductance()),
        ("truncation 0.5", TruncationSparsifier(threshold=0.5)),
        ("block-diagonal x4", BlockDiagonalSparsifier(num_sections=4, axis=0)),
        ("shell r=12um", ShellSparsifier(radius=12e-6)),
        ("halo (return-limited)", HaloSparsifier(supply_nets=("GND",))),
        ("K-matrix 0.02", KMatrixSparsifier(threshold=0.02)),
    ]

    def run_all():
        out = {}
        for name, strategy in strategies:
            blocks = strategy.apply(extraction)
            if blocks.kind == "L":
                matrix = blocks.to_dense(extraction.size)
                mineig = min_eigenvalue(matrix)
            else:
                mineig = min_eigenvalue(blocks.blocks[0][1])
            try:
                times, wave = _simulate(structure, strategy)
                blew_up = bool(np.max(np.abs(wave)) > 100.0) or not np.all(
                    np.isfinite(wave)
                )
            except SingularCircuitError:
                times, wave, blew_up = None, None, True
            out[name] = (blocks, mineig, times, wave, blew_up)
        return out

    results = run_all()
    _, _, t_ref, v_ref, _ = results["dense (reference)"]

    rows = []
    truncation_unstable = False
    for name, (blocks, mineig, times, wave, blew_up) in results.items():
        if blew_up:
            error = "UNSTABLE"
            if name.startswith("truncation"):
                truncation_unstable = True
        elif wave is None:
            error = "failed"
        else:
            error = f"{compare_waveforms(t_ref, v_ref, times, wave).max_error * 1e3:.2f} mV"
        rows.append([
            name,
            blocks.kind,
            blocks.num_mutuals,
            f"{mineig:.2e}",
            "yes" if mineig > 0 else "NO",
            error,
        ])
    paper_report(format_table(
        ["strategy", "kind", "mutuals kept", "min eigenvalue",
         "passive", "waveform error vs dense"],
        rows,
        title="Section 4 -- sparsification ablation (dense PEEC reference)",
    ))

    # Paper claims, quantified:
    trunc_eig = results["truncation 0.5"][1]
    assert trunc_eig < 0 or truncation_unstable, (
        "expected naive truncation to lose passivity on this topology"
    )
    for safe in ("block-diagonal x4", "shell r=12um",
                 "halo (return-limited)", "K-matrix 0.02"):
        assert results[safe][1] > 0
        assert not results[safe][4]
    # The passive strategies keep fewer mutuals than dense.
    dense_mutuals = results["dense (reference)"][0].num_mutuals
    assert results["block-diagonal x4"][0].num_mutuals < dense_mutuals
    assert results["shell r=12um"][0].num_mutuals < dense_mutuals
    assert results["halo (return-limited)"][0].num_mutuals < dense_mutuals


def test_bench_block_diagonal_tradeoff(structure, paper_report):
    """"The section size depends on a trade-off required between run-time
    and accuracy" -- sweep the section count and quantify both sides."""
    t_ref, v_ref = _simulate(structure, DenseInductance())

    def sweep():
        out = {}
        for sections in (1, 2, 4, 8):
            strategy = BlockDiagonalSparsifier(num_sections=sections, axis=0)
            with span("bench.blockdiag_flow") as sp:
                times, wave = _simulate(structure, strategy)
            err = compare_waveforms(t_ref, v_ref, times, wave).max_error
            # Mutual count for the report.
            layout, _ = structure
            from repro.extraction.partial_matrix import extract_for_layout

            extraction, _ = extract_for_layout(layout)
            kept = strategy.apply(extraction).num_mutuals
            out[sections] = (kept, sp.duration, err)
        return out

    results = sweep()
    rows = [
        [sections, kept, f"{elapsed:.2f}", f"{err * 1e3:.2f}"]
        for sections, (kept, elapsed, err) in results.items()
    ]
    paper_report(format_table(
        ["sections", "mutuals kept (unsplit)", "build+sim [s]",
         "waveform error [mV]"],
        rows,
        title="Section 4 -- block-diagonal section-count trade-off",
    ))

    # One section = dense (error ~ 0); more sections cut mutuals and grow
    # the error, monotonically at the extremes.
    assert results[1][2] < 1e-6
    assert results[8][0] < results[2][0]
    assert results[8][2] >= results[1][2]
