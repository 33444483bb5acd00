"""E3/E4 -- Figure 3(b,d): loop R & L vs log(frequency) and the ladder fit.

Figure 3(b) shows extracted loop inductance falling and resistance rising
with frequency as return currents redistribute into nearer paths; Figure
3(d) is Krauter's R0/L0/R1/L1 ladder fitted from two frequency samples.

This benchmark sweeps the FastHenry-style extractor over the Figure-3a
structure (signal over a coplanar ground grid), prints the R(f)/L(f)
series, fits the ladder, and reports the ladder's worst interpolation
error against the full sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.geometry import build_signal_over_grid
from repro.loop import LoopPort, extract_loop_impedance, fit_ladder


@pytest.fixture(scope="module")
def structure():
    return build_signal_over_grid(
        length=1000e-6, signal_width=2e-6, return_width=1e-6,
        pitch=10e-6, returns_per_side=3,
    )


def test_bench_loop_sweep(structure, paper_report):
    layout, ports = structure
    port = LoopPort(
        signal=ports["driver"],
        reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )
    freqs = np.logspace(7, 11, 13)

    result = extract_loop_impedance(
        layout, port, freqs, max_segment_length=250e-6
    )

    ladder = fit_ladder(
        float(freqs[0]), complex(result.impedance[0]),
        float(freqs[-1]), complex(result.impedance[-1]),
    )
    ladder_z = ladder.impedance(freqs)
    rel_err = np.abs(ladder_z - result.impedance) / np.abs(result.impedance)

    rows = [
        [f"{f:.2e}", f"{r:.4f}", f"{l * 1e9:.4f}",
         f"{lr:.4f}", f"{ll * 1e9:.4f}"]
        for f, r, l, lr, ll in zip(
            freqs, result.resistance, result.inductance,
            ladder.resistance(freqs), ladder.inductance(freqs),
        )
    ]
    paper_report(format_table(
        ["frequency [Hz]", "R extracted [ohm]", "L extracted [nH]",
         "R ladder [ohm]", "L ladder [nH]"],
        rows,
        title=(
            "Figure 3(b,d) -- loop R & L vs frequency, extraction vs "
            f"2-point ladder (R0={ladder.r0:.3f} ohm, "
            f"L0={ladder.l0 * 1e9:.4f} nH, R1={ladder.r1:.3f} ohm, "
            f"L1={ladder.l1 * 1e9:.4f} nH); "
            f"worst ladder error {rel_err.max() * 100:.2f}%"
        ),
    ))

    # Figure-3b shape: R monotone up, L monotone down with frequency.
    assert np.all(np.diff(result.resistance) > -1e-9)
    assert np.all(np.diff(result.inductance) < 1e-15)
    assert result.resistance[-1] > 1.2 * result.resistance[0]
    assert result.inductance[0] > 1.02 * result.inductance[-1]
    # The 2-frequency ladder tracks the full sweep within a few percent.
    assert rel_err.max() < 0.10
