"""E11 -- Figure 7: inter-digitated wires ("G CLOCK G CLOCK G").

"Wider wires can be split into multiple thinner wires with shields in
between.  Such inter-digitizing reduces self-inductance, increases
resistance and capacitance.  However, it increases the amount of
metallization used for the interconnect."

The benchmark sweeps the finger count at constant routing footprint and
reports all four trends.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.design.interdigitate import interdigitation_study


def test_bench_interdigitation(paper_report):
    results = interdigitation_study(
        finger_counts=(1, 2, 4, 8),
        frequency=2e9,
        length=1000e-6,
        total_width=16e-6,
    )
    rows = []
    for r in results:
        rows.append([
            r.num_fingers,
            f"{r.loop_inductance * 1e12:.1f}",
            f"{r.signal_resistance:.3f}",
            f"{r.total_capacitance * 1e15:.1f}",
            f"{r.metal_area * 1e12:.1f}",
        ])
    paper_report(format_table(
        ["fingers", "loop L [pH]", "signal R [ohm]",
         "signal C [fF]", "metal area [um^2]"],
        rows,
        title="Figure 7 -- inter-digitated wires: L down, R & C up",
    ))

    solid = results[0]
    finest = results[-1]
    inductances = [r.loop_inductance for r in results]
    resistances = [r.signal_resistance for r in results]
    capacitances = [r.total_capacitance for r in results]
    # Monotone trends across the sweep.
    assert inductances == sorted(inductances, reverse=True)
    assert resistances == sorted(resistances)
    assert capacitances == sorted(capacitances)
    assert finest.loop_inductance < 0.6 * solid.loop_inductance
