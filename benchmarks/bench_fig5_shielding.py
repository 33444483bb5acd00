"""E9 -- Figure 5: shielding ("S GND CLK GND S").

"Loop inductance can be reduced by sandwiching a signal line between
ground return lines or guard traces.  This forces the high-frequency
current return paths to be close to the signal line, thus minimizing
inductance."  The benchmark sweeps shield spacing and reports loop R/L
against the unshielded baseline.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.design.shielding import shielding_study


def test_bench_shielding(paper_report):
    results = shielding_study(
        shield_spacings=(1e-6, 2e-6, 4e-6, 8e-6),
        frequency=2e9,
        length=1000e-6,
    )
    baseline = results[0]
    rows = []
    for r in results:
        label = ("no shields (returns at 25 um)" if r.shield_spacing is None
                 else f"shields at {r.shield_spacing * 1e6:.0f} um")
        rows.append([
            label,
            f"{r.loop_inductance * 1e12:.1f}",
            f"{r.loop_resistance:.3f}",
            f"{r.loop_inductance / baseline.loop_inductance:.2f}",
        ])
    paper_report(format_table(
        ["configuration", "loop L [pH]", "loop R [ohm]", "L / baseline"],
        rows,
        title="Figure 5 -- shielding: loop inductance vs shield spacing",
    ))

    shielded = results[1:]
    # Every shielded configuration beats the baseline...
    assert all(r.loop_inductance < baseline.loop_inductance for r in shielded)
    # ...tighter shields help more...
    inductances = [r.loop_inductance for r in shielded]
    assert inductances == sorted(inductances)
    # ...and the reduction is substantial (paper's point).
    assert shielded[0].loop_inductance < 0.6 * baseline.loop_inductance
