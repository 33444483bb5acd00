"""E12 -- Figure 8: staggered inverter patterns.

"By using patterns of staggered inverters, the coupling capacitance and
inductance effects can be reduced ... the signal polarities alternate
with each inverter, and hence the impact of the coupling tends to cancel
out."

The benchmark compares the victim receiver's coupled noise between the
aligned (non-staggered) and staggered repeater patterns.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.design.staggered import staggered_study


def test_bench_staggered(paper_report):
    results = staggered_study(length=800e-6, t_stop=0.8e-9)
    by_pattern = {r.pattern: r for r in results}
    rows = [
        [r.pattern, f"{r.victim_peak_noise * 1e3:.3f}"]
        for r in results
    ]
    ratio = (by_pattern["staggered"].victim_peak_noise
             / by_pattern["non-staggered"].victim_peak_noise)
    paper_report(format_table(
        ["pattern", "victim peak noise [mV]"],
        rows,
        title=(
            "Figure 8 -- staggered inverters: victim noise "
            f"(staggered / non-staggered = {ratio:.3f})"
        ),
    ))

    assert by_pattern["non-staggered"].victim_peak_noise > 1e-3
    assert ratio < 0.2  # alternating polarity cancels the coupling
