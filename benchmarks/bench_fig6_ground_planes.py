"""E10 -- Figure 6: dedicated ground planes, L vs frequency.

"Although they do not significantly lower the inductive effect at low
frequencies, since resistance dominates and currents take wide return
paths, at high frequencies, the ground planes provide excellent return
paths for the signal current."  The inset of Figure 6 sketches L vs
frequency for "with ground planes" vs "with shields": planes win at high
frequency.

The benchmark sweeps L(f) for the baseline, coplanar shields, and
above/below planes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.design.ground_plane import ground_plane_study


def test_bench_ground_planes(paper_report):
    freqs = np.logspace(8, 10.7, 7)
    results = ground_plane_study(frequencies=freqs, length=1000e-6)
    by_label = {r.label: r for r in results}

    rows = []
    for i, f in enumerate(freqs):
        rows.append([
            f"{f:.2e}",
            *(f"{by_label[lab].inductance[i] * 1e12:.1f}"
              for lab in ("baseline", "with shields", "with ground planes")),
        ])
    paper_report(format_table(
        ["frequency [Hz]", "baseline L [pH]", "shields L [pH]",
         "planes L [pH]"],
        rows,
        title="Figure 6 -- L vs frequency: ground planes vs shields",
    ))

    base = by_label["baseline"]
    shields = by_label["with shields"]
    planes = by_label["with ground planes"]
    # Both techniques beat the baseline at high frequency.
    assert planes.inductance[-1] < base.inductance[-1]
    assert shields.inductance[-1] < base.inductance[-1]
    # The plane benefit grows with frequency (the Figure-6 message).
    ratio_low = planes.inductance[0] / base.inductance[0]
    ratio_high = planes.inductance[-1] / base.inductance[-1]
    assert ratio_high < ratio_low
