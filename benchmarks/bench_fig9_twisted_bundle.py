"""E13 -- Figure 9: twisted-bundle layout structures.

"The routing of nets is reordered in each of these regions ... to create
complementary and opposite current loops in the twisted bundle layout
structure, such that the magnetic fluxes arising from any signal net
within a twisted group cancel each other in the current loop of a net of
interest."

The benchmark drives an aggressor pair with a fast differential edge and
compares the quiet victim pair's differential pickup between the parallel
and twisted bundles, plus the metal cost of the crossovers.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.design.twisted_bundle import twisted_bundle_study


def test_bench_twisted_bundle(paper_report):
    results = twisted_bundle_study(
        num_regions=8, length=800e-6, t_stop=0.6e-9,
    )
    by_style = {r.style: r for r in results}
    rows = [
        [r.style, f"{r.victim_peak_noise * 1e3:.3f}", r.num_segments]
        for r in results
    ]
    ratio = (by_style["twisted"].victim_peak_noise
             / by_style["parallel"].victim_peak_noise)
    paper_report(format_table(
        ["bundle style", "victim differential noise [mV]", "segments"],
        rows,
        title=(
            "Figure 9 -- twisted bundle: inductive coupling noise "
            f"(twisted / parallel = {ratio:.3f})"
        ),
    ))

    assert ratio < 0.85
    assert by_style["twisted"].num_segments > by_style["parallel"].num_segments
