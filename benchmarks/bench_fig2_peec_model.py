"""E2 -- Figure 2: composition of the detailed PEEC circuit model.

Figure 2 lists the model ingredients: RLC-pi per metal segment, mutual
inductances between all pairs of parallel segments, coupling capacitance
between adjacent lines, via resistances, decap, switching-activity
current sources, and pad R/L.  This benchmark builds the full model over
the grid + clock topology and reports the census -- the element explosion
("mutual inductance of the order of 10G" at production scale) is the
motivation for all of Section 4.
"""

from __future__ import annotations

import pytest

from repro import build_clock_testcase
from repro.analysis.report import format_table
from repro.peec import (
    PEECOptions,
    attach_decaps,
    attach_package,
    attach_switching_activity,
    build_peec_model,
)


@pytest.fixture(scope="module")
def case():
    return build_clock_testcase(
        die=500e-6, stripe_pitch=60e-6, num_branches=3, branch_length=120e-6,
    )


def test_bench_model_build(case, paper_report):
    def build():
        model = build_peec_model(
            case.layout, PEECOptions(max_segment_length=80e-6)
        )
        attach_package(model)
        attach_decaps(model, 20e-12, count=8)
        attach_switching_activity(model, num_sources=6)
        return model

    model = build()
    stats = model.stats()
    layout_stats = case.layout.stats()

    n = stats["inductors"]
    dense_pairs = stats["mutuals"]
    rows = [
        ["metal segments (layout)", layout_stats["segments"]],
        ["vias (layout)", layout_stats["vias"]],
        ["pads (layout)", layout_stats["pads"]],
        ["nodes", stats["nodes"]],
        ["resistances", stats["resistors"]],
        ["capacitances (ground + coupling)", stats["capacitors"]],
        ["partial self inductances", n],
        ["partial mutual inductances", dense_pairs],
        ["pad/package sources", stats["vsources"]],
        ["activity current sources", stats["isources"]],
    ]
    paper_report(format_table(
        ["model ingredient", "count"],
        rows,
        title="Figure 2 -- detailed PEEC model composition",
    ))

    # The dense mutual count must scale ~quadratically with self count:
    # every pair of parallel segments couples.
    assert dense_pairs > n * 10
    assert stats["resistors"] >= layout_stats["segments"]
    assert stats["vsources"] == layout_stats["pads"]
