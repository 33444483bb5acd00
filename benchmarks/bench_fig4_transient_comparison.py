"""E5 -- Figure 4: top-level clock net transient, LOOP vs PEEC.

Figure 4 overlays receiver waveforms from the loop model and the detailed
PEEC model: "In the PEEC model, the delay increased by 10 ps, compared
with the RC model, while in the loop model, the delay increased by 30
ps" -- the loop model overestimates the inductance effect because its
extraction ignores the capacitive return paths.

This benchmark simulates the same edge through PEEC(RC), PEEC(RLC) and
LOOP(RLC) and reports per-sink delays plus the waveform deviation of the
loop model from the detailed one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_clock_testcase, run_loop_flow, run_peec_flow
from repro.analysis.compare import compare_waveforms
from repro.analysis.report import format_table
from repro.constants import to_ps

_RESULTS: dict = {}


@pytest.fixture(scope="module")
def case():
    return build_clock_testcase(
        die=600e-6, stripe_pitch=80e-6, num_branches=3,
        branch_length=160e-6, t_stop=1.0e-9, dt=2e-12,
    )


def test_bench_fig4_waveforms(case, paper_report):
    def run_all():
        return {
            "PEEC (RC)": run_peec_flow(case, include_inductance=False),
            "PEEC (RLC)": run_peec_flow(case),
            "LOOP (RLC)": run_loop_flow(case),
        }

    _RESULTS.update(run_all())
    rc = _RESULTS["PEEC (RC)"]
    rlc = _RESULTS["PEEC (RLC)"]
    loop = _RESULTS["LOOP (RLC)"]

    sink_names = sorted(rlc.delays)
    rows = []
    for name in sink_names:
        rows.append([
            name,
            f"{to_ps(rc.delays[name]):.2f}",
            f"{to_ps(rlc.delays[name]):.2f}",
            f"{to_ps(loop.delays[name]):.2f}",
            f"{to_ps(rlc.delays[name] - rc.delays[name]):+.2f}",
            f"{to_ps(loop.delays[name] - rc.delays[name]):+.2f}",
        ])
    worst = max(
        compare_waveforms(
            rlc.times, rlc.waveforms[name], loop.times, loop.waveforms[name]
        ).max_error
        for name in sink_names
    )
    paper_report(format_table(
        ["sink", "RC delay [ps]", "PEEC delay [ps]", "LOOP delay [ps]",
         "PEEC-RC [ps]", "LOOP-RC [ps]"],
        rows,
        title=(
            "Figure 4 -- clock-edge delays, loop vs PEEC "
            f"(worst loop-vs-PEEC waveform error {worst:.3f} V)"
        ),
    ))

    # Paper shape: inductance adds delay in both inductive models; the
    # loop model's delta is at least comparable to (typically larger
    # than) the detailed model's.
    delta_peec = rlc.worst_delay - rc.worst_delay
    delta_loop = loop.worst_delay - rc.worst_delay
    assert delta_peec > 0
    assert delta_loop > 0.5 * delta_peec
