"""E1 -- Figure 1: currents in the driver-receiver-grid topology.

The paper's Figure 1 identifies three current populations when a gate
switches:

    I1 -- short-circuit current flowing from power grid to ground grid
          while the gate is switching,
    I2 -- charging current, flowing from Vdd, for the interconnect and
          gate capacitance between signal line and ground,
    I3 -- discharging current for the interconnect and gate capacitance
          between signal line and power grid,

with the grid-to-grid loops closed "via the package and external supply,
or through the decoupling capacitance between the power and ground
grids."

This benchmark runs a square-law CMOS driver on the clock net over the
grid (decaps and package attached) for both edge polarities and reports
the peak of each population plus the package-loop current.
"""

from __future__ import annotations

import pytest

from repro import build_clock_testcase, run_current_decomposition
from repro.analysis.report import format_table

_RESULTS: dict = {}


@pytest.fixture(scope="module")
def case():
    return build_clock_testcase(
        die=300e-6, stripe_pitch=60e-6, num_branches=2,
        branch_length=80e-6, t_stop=0.8e-9, dt=1e-12,
    )


def test_bench_rising_edge(case):
    _RESULTS["rising input (output falls)"] = run_current_decomposition(
        case, falling_input=False
    )


def test_bench_falling_edge(case, paper_report):
    _RESULTS["falling input (output rises)"] = run_current_decomposition(
        case, falling_input=True
    )

    rows = []
    for edge, decomp in _RESULTS.items():
        rows.append([
            edge,
            f"{decomp.peak['I1_short_circuit'] * 1e6:.1f}",
            f"{decomp.peak['I2_charge'] * 1e3:.3f}",
            f"{decomp.peak['I3_discharge'] * 1e3:.3f}",
            f"{decomp.peak['package'] * 1e3:.3f}",
        ])
    paper_report(format_table(
        ["switching edge", "I1 short-circuit [uA]", "I2 charge [mA]",
         "I3 discharge [mA]", "package loop [mA]"],
        rows,
        title="Figure 1 -- current populations at a switching edge",
    ))

    rising = _RESULTS["rising input (output falls)"]
    falling = _RESULTS["falling input (output rises)"]
    # Output falling -> discharge (I3) dominates; output rising -> charge
    # (I2) dominates; crowbar I1 flows in both; the package loop closes
    # the supply current.
    assert rising.peak["I3_discharge"] > rising.peak["I2_charge"]
    assert falling.peak["I2_charge"] > falling.peak["I3_discharge"]
    assert rising.peak["I1_short_circuit"] > 0
    assert falling.peak["package"] > 0
