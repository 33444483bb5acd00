"""Section 3 -- device decap and switching activity on the power grid.

Not a numbered figure, but two quantitative claims of the model section:

* "The parasitic device capacitance of these non-switching gates results
  in a significant decoupling capacitance effect, which reduces IR-drop";
* "Those gates draw current from the power grid and inject it into the
  ground grid, causing voltage fluctuations."

The benchmark runs the grid + package + activity model with the decap of
a 10%-switching region, a 20%-switching region, and no decap at all, and
reports worst VDD droop and GND bounce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.circuit.transient import transient_analysis
from repro.geometry import PowerGridSpec, build_power_grid, default_layer_stack
from repro.peec import (
    PEECOptions,
    attach_decaps,
    attach_package,
    attach_switching_activity,
    build_peec_model,
    estimate_decoupling_capacitance,
)


def _run(decap_total: float | None) -> tuple[float, float]:
    layout = build_power_grid(
        PowerGridSpec(
            die_width=300e-6, die_height=300e-6, layer_names=("M5", "M6"),
            stripe_pitch=60e-6, stripe_width=2e-6, pads_per_net=2,
        ),
        default_layer_stack(6),
    )
    model = build_peec_model(layout, PEECOptions(max_segment_length=80e-6))
    attach_package(model)
    if decap_total:
        attach_decaps(model, decap_total, count=8)
    attach_switching_activity(
        model, num_sources=8, peak_current=1.5e-3,
        window=(0.05e-9, 0.4e-9), rng=np.random.default_rng(42),
    )
    vdd_nodes = model.nodes_of_net("VDD", "M5")
    gnd_nodes = model.nodes_of_net("GND", "M5")
    result = transient_analysis(model.circuit, 0.8e-9, 2e-12,
                                record=vdd_nodes + gnd_nodes)
    droop = max(float(np.max(1.2 - result.voltage(n))) for n in vdd_nodes)
    bounce = max(float(np.max(np.abs(result.voltage(n)))) for n in gnd_nodes)
    return droop, bounce


def test_bench_grid_noise(paper_report):
    cases = {
        "no decap": None,
        "decap, 20% switching": estimate_decoupling_capacitance(
            2e-3, switching_fraction=0.20
        ),
        "decap, 10% switching": estimate_decoupling_capacitance(
            2e-3, switching_fraction=0.10
        ),
    }

    def run_all():
        return {name: _run(total) for name, total in cases.items()}

    results = run_all()

    rows = [
        [name,
         "0" if cases[name] is None else f"{cases[name] * 1e12:.1f}",
         f"{droop * 1e3:.1f}", f"{bounce * 1e3:.1f}"]
        for name, (droop, bounce) in results.items()
    ]
    paper_report(format_table(
        ["configuration", "decap [pF]", "worst VDD droop [mV]",
         "worst GND bounce [mV]"],
        rows,
        title="Section 3 -- decap reduces IR drop and grid noise",
    ))

    no_decap = results["no decap"]
    with_decap = results["decap, 20% switching"]
    quieter = results["decap, 10% switching"]
    # Decap cuts the droop substantially...
    assert with_decap[0] < 0.5 * no_decap[0]
    assert with_decap[1] < 0.5 * no_decap[1]
    # ...and more non-switching width (10% switching) means more decap,
    # hence equal-or-less noise.
    assert quieter[0] <= with_decap[0] * 1.05
