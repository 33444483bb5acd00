"""Operator-backed (matrix-free) loop extraction vs the dense path.

The PR 9 acceptance bar: with ``assembly="hierarchical"`` the loop
sweep solves through the Krylov rung over the hierarchical operator --
no dense L is ever materialized -- and agrees with the exact dense
extraction to well below the ACA tolerance on every Section-6 variant
family.
"""

import math

import numpy as np
import pytest

from repro.circuit import linalg
from repro.flows import _gnd_tap_near, build_clock_testcase
from repro.loop.extractor import LoopPort, extract_loop_impedance
from repro.obs import metrics as obs_metrics
from repro.obs.trace import tracing
from repro.resilience import inject_faults
from repro.scenarios.variants import VARIANTS, build_variant

LENGTH = 100e-6
MAX_SEGMENT_LENGTH = 200e-6
FREQS = [1e9]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_operator_vs_dense_agreement(variant):
    layout, port = build_variant(variant, LENGTH)
    to_dense0 = obs_metrics.counter("hierarchical.to_dense_calls").value
    fallbacks0 = obs_metrics.counter("solver.krylov_fallbacks").value
    solves0 = obs_metrics.counter("solver.krylov_solves").value
    with inject_faults():
        exact = extract_loop_impedance(
            layout, port, FREQS,
            max_segment_length=MAX_SEGMENT_LENGTH, workers=1,
        )
        operator = extract_loop_impedance(
            layout, port, FREQS,
            max_segment_length=MAX_SEGMENT_LENGTH, workers=1,
            assembly="hierarchical",
        )
    rel = np.abs(operator.impedance - exact.impedance) / np.abs(
        exact.impedance
    )
    assert np.max(rel) <= 1e-10, f"{variant}: rel err {np.max(rel):.3e}"
    # The matrix-free contract: the hierarchical L was never densified
    # and no Krylov solve fell back to the direct path.
    assert (
        obs_metrics.counter("hierarchical.to_dense_calls").value == to_dense0
    )
    assert (
        obs_metrics.counter("solver.krylov_fallbacks").value == fallbacks0
    )
    # ... and the sweep really went through the Krylov rung (the test
    # would be vacuous if hierarchical assembly fell back to dense).
    assert obs_metrics.counter("solver.krylov_solves").value > solves0


def _clock_loop():
    """A small clock-net loop sweep geometry and port.

    A 200 um die with 2 branches of 60 um at 50 um stripe pitch, cut
    into filaments of at most 120 um: 344 filaments at the sweep's top
    frequency, enough for the hierarchical operator to compress a real
    far field (ACA ranks up to 8).
    """
    case = build_clock_testcase(
        die=200e-6, num_branches=2, branch_length=60e-6, stripe_pitch=50e-6,
    )
    driver = case.ports.driver
    far = max(
        case.ports.sinks,
        key=lambda s: math.hypot(s.x - driver.x, s.y - driver.y),
    )
    port = LoopPort(
        signal=driver,
        reference=_gnd_tap_near(case.layout, driver.x, driver.y),
        short_signal=far,
        short_reference=_gnd_tap_near(case.layout, far.x, far.y),
    )
    return case.layout, port, 120e-6


def test_near_field_preconditioner_on_a_real_far_field(monkeypatch):
    """GMRES preconditioned by the near field alone converges in a
    bounded number of iterations when the far field is really there.

    A weak preconditioner would only slow the sweep down, never fail it,
    so this iteration bound is what catches one.
    """
    layout, port, max_segment_length = _clock_loop()
    freqs = np.logspace(7, 10.5, 6)
    operators = []
    true_init = linalg.SweepAssembler.__init__

    def spy(self, g_matrix, c_matrix):
        operators.extend(op for _, op in getattr(c_matrix, "blocks", ()))
        true_init(self, g_matrix, c_matrix)

    monkeypatch.setattr(linalg.SweepAssembler, "__init__", spy)
    to_dense0 = obs_metrics.counter("hierarchical.to_dense_calls").value
    fallbacks0 = obs_metrics.counter("solver.krylov_fallbacks").value
    with inject_faults():
        exact = extract_loop_impedance(
            layout, port, freqs,
            max_segment_length=max_segment_length, workers=1,
        )
        with tracing() as trace:
            operator = extract_loop_impedance(
                layout, port, freqs,
                max_segment_length=max_segment_length, workers=1,
                assembly="hierarchical",
            )
    assert operator.num_filaments == 344
    assert operators and all(op.far_blocks for op in operators)
    solves = [s for s in trace.iter_spans() if s.name == "solver.krylov.gmres"]
    assert len(solves) == len(freqs)
    for solve in solves:
        assert solve.attrs["iterations"] <= 30, solve.attrs
    assert (
        obs_metrics.counter("hierarchical.to_dense_calls").value == to_dense0
    )
    assert (
        obs_metrics.counter("solver.krylov_fallbacks").value == fallbacks0
    )
    rel = np.abs(operator.impedance - exact.impedance) / np.abs(
        exact.impedance
    )
    assert np.max(rel) <= 1e-9, f"rel err {np.max(rel):.3e}"
