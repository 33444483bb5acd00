"""Failures that occur are handled once, and recorded where the caller looks.

A genuinely singular sweep point fails after one pass of the escalation
chain, a transient step whose Newton iteration does not converge goes
straight to step halving, and an engine run inside an activated run
report records into it even while that report is still empty.
"""

import pytest

from repro.circuit import linalg
from repro.circuit.ac import ac_impedance
from repro.circuit.dc import ConvergenceError
from repro.circuit.devices import CMOSInverter
from repro.circuit.linalg import SingularCircuitError
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import transient_analysis
from repro.circuit.waveforms import Ramp
from repro.loop.extractor import LoopPort, extract_loop_impedance
from repro.obs import metrics as obs_metrics
from repro.resilience import (
    FaultSpec, ResiliencePolicy, RunReport, activate, inject_faults,
)
from repro.resilience.policy import MAX_STEP_HALVINGS

SAFE = ResiliencePolicy(escalation="safe")


def _rlc():
    c = Circuit("rlc")
    c.add_vsource("vin", "a", GROUND, Ramp(0.0, 1.0, 20e-12, 30e-12))
    c.add_resistor("r", "a", "b", 5.0)
    c.add_inductor("l", "b", "c", 1e-9)
    c.add_capacitor("c1", "c", GROUND, 0.5e-12)
    return c


def test_singular_sweep_point_is_solved_once(monkeypatch):
    # MNA unknowns p, x, q and the inductor current: node x touches only
    # a current source, so row 1 is empty in both G and C and no rung
    # of the safe chain can factor the point.
    c = Circuit("singular")
    c.add_resistor("r", "p", GROUND, 1.0)
    c.add_isource("i", "x", GROUND, 0.0)
    c.add_inductor("l", "p", "q", 1e-9)
    c.add_capacitor("c", "q", GROUND, 1e-15)
    attempts = []  # every Factorization attempt, successful or not

    class Counted(linalg.Factorization):
        def __init__(self, matrix):
            attempts.append(matrix.shape)
            super().__init__(matrix)

    monkeypatch.setattr(linalg, "Factorization", Counted)
    report = RunReport()
    with inject_faults(), activate(report), \
            pytest.raises(SingularCircuitError):
        ac_impedance(c, [1e9], ("p", GROUND), policy=SAFE, workers=1)
    assert attempts == [(4, 4), (4, 4)]  # one per safe rung
    assert report.events == []
    assert [[a.rung for a in r.attempts] for r in report.solve_reports] == [
        ["lu", "equilibrated"]
    ]


def test_failing_newton_step_goes_straight_to_halving(monkeypatch):
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", GROUND, 1.2)
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.2, 0.0, 50e-12))
    c.add_device(CMOSInverter("u", "in", "out", "vdd", GROUND))
    c.add_capacitor("cl", "out", GROUND, 10e-15)
    iterations = obs_metrics.counter("newton.iterations.transient")
    at_halving = []
    record = RunReport.record_step_halving

    def spy(self, stage, detail):
        at_halving.append(iterations.value)
        record(self, stage, detail)

    monkeypatch.setattr(RunReport, "record_step_halving", spy)
    start = iterations.value
    # Three Newton iterations never reach 1e-9 on the 50 ps edge, nor
    # on any of its halvings: the first step fails every time.
    with inject_faults(), pytest.raises(ConvergenceError):
        transient_analysis(
            c, 0.5e-9, 50e-12, max_newton=3, newton_tol=1e-9,
        )
    assert len(at_halving) == MAX_STEP_HALVINGS
    assert at_halving[0] - start == 3  # max_newton, spent once


class TestEmptyActiveReport:
    """An activated report is the run's report even before its first
    event: every escalation lands in it and the result hands it back."""

    def _run_into(self, site, run):
        outer = RunReport()
        with inject_faults(FaultSpec(f"{site}.lu", "singular")), \
                activate(outer):
            result = run()
        assert result.report is outer
        assert [(r.site, r.winner) for r in outer.solve_reports] == [
            (site, "equilibrated")
        ]

    def test_transient(self):
        self._run_into("transient", lambda: transient_analysis(
            _rlc(), 0.2e-9, 1e-12, x0="zero", policy=SAFE,
        ))

    def test_loop_extraction(self, signal_grid_structure):
        layout, ports = signal_grid_structure
        port = LoopPort(
            signal=ports["driver"], reference=ports["gnd_driver"],
            short_signal=ports["receiver"],
            short_reference=ports["gnd_receiver"],
        )
        self._run_into("loop", lambda: extract_loop_impedance(
            layout, port, [1e9], max_segment_length=150e-6, workers=1,
            policy=SAFE,
        ))
