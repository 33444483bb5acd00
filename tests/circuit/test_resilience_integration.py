"""Resilience wiring inside the circuit engines: DC gmin interaction and
the ConvergenceError iteration trace."""

import numpy as np
import pytest

from repro.circuit.dc import SOURCE_STEPS, ConvergenceError, dc_operating_point
from repro.circuit.linalg import SingularCircuitError
from repro.circuit.netlist import GROUND, Circuit
from repro.resilience import (
    ResiliencePolicy,
    RunReport,
    activate,
    inject_faults,
)

SAFE = ResiliencePolicy(escalation="safe")
FULL = ResiliencePolicy(escalation="full")


class _Oscillator:
    """Discontinuous device Newton can never balance: the residual flips
    sign forever, so DC convergence must fail deterministically."""

    name = "osc"
    nodes = ("a",)

    def evaluate(self, v):
        i = np.array([1.0 if float(v[0]) >= 0.0 else -1.0])
        return i, np.array([[0.0]])


def _nonconvergent_circuit():
    c = Circuit("osc")
    c.add_resistor("r", "a", GROUND, 1.0)
    c.add_device(_Oscillator())
    return c


class TestConvergenceErrorTrace:
    def test_str_carries_residual_history_and_last_step(self):
        err = ConvergenceError(
            "no convergence", residual_history=[1.0, 0.5, 0.25],
            last_step=0.125,
        )
        text = str(err)
        assert "3 iterations" in text
        assert "residuals" in text
        assert "2.500e-01" in text
        assert "last step 1.250e-01" in text

    def test_long_histories_are_elided(self):
        err = ConvergenceError("x", residual_history=list(range(1, 20)))
        text = str(err)
        assert "19 iterations" in text
        assert "..." in text

    def test_plain_message_without_history(self):
        assert str(ConvergenceError("flat")) == "flat"

    def test_failed_dc_populates_the_trace(self):
        with inject_faults():
            with pytest.raises(ConvergenceError) as err:
                dc_operating_point(_nonconvergent_circuit(), max_iter=10,
                                   policy=SAFE)
        exc = err.value
        assert len(exc.residual_history) >= 10
        assert exc.last_step is not None
        assert "iterations" in str(exc)

    def test_full_policy_records_source_stepping_attempts(self):
        report = RunReport()
        with inject_faults():
            with activate(report):
                with pytest.raises(ConvergenceError):
                    dc_operating_point(_nonconvergent_circuit(), max_iter=10,
                                       policy=FULL)
        fractions = report.by_kind("source-stepping")
        assert len(fractions) == len(SOURCE_STEPS)


class TestDCGminInteraction:
    def _floating_cap_circuit(self):
        c = Circuit("float")
        c.add_vsource("v", "a", GROUND, 1.0)
        c.add_resistor("r", "a", "b", 10.0)
        c.add_capacitor("c1", "b", "c", 1e-15)  # node "c" floats at DC
        return c

    def test_explicit_gmin_keeps_the_matrix_solvable(self):
        with inject_faults():
            x = dc_operating_point(self._floating_cap_circuit(), policy=SAFE)
        assert np.all(np.isfinite(x))

    def test_safe_policy_without_gmin_raises(self):
        with inject_faults():
            with pytest.raises(SingularCircuitError):
                dc_operating_point(self._floating_cap_circuit(), gmin=0.0,
                                   policy=SAFE)

    def test_gmin_rung_rescues_what_add_gmin_would_have_fixed(self):
        # The escalation chain's gmin rung is the implicit counterpart of
        # the explicit add_gmin() leak: with gmin=0 and the full policy,
        # the solve recovers and matches the explicit-gmin answer.
        circuit = self._floating_cap_circuit()
        with inject_faults():
            explicit = dc_operating_point(circuit, gmin=1e-12, policy=SAFE)
            report = RunReport()
            with activate(report):
                rescued = dc_operating_point(circuit, gmin=0.0, policy=FULL)
        assert report.solve_reports
        assert report.solve_reports[0].winner in ("gmin", "lstsq")
        assert np.allclose(rescued[:2], explicit[:2], atol=1e-6)
