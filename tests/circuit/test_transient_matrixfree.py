"""Transient Newton without dense materialization.

With sparse matrices the per-step Newton iteration stamps the device
Jacobian as a sparse update (never ``todense()``) and agrees with the
dense formulation.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit.devices import CMOSInverter
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import transient_analysis
from repro.circuit.waveforms import Ramp
from repro.resilience import inject_faults

T_STOP = 1e-9
DT = 0.02e-9


def _inverter_circuit():
    c = Circuit("t")
    c.add_vsource("vdd", "vdd", GROUND, 1.2)
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.2, 0.1e-9, 0.7e-9))
    c.add_device(CMOSInverter("u", "in", "out", "vdd", GROUND))
    c.add_capacitor("cl", "out", GROUND, 10e-15)
    c.add_resistor("rl", "out", GROUND, 1e6)
    return c


def _forced_format_system(circuit, fmt):
    """MNASystem whose auto format resolves to ``fmt``.

    The auto heuristic picks dense below 2500 unknowns, so small-n tests
    pin the format explicitly to exercise the sparse path.
    """
    system = MNASystem(circuit)
    original = system.build_matrices
    system.build_matrices = lambda _fmt="auto": original(fmt)
    return system


def _run(circuit_or_system, **kwargs):
    kwargs.setdefault("method", "be")
    kwargs.setdefault("x0", "zero")
    kwargs.setdefault("newton_tol", 1e-10)
    with inject_faults():
        return transient_analysis(circuit_or_system, T_STOP, DT, **kwargs)


@pytest.fixture
def no_densify(monkeypatch):
    """Make every sparse->dense conversion raise for the test's duration."""

    def boom(self, *args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError(
            f"{type(self).__name__} was densified on the solve path"
        )

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(cls, "toarray", boom, raising=False)
        monkeypatch.setattr(cls, "todense", boom, raising=False)


class TestSparseNewton:
    def test_sparse_run_never_densifies(self, no_densify):
        circuit = _inverter_circuit()
        result = _run(_forced_format_system(circuit, "sparse"))
        v_out = result.voltage("out")
        assert np.all(np.isfinite(v_out))
        # The inverter actually switched: high at t=0, low after the
        # input ramp -- the run did real Newton work, not a no-op.
        assert v_out[5] > 1.0
        assert v_out[-1] < 0.2

    def test_sparse_agrees_with_dense(self):
        circuit = _inverter_circuit()
        dense = _run(_forced_format_system(circuit, "dense"))
        sparse = _run(_forced_format_system(circuit, "sparse"))
        assert np.max(np.abs(dense.data - sparse.data)) < 1e-8

    def test_sparse_trajectories_are_reproducible(self):
        circuit = _inverter_circuit()
        first = _run(_forced_format_system(circuit, "sparse"))
        second = _run(_forced_format_system(circuit, "sparse"))
        assert first.data.tobytes() == second.data.tobytes()
