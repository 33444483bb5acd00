"""One format rule: every consumer of ``build_matrices()`` reads its format.

``linalg.sparse_pays`` is applied once, where the matrices are built; the
PRIMA projection, the AC impedance sweep, the DC point and the transient
companion factors all multiply and factor in that format, and their
spans say which.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit import linalg
from repro.circuit.ac import ac_analysis, ac_impedance
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import transient_analysis
from repro.circuit.waveforms import Ramp
from repro.mor.ports import NodePort
from repro.mor.prima import prima_reduce
from repro.obs.trace import tracing
from repro.resilience import inject_faults


def _rlc_ladder(sections: int) -> Circuit:
    """A driven RC ladder with one series inductor and a resistive load."""
    c = Circuit(f"ladder{sections}")
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.0, 10e-12, 30e-12))
    c.add_resistor("rdrv", "in", "n0", 25.0)
    for k in range(1, sections):
        c.add_resistor(f"r{k}", f"n{k - 1}", f"n{k}", 2.0)
        c.add_capacitor(f"c{k}", f"n{k}", GROUND, 2e-15)
    c.add_inductor("l", f"n{sections - 1}", "out", 1e-10)
    c.add_resistor("rload", "out", GROUND, 1e3)
    return c


@pytest.mark.parametrize("sections, fmt", [(300, "sparse"), (20, "dense")])
def test_every_consumer_reads_the_rules_format(sections, fmt):
    circuit = _rlc_ladder(sections)
    system = MNASystem(circuit)
    n = system.size
    assert n < 2500
    g, c = system.build_matrices()
    assert linalg.sparse_pays(sp.csr_matrix(g), sp.csr_matrix(c)) == (
        fmt == "sparse"
    )

    with inject_faults(), tracing() as trace:
        transient_analysis(circuit, 20e-12, 1e-12)
        prima_reduce(circuit, [NodePort("n5")], order=4)
        ac_impedance(circuit, [1e8, 1e9], ("n5", GROUND), workers=1)
    assert trace.find("circuit.dc").attrs["format"] == fmt
    factors = [s for s in trace.iter_spans()
               if s.name == "circuit.transient.factor"]
    assert factors and all(s.attrs["format"] == fmt for s in factors)
    prima = trace.find("mor.prima")
    assert prima.attrs["format"] == fmt
    if fmt == "sparse":
        assert 0 < prima.attrs["factor_nnz"] < n * n
    else:
        assert prima.attrs["factor_nnz"] == n * n
    assert trace.find("circuit.ac.impedance").attrs["format"] == fmt
    assert sp.issparse(g) == (fmt == "sparse")


def test_ac_analysis_span_reports_the_format():
    with inject_faults(), tracing() as trace:
        result = ac_analysis(
            _rlc_ladder(300), [1e9], {"vin": 1.0}, workers=1
        )
    assert trace.find("circuit.ac").attrs["format"] == "sparse"
    assert np.all(np.isfinite(result.x))
