"""Operator-backed (matrix-free) loop extraction vs the dense path.

With ``assembly="hierarchical"`` the loop sweep solves the same mesh
system as exact assembly, ``(G + jω M_f L M_fᵀ) x = e_port``, through
the Krylov rung: ``M_f L M_fᵀ`` is applied as a product of the
hierarchical operator and never materialized.  It agrees with the exact
dense extraction to well below the ACA tolerance on every Section-6
variant family, and with the nodal MNA model of the same operator.
"""

import math

import numpy as np
import pytest

from repro.circuit import linalg, mna
from repro.flows import _gnd_tap_near, build_clock_testcase
from repro.loop.extractor import (
    LoopPort, _loop_network, _MeshSystem, extract_loop_impedance,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import tracing
from repro.resilience import FaultSpec, RunReport, activate, inject_faults
from repro.scenarios.variants import VARIANTS, build_variant
from tests.loop.test_mesh import nodal_impedance

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


def _clock_loop(die=200e-6, branches=2, branch_length=60e-6,
                pitch=50e-6):
    """A clock-net loop sweep geometry and port, as the e2e loop-sweep
    workloads build them.

    By default a 200 um die with 2 branches of 60 um at 50 um stripe
    pitch, cut into filaments of at most 120 um: 344 filaments at the
    sweep's top frequency, enough for the hierarchical operator to
    compress a real far field (ACA ranks up to 8).
    """
    case = build_clock_testcase(
        die=die, num_branches=branches, branch_length=branch_length,
        stripe_pitch=pitch,
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
        if hasattr(c_matrix, "operator"):
            operators.append(c_matrix.operator)
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


@pytest.mark.parametrize("freq", [1e8, 10 ** 10.5])
def test_point_product_is_the_dense_system(freq):
    """A point's product, the near system plus ``jω`` times the far
    product, is ``G + jωC`` applied densely."""
    layout, port, max_segment_length = _clock_loop()
    network = _loop_network(layout, port, 10 ** 10.5, max_segment_length,
                            assembly="hierarchical")
    mesh = _MeshSystem(network)
    omega = 2.0 * math.pi * freq
    system = linalg.SweepAssembler(
        mesh.g_matrix, mesh.c_matrix
    ).at_omega(omega)
    dense = mesh.g_matrix.toarray() + 1j * omega * mesh.c_matrix.to_dense()
    rng = np.random.default_rng(11)
    x = rng.standard_normal(mesh.size) + 1j * rng.standard_normal(mesh.size)
    ref = dense @ x
    err = np.max(np.abs(system.matvec(x) - ref)) / np.max(np.abs(ref))
    assert err <= 1e-13, f"{err:.3e}"


def _sweep(layout, port, freqs, max_segment_length, **kwargs):
    """Impedances and trace of one sweep, ambient faults suppressed."""
    with inject_faults(), tracing() as trace:
        z = extract_loop_impedance(
            layout, port, freqs, max_segment_length=max_segment_length,
            **kwargs,
        ).impedance
    return z, trace


def test_hierarchical_sweep_is_the_mesh_system(monkeypatch):
    """The hierarchical sweep builds no MNA system: it solves the mesh
    system of the exact sweep, with the same unknowns."""
    layout, port, max_segment_length = _clock_loop()
    _, exact = _sweep(layout, port, [1e9], max_segment_length, workers=1)

    def refuse(self, *args, **kwargs):
        raise AssertionError("the loop sweep built an MNASystem")

    monkeypatch.setattr(mna.MNASystem, "__init__", refuse)
    _, hier = _sweep(layout, port, [1e9], max_segment_length, workers=1,
                     assembly="hierarchical")
    keys = ("filaments", "branches", "nodes", "mesh_size")
    attrs = hier.find("loop.sweep").attrs
    assert {k: attrs[k] for k in keys} == {
        k: exact.find("loop.sweep").attrs[k] for k in keys
    }
    assert "mna_size" not in attrs
    setup = hier.find("solver.krylov.setup").attrs
    assert setup["size"] == attrs["mesh_size"]


def test_hierarchical_sweep_matches_the_nodal_model_of_its_operator():
    """An independent path: the same operator, materialized in the test,
    stamped as a nodal MNA circuit and solved by ``ac_impedance``.  This
    checks the congruence product and the operator's leak term."""
    layout, port, max_segment_length = _clock_loop()
    freqs = np.logspace(7, 10.5, 6)
    hier, _ = _sweep(layout, port, freqs, max_segment_length, workers=1,
                     assembly="hierarchical")
    network = _loop_network(
        layout, port, float(freqs.max()), max_segment_length,
        assembly="hierarchical",
    )
    assert network.extraction.operator.far_blocks
    nodal = nodal_impedance(
        network, network.extraction.operator.to_dense(), freqs
    )
    assert np.max(np.abs(hier - nodal) / np.abs(nodal)) <= 1e-10


def test_pooled_hierarchical_sweep_is_bit_identical():
    """Pool workers receive the mesh inductance and solve bit for bit
    what the in-process sweep solves."""
    layout, port, max_segment_length = _clock_loop()
    freqs = np.logspace(7, 10.5, 4)
    serial, _ = _sweep(layout, port, freqs, max_segment_length, workers=1,
                       assembly="hierarchical")
    pooled, trace = _sweep(layout, port, freqs, max_segment_length,
                           workers=2, assembly="hierarchical")
    names = [s.name for s in trace.iter_spans()]
    assert "supervisor.chunk" in names
    assert names.count("solver.krylov.gmres") == len(freqs)
    assert np.array_equal(serial, pooled)


def test_failed_krylov_rung_falls_back_to_the_dense_mesh_system():
    """When the Krylov rung fails, the point's mesh system is formed
    once, densely, and the direct rungs give the same answer."""
    layout, port, max_segment_length = _clock_loop()
    freqs = [1e8, 1e10]
    krylov, _ = _sweep(layout, port, freqs, max_segment_length, workers=1,
                       assembly="hierarchical")
    fallbacks0 = obs_metrics.counter("solver.krylov_fallbacks").value
    to_dense0 = obs_metrics.counter("hierarchical.to_dense_calls").value
    report = RunReport()
    with inject_faults(FaultSpec("loop.krylov", "raise", max_hits=None)), \
            activate(report):
        direct = extract_loop_impedance(
            layout, port, freqs, max_segment_length=max_segment_length,
            workers=1, assembly="hierarchical",
        ).impedance
    assert (obs_metrics.counter("solver.krylov_fallbacks").value
            == fallbacks0 + len(freqs))
    assert (obs_metrics.counter("hierarchical.to_dense_calls").value
            == to_dense0 + len(freqs))
    assert [e.kind for e in report.events] == ["downgrade"] * len(freqs)
    assert np.max(np.abs(direct - krylov) / np.abs(krylov)) <= 1e-10
