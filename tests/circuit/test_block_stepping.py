"""Block stepping of linear transients against the per-step path.

Circuits without devices step the whole run as one block: of raw LU
solves, or, for the steps of a kind (backward Euler or trapezoidal)
that a dense run takes at least as often as it has unknowns, of the
propagator ``x <- P x + f_k``.  These tests pin that the LU block
reproduces the per-step path -- bit for bit where both form the step
product from the same dense matrices, to 1e-12 elsewhere -- that the
propagator reproduces the LU block to 1e-12, and that a block that
fails re-runs step by step, so a fault leaves the same reports as
before.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.circuit import linalg, transient
from repro.circuit.dc import dc_operating_point
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import transient_analysis
from repro.circuit.waveforms import PWL, Pulse, Ramp
from repro.mor.ports import NodePort
from repro.mor.prima import prima_reduce
from repro.obs.trace import tracing
from repro.resilience import FaultSpec, inject_faults
from repro.scenarios.runner import _scenario_circuit
from repro.scenarios.spec import Scenario

T_STOP, DT = 0.4e-9, 2e-12


def _rc():
    c = Circuit("rc")
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.0, 20e-12, 30e-12))
    c.add_resistor("r1", "in", "a", 50.0)
    c.add_capacitor("c1", "a", GROUND, 0.2e-12)
    c.add_resistor("r2", "a", "b", 80.0)
    c.add_capacitor("c2", "b", GROUND, 0.1e-12)
    # Two current sources on one node: b(t) accumulates in source order.
    c.add_isource("i1", "b", GROUND, PWL(((0.0, 0.0), (0.1e-9, 1e-3))))
    c.add_isource("i2", GROUND, "b", Pulse(0.0, 2e-4, 30e-12, 5e-12,
                                          5e-12, 40e-12, 100e-12))
    return c


def _rlc_mutual():
    c = Circuit("rlc-mutual")
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.0, 10e-12, 30e-12))
    c.add_resistor("rs", "in", "a", 25.0)
    c.add_inductor("l1", "a", "out1", 1e-9)
    c.add_capacitor("c1", "out1", GROUND, 50e-15)
    c.add_resistor("rv", "b", GROUND, 25.0)
    c.add_inductor("l2", "b", "out2", 1e-9)
    c.add_capacitor("c2", "out2", GROUND, 50e-15)
    c.add_mutual("m12", "l1", "l2", 0.4e-9)
    return c


def _kset():
    c = Circuit("kset")
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.0, 10e-12, 30e-12))
    c.add_resistor("rs", "in", "a", 25.0)
    c.add_resistor("rv", "b", GROUND, 25.0)
    l_matrix = np.array([[1e-9, 0.3e-9], [0.3e-9, 1e-9]])
    c.add_k_set("K", (("a", "o1"), ("b", "o2")), np.linalg.inv(l_matrix))
    c.add_capacitor("c1", "o1", GROUND, 50e-15)
    c.add_capacitor("c2", "o2", GROUND, 50e-15)
    return c


def _prima_host():
    line = Circuit("line")
    prev = "p"
    for k in range(15):
        line.add_series_rl(f"s{k}", prev, f"n{k}", 2.0, 0.2e-9)
        line.add_capacitor(f"c{k}", f"n{k}", GROUND, 10e-15)
        prev = f"n{k}"
    rom = prima_reduce(line, [NodePort("p")], order=8)
    mm = rom.to_macromodel("rom", [NodePort("port")])
    host = Circuit("host")
    host.add_vsource("vin", "vin", GROUND, Ramp(0.0, 1.0, 20e-12, 40e-12))
    host.add_resistor("rdrv", "vin", "port", 50.0)
    host.add_macromodel("rom", mm.ports, mm.g_red, mm.c_red, mm.b_red)
    return host


def _ladder(sections=300):
    """Dense-format RC ladder big and sparse enough for CSR products."""
    c = Circuit("ladder")
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.0, 10e-12, 30e-12))
    prev = "in"
    for k in range(sections):
        c.add_resistor(f"r{k}", prev, f"n{k}", 2.0)
        c.add_capacitor(f"c{k}", f"n{k}", GROUND, 2e-15)
        prev = f"n{k}"
    return c


def _forced_sparse(circuit):
    """An MNASystem built while the format rule says sparse, so its
    (once-built) matrices are CSR."""
    system = MNASystem(circuit)
    with mock.patch.object(linalg, "sparse_pays", lambda *args: True):
        system.build_matrices()
    return system


def _scenario():
    """The circuit every ``variant_sweep`` scenario steps."""
    return _scenario_circuit(Scenario(), 8.0, 0.4e-9)[0]


FAMILIES = {
    "rc": lambda: _rc(),
    "rlc-mutual": lambda: _rlc_mutual(),
    "kset": lambda: _kset(),
    "prima-host": lambda: _prima_host(),
    "csr-product": lambda: _ladder(),
    "sparse": lambda: _forced_sparse(_rlc_mutual()),
}


@pytest.fixture
def per_step(monkeypatch):
    """Context manager: transients run inside it take the per-step path."""

    @contextmanager
    def switch():
        with monkeypatch.context() as m:
            m.setattr(transient, "_BlockStepper", lambda *args: None)
            yield

    return switch


@pytest.fixture
def lu_block(monkeypatch):
    """Dense-product blocks step by LU solves, never by the propagator."""
    monkeypatch.setattr(transient, "_propagates", lambda *args: False)


def _run(build, **kwargs):
    with inject_faults(), tracing() as trace:
        result = transient_analysis(build(), T_STOP, DT, **kwargs)
    return result, trace.find("circuit.transient")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_block_path_matches_per_step_path(family, per_step, lu_block):
    build = FAMILIES[family]
    block, block_span = _run(build)
    with per_step():
        each, each_span = _run(build)
    assert block_span.attrs["path"] == "block"
    assert each_span.attrs["path"] == "per-step"
    assert np.array_equal(block.times, each.times)
    if block_span.attrs["product"] == "dense":
        assert block.data.tobytes() == each.data.tobytes()
    else:
        scale = float(np.abs(each.data).max())
        assert float(np.abs(block.data - each.data).max()) <= 1e-12 * scale


@pytest.mark.parametrize("family", sorted(FAMILIES) + ["scenario"])
def test_propagator_matches_the_lu_block(family, monkeypatch):
    build = FAMILIES.get(family, _scenario)
    moved, moved_span = _run(build)
    with monkeypatch.context() as m:
        m.setattr(transient, "_propagates", lambda *args: False)
        block, block_span = _run(build)
    assert block_span.attrs["propagated"] == 0
    steps = moved_span.attrs["steps"]
    dense = moved_span.attrs["product"] == "dense"
    # The two backward-Euler steps that start the run keep the LU.
    assert moved_span.attrs["propagated"] == (steps - 2 if dense else 0)
    scale = float(np.abs(block.data).max())
    assert float(np.abs(moved.data - block.data).max()) <= 1e-12 * scale


def test_each_step_kind_propagates_by_its_own_count(monkeypatch):
    """A trapezoidal run's two backward-Euler start steps stay LU solves,
    bit for bit those of the LU block; a backward-Euler run maps all."""
    moved, moved_span = _run(_rc)
    assert moved_span.attrs["propagated"] == 198
    monkeypatch.setattr(transient, "_propagates", lambda *args: False)
    block, _ = _run(_rc)
    assert moved.data[:3].tobytes() == block.data[:3].tobytes()
    monkeypatch.undo()
    _, be_span = _run(_rc, method="be")
    assert be_span.attrs["propagated"] == 200


def test_forcing_chunks_do_not_change_the_states(monkeypatch):
    """The propagator forms its forcing a fixed number of rows at a time;
    chunk edges leave the states as they were."""
    whole, _ = _run(_rc)
    monkeypatch.setattr(transient, "_FORCING_ROWS", 7)
    chunked, span_ = _run(_rc)
    assert span_.attrs["propagated"] == 198
    scale = float(np.abs(whole.data).max())
    assert float(np.abs(chunked.data - whole.data).max()) <= 1e-14 * scale


def test_fewer_steps_than_unknowns_keep_the_lu_block(per_step):
    """Building P costs about one LU step per unknown: a dense run
    shorter than its size steps by LU solves, bit for bit per-step."""
    with inject_faults(), tracing() as trace:
        block = transient_analysis(_rlc_mutual(), 6 * DT, DT)
    span_ = trace.find("circuit.transient")
    assert span_.attrs["size"] > 6
    assert span_.attrs["product"] == "dense"
    assert span_.attrs["propagated"] == 0
    with per_step(), inject_faults():
        each = transient_analysis(_rlc_mutual(), 6 * DT, DT)
    assert block.data.tobytes() == each.data.tobytes()


@pytest.mark.parametrize(
    "family, product, rung, replayed, propagated",
    [
        pytest.param("rc", "dense", "lu", 0, 198, id="rc-dense-lu-0"),
        pytest.param("csr-product", "csr", "lu", 0, 0,
                     id="csr-product-csr-lu-0"),
        pytest.param("sparse", "csr", "lu", 0, 0, id="sparse-csr-lu-0"),
    ],
)
def test_transient_span_records_path_product_and_rung(
    family, product, rung, replayed, propagated
):
    _, span_ = _run(FAMILIES[family])
    assert span_.attrs["path"] == "block"
    assert span_.attrs["product"] == product
    assert span_.attrs["rung"] == rung
    assert span_.attrs["blocks"] == 1
    assert span_.attrs["replayed"] == replayed
    assert span_.attrs["propagated"] == propagated


def test_factor_spans_carry_size_format_and_alpha():
    for family, fmt in [("sparse", "sparse"), ("csr-product", "sparse"),
                        ("rc", "dense")]:
        _, span_ = _run(FAMILIES[family])
        n = span_.attrs["size"]
        factors = [s for s in span_.children
                   if s.name == "circuit.transient.factor"]
        assert [s.attrs["serves"] for s in factors] == ["be", "trap"]
        assert [s.attrs["alpha"] for s in factors] == [1.0 / DT, 2.0 / DT]
        for s in factors:
            assert s.attrs["size"] == n
            assert s.attrs["format"] == fmt
            assert s.attrs["rung"] == "lu"
            if fmt == "dense":
                assert s.attrs["factor_nnz"] == n * n
            elif family == "csr-product":
                # (SuperLU's supernodes may store more than n^2 at n = 8.)
                assert 0 < s.attrs["factor_nnz"] < n * n


def test_csr_product_factors_sparse_like_the_dense_factor(monkeypatch):
    """A dense-built system that passes the format rule factors its DC
    point and companion matrices sparse, within 1e-12 of dense factors."""
    with inject_faults(), tracing() as trace:
        x_dc = dc_operating_point(_ladder())
    dc_span = trace.find("circuit.dc")
    n = dc_span.attrs["size"]
    assert dc_span.attrs["format"] == "sparse"
    assert 0 < dc_span.attrs["factor_nnz"] < n * n
    moved, span_ = _run(_ladder)
    assert span_.attrs["product"] == "csr"

    monkeypatch.setattr(linalg, "sparse_pays", lambda *args: False)
    with inject_faults(), tracing() as trace:
        x_dense = dc_operating_point(_ladder())
    assert trace.find("circuit.dc").attrs["factor_nnz"] == n * n
    dense, dense_span = _run(_ladder)
    assert dense_span.attrs["product"] == "dense"
    assert dense_span.attrs["propagated"] == 0  # 200 steps < n

    assert float(np.abs(x_dc - x_dense).max()) <= 1e-12 * float(
        np.abs(x_dense).max())
    scale = float(np.abs(dense.data).max())
    assert float(np.abs(moved.data - dense.data).max()) <= 1e-12 * scale


def test_devices_keep_the_per_step_path():
    from repro.circuit.devices import CMOSInverter

    def inverter():
        c = Circuit("inv")
        c.add_vsource("vdd", "vdd", GROUND, 1.2)
        c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.2, 0.1e-9, 0.2e-9))
        c.add_device(CMOSInverter("u", "in", "out", "vdd", GROUND))
        c.add_capacitor("cl", "out", GROUND, 10e-15)
        return c

    _, span_ = _run(inverter)
    assert span_.attrs["path"] == "per-step"
    assert span_.attrs["blocks"] == 0
    assert "product" not in span_.attrs


def _reports(result):
    solves = [
        [(a.rung, a.ok, a.error) for a in r.attempts]
        for r in result.report.solve_reports
    ]
    events = [(e.kind, e.stage, e.detail) for e in result.report.events]
    return solves, events


def _nan_run(max_hits):
    spec = FaultSpec("transient.lu", "nan", max_hits=max_hits)
    with inject_faults(spec), tracing() as trace:
        result = transient_analysis(_rlc_mutual(), T_STOP, DT)
    return result, trace.find("circuit.transient")


@pytest.mark.parametrize("max_hits", [1, None])
def test_nan_fault_on_a_block_replays_like_the_per_step_path(
    max_hits, per_step, lu_block
):
    """A ``nan`` on a block's states fails the rung that made them, and
    the block re-runs step by step: the same SolveReport rungs, RunReport
    events and states as the per-step path under the same fault."""
    block, block_span = _nan_run(max_hits)
    with per_step():
        each, _ = _nan_run(max_hits)
    assert block_span.attrs["replayed"] >= 1
    assert block.report.solve_reports  # the fault really escalated
    assert _reports(block) == _reports(each)
    assert block.data.tobytes() == each.data.tobytes()


@pytest.mark.parametrize("max_hits", [1, None])
def test_nan_fault_on_a_propagated_block_replays_like_the_per_step_path(
    max_hits, per_step
):
    """The propagator vouches for its factors like the LU block: the
    same reports as the per-step path, states within 1e-12."""
    moved, moved_span = _nan_run(max_hits)
    with per_step():
        each, _ = _nan_run(max_hits)
    assert moved_span.attrs["replayed"] >= 1
    assert moved.report.solve_reports
    assert _reports(moved) == _reports(each)
    scale = float(np.abs(each.data).max())
    assert float(np.abs(moved.data - each.data).max()) <= 1e-12 * scale

