"""Block stepping of linear transients against the per-step path.

Circuits without devices step each checkpoint interval as one block of
raw LU solves.  These tests pin that the block path reproduces the
per-step path -- bit for bit where both form the step product from the
same dense matrices, to 1e-12 elsewhere -- and that a block that fails
re-runs step by step, so a fault leaves the same reports as before.
"""

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit import transient
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import transient_analysis
from repro.circuit.waveforms import PWL, Pulse, Ramp
from repro.mor.ports import NodePort
from repro.mor.prima import prima_reduce
from repro.obs.trace import tracing
from repro.resilience import CheckpointConfig, FaultSpec, inject_faults

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


class _DenseBackedOperator:
    """A dense L behind the operator-set interface, diagonal near field."""

    def __init__(self, matrix):
        self._m = np.asarray(matrix, dtype=float)
        self.shape = self._m.shape
        self.diag = np.diagonal(self._m).copy()
        self.memory_bytes = self._m.nbytes

    def matvec(self, x):
        return self._m @ x

    def to_dense(self):
        return self._m.copy()

    def near_block_diagonal(self):
        return sp.csr_matrix(np.diag(self.diag))


def _operator():
    c = Circuit("operator")
    c.add_vsource("vin", "in", GROUND, Ramp(0.0, 1.0, 10e-12, 30e-12))
    c.add_resistor("r1", "in", "m1", 5.0)
    c.add_resistor("r2", "in", "m2", 5.0)
    c.add_capacitor("c1", "far", GROUND, 20e-15)
    c.add_resistor("rl", "far", GROUND, 1e5)
    l_matrix = np.array([[1.2e-9, 0.3e-9], [0.3e-9, 1.1e-9]])
    c.add_inductor_operator_set(
        "L", (("m1", "far"), ("m2", "far")), _DenseBackedOperator(l_matrix)
    )
    return c


def _forced(circuit, fmt):
    system = MNASystem(circuit)
    original = system.build_matrices
    system.build_matrices = lambda _fmt="auto": original(fmt)
    return system


FAMILIES = {
    "rc": lambda: _rc(),
    "rlc-mutual": lambda: _rlc_mutual(),
    "kset": lambda: _kset(),
    "prima-host": lambda: _prima_host(),
    "csr-product": lambda: _ladder(),
    "sparse": lambda: _forced(_rlc_mutual(), "sparse"),
    "operator": lambda: _forced(_operator(), "operator"),
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


def _run(build, **kwargs):
    with inject_faults(), tracing() as trace:
        result = transient_analysis(build(), T_STOP, DT, **kwargs)
    return result, trace.find("circuit.transient")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_block_path_matches_per_step_path(family, per_step):
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


@pytest.mark.parametrize(
    "family, product, rung, replayed",
    [
        ("rc", "dense", "lu", 0),
        ("csr-product", "csr", "lu", 0),
        ("sparse", "csr", "lu", 0),
        # The Krylov rung keeps the per-step path: the block falls back.
        ("operator", "operator", "krylov", 1),
    ],
)
def test_transient_span_records_path_product_and_rung(
    family, product, rung, replayed
):
    _, span_ = _run(FAMILIES[family])
    assert span_.attrs["path"] == "block"
    assert span_.attrs["product"] == product
    assert span_.attrs["rung"] == rung
    assert span_.attrs["blocks"] == 1
    assert span_.attrs["replayed"] == replayed


def test_factor_spans_carry_size_format_and_alpha():
    _, span_ = _run(FAMILIES["sparse"])
    factors = [s for s in span_.children
               if s.name == "circuit.transient.factor"]
    assert [s.attrs["serves"] for s in factors] == ["be", "trap"]
    assert [s.attrs["alpha"] for s in factors] == [1.0 / DT, 2.0 / DT]
    for s in factors:
        assert s.attrs["size"] == span_.attrs["size"]
        assert s.attrs["format"] == "sparse"
        assert s.attrs["rung"] == "lu"


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


def test_block_boundaries_do_not_change_the_states(tmp_path):
    whole, _ = _run(_rlc_mutual)
    cut, span_ = _run(
        _rlc_mutual, checkpoint=CheckpointConfig(tmp_path / "c.ckpt",
                                                 interval=7),
    )
    assert span_.attrs["blocks"] == -(-200 // 7)
    assert cut.data.tobytes() == whole.data.tobytes()


def _reports(result):
    solves = [
        [(a.rung, a.ok, a.error) for a in r.attempts]
        for r in result.report.solve_reports
    ]
    events = [(e.kind, e.stage, e.detail) for e in result.report.events]
    return solves, events


@pytest.mark.parametrize("max_hits", [1, None])
@pytest.mark.parametrize("interval", [None, 50])
def test_nan_fault_on_a_block_replays_like_the_per_step_path(
    max_hits, interval, tmp_path, per_step
):
    """A ``nan`` on a block's states fails the rung that made them, and
    the block re-runs step by step: the same SolveReport rungs, RunReport
    events and states as the per-step path under the same fault."""

    def run():
        checkpoint = None
        if interval is not None:
            checkpoint = CheckpointConfig(tmp_path / "n.ckpt",
                                          interval=interval)
        spec = FaultSpec("transient.lu", "nan", max_hits=max_hits)
        with inject_faults(spec), tracing() as trace:
            result = transient_analysis(_rlc_mutual(), T_STOP, DT,
                                        checkpoint=checkpoint)
        return result, trace.find("circuit.transient")

    block, block_span = run()
    with per_step():
        each, _ = run()
    assert block_span.attrs["replayed"] >= 1
    assert block.report.solve_reports  # the fault really escalated
    assert _reports(block) == _reports(each)
    assert block.data.tobytes() == each.data.tobytes()


def test_step_fault_replay_logs_what_the_per_step_path_logs(per_step):
    # On the block path the rule fires at the block's start and again on
    # its replay's first step; on the per-step path, once on that step.
    # Either way the run logs the one retry of step 1.
    with per_step(), inject_faults(FaultSpec("transient.step", "raise")):
        each = transient_analysis(_rc(), T_STOP, DT)
    spec = FaultSpec("transient.step", "raise", max_hits=2)
    with inject_faults(spec), tracing() as trace:
        block = transient_analysis(_rc(), T_STOP, DT)
    assert [e.kind for e in each.report.events] == ["retry"]
    assert trace.find("circuit.transient").attrs["replayed"] == 1
    assert _reports(block) == _reports(each)
    assert block.data.tobytes() == each.data.tobytes()
