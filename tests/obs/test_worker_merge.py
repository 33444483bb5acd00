"""Pool workers ship spans, metrics and reports home; the parent merges.

The process-pool sweep runs chunks in worker processes whose traces,
registries and run reports are invisible to the parent.
:func:`repro.resilience.supervisor.supervised_map` serializes each
chunk's span tree, metrics export and run report into the result tuple;
the parent attaches the trees under the supervisor's ``supervisor.run``
span, folds the metrics into the process-wide registry and merges the
report into the sweep's.  These tests run a real pool (workers > 1),
next to the in-process sweep where the two must agree, and check every
part of that contract.  The pool's own spans and counters
exist only while the pool runs, so ambient chaos -- whose ``perf.pool``
rule can turn the pool into the serial fallback -- is switched off.
"""

import numpy as np
import pytest

from repro.circuit.ac import ac_impedance
from repro.circuit.netlist import GROUND, Circuit
from repro.obs.metrics import REGISTRY
from repro.obs.trace import tracing
from repro.resilience.faults import FaultSpec, inject_faults
from repro.resilience.report import RunReport, activate


def rlc_ladder(n=6):
    c = Circuit("ladder")
    prev = "p"
    for k in range(n):
        mid = f"m{k}"
        nxt = f"n{k}"
        c.add_resistor(f"r{k}", prev, mid, 3.0 + k)
        c.add_inductor(f"l{k}", mid, nxt, 1e-9)
        c.add_capacitor(f"c{k}", nxt, GROUND, 0.2e-12)
        prev = nxt
    c.add_resistor("rterm", prev, GROUND, 50.0)
    return c


@pytest.fixture
def clean_registry():
    REGISTRY.reset()
    yield REGISTRY
    REGISTRY.reset()


FREQS = np.logspace(6, 10, 9)


class TestWorkerSpanMerge:
    def test_chunk_spans_graft_under_open_span(self, clean_registry):
        with inject_faults(), tracing() as trace:
            ac_impedance(rlc_ladder(), FREQS, ("p", GROUND), workers=3)
        assert trace.complete

        root = trace.find("circuit.ac.impedance")
        assert root is not None
        sup = root.find("supervisor.run")
        assert sup is not None
        chunks = [c for c in sup.children if c.name == "supervisor.chunk"]
        assert len(chunks) >= 2  # genuinely fanned out

        # Chunk spans cover every point exactly once and keep their
        # worker-side measurements.
        assert sum(c.attrs["items"] for c in chunks) == FREQS.size
        assert {c.attrs["chunk"] for c in chunks} == \
            set(range(len(chunks)))
        assert all(c.attrs["stage"] == "perf" for c in chunks)
        assert all(c.duration is not None and c.duration >= 0.0
                   for c in chunks)
        assert all(c.status == "ok" for c in chunks)

    def test_pool_accounting_lands_in_registry(self, clean_registry):
        with inject_faults():
            ac_impedance(rlc_ladder(), FREQS, ("p", GROUND), workers=3)
        snap = clean_registry.export()
        assert snap["counters"]["supervisor.items"] == FREQS.size
        assert snap["counters"]["supervisor.chunks"] >= 2
        assert snap["gauges"]["supervisor.workers"] >= 2

    def test_serial_sweep_records_no_chunks(self, clean_registry):
        with inject_faults(), tracing() as trace:
            ac_impedance(rlc_ladder(), FREQS, ("p", GROUND), workers=1)
        assert trace.complete
        assert trace.find("circuit.ac.impedance") is not None
        assert trace.find("supervisor.chunk") is None
        assert "supervisor.chunks" not in clean_registry.export()["counters"]

    def test_chunk_spans_are_not_double_shipped(self, clean_registry):
        # Persistent workers handle several chunks; each chunk runs under
        # a fresh trace (and resets the worker registry), so the grafted
        # forest must contain every chunk exactly once no matter how
        # chunks land on workers.
        with inject_faults(), tracing() as trace:
            ac_impedance(rlc_ladder(), FREQS, ("p", GROUND), workers=2)
        chunks = [s for s in trace.iter_spans()
                  if s.name == "supervisor.chunk"]
        ids = [c.attrs["chunk"] for c in chunks]
        assert sorted(ids) == sorted(set(ids))
        assert sum(c.attrs["items"] for c in chunks) == FREQS.size


class TestWorkerReportMerge:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_every_escalated_solve_reaches_the_active_report(
        self, workers
    ):
        # Every first-rung LU raises, so every point escalates once; a
        # pool worker's escalation records must reach the parent's report
        # just as the in-process ones do.
        report = RunReport()
        lu_fails = FaultSpec("ac.lu", "raise", probability=1.0, max_hits=None)
        with inject_faults(lu_fails), activate(report):
            ac_impedance(rlc_ladder(), FREQS, ("p", GROUND), workers=workers)
        assert len(report.solve_reports) == FREQS.size
        assert all(r.escalated for r in report.solve_reports)
