"""supervised_map: one map over independent items, in process or pooled."""

import numpy as np
import pytest

from repro.obs.metrics import REGISTRY
from repro.obs.trace import current_span, span, tracing
from repro.resilience.faults import FaultSpec, inject_faults
from repro.resilience.report import RunReport
from repro.resilience.supervisor import supervised_map

ITEMS = np.arange(7)


def _square_row(i):
    # Module-level, so it pickles for pool workers.
    return np.array([i * i, 1.0 / (i + 1)])


def _never_quarantined(i, reason):
    raise AssertionError(f"item {i} quarantined: {reason}")


def _map(fn, workers, **kwargs):
    out = {}
    supervised_map(
        fn, ITEMS, stage="toy", workers=workers,
        on_done=lambda i, r: out.__setitem__(i, r),
        quarantine=_never_quarantined, **kwargs,
    )
    return out


class TestInProcess:
    def test_on_done_once_per_item_in_order_under_no_span_of_its_own(self):
        seen = []

        def fn(i):
            return i * i, current_span().name

        with tracing() as trace, span("caller"):
            supervised_map(
                fn, ITEMS, stage="toy", workers=1,
                on_done=lambda i, r: seen.append((i, r, current_span().name)),
                quarantine=_never_quarantined,
            )
        assert seen == [(i, (i * i, "caller"), "caller") for i in ITEMS]
        assert [s.name for s in trace.iter_spans()] == ["caller"]

    def test_failure_propagates_after_every_earlier_item_is_done(self):
        done = []

        def fn(i):
            if i == 3:
                raise ValueError("item 3 is singular")
            return i

        with pytest.raises(ValueError, match="item 3"):
            supervised_map(
                fn, ITEMS, stage="toy", workers=1,
                on_done=lambda i, r: done.append(i),
                quarantine=_never_quarantined,
            )
        assert done == [0, 1, 2]


class TestPooled:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_results_equal_in_process_results(self, workers):
        with inject_faults():
            want = _map(_square_row, 1)
            got = _map(_square_row, workers, chunk=2)
        assert sorted(got) == list(ITEMS)
        for i in ITEMS:
            assert np.array_equal(got[i], want[i])

    def test_pool_fault_falls_back_to_serial(self):
        report = RunReport()
        before = REGISTRY.counter("pool.fallback_serial").value
        with inject_faults():
            want = _map(_square_row, 1)
        with inject_faults(FaultSpec("toy.pool", "raise", probability=1.0)):
            got = _map(_square_row, 3, report=report)
        assert all(np.array_equal(got[i], want[i]) for i in ITEMS)
        assert len(report.downgrades) == 1
        assert "serial" in report.downgrades[0].detail
        assert REGISTRY.counter("pool.fallback_serial").value == before + 1
