"""Span tracing: nesting, exception capture, serialization, grafting."""

import pytest

from repro.obs.trace import (
    Span,
    Trace,
    current_span,
    current_span_path,
    current_trace,
    export_spans,
    graft_spans,
    span,
    tracing,
)


class TestNesting:
    def test_children_attach_to_innermost_open_span(self):
        with tracing() as trace:
            with span("outer"):
                with span("inner.a"):
                    pass
                with span("inner.b"):
                    pass
        assert [r.name for r in trace.roots] == ["outer"]
        assert [c.name for c in trace.roots[0].children] == \
            ["inner.a", "inner.b"]

    def test_span_names_depth_first(self):
        with tracing() as trace:
            with span("a"):
                with span("b"):
                    with span("c"):
                        pass
            with span("d"):
                pass
        assert trace.span_names() == ["a", "b", "c", "d"]

    def test_current_span_and_path(self):
        assert current_span() is None
        assert current_span_path() == ""
        with tracing():
            with span("flow"):
                with span("stage") as sp:
                    assert current_span() is sp
                    assert current_span_path() == "flow/stage"
        assert current_span_path() == ""

    def test_untraced_span_still_measures(self):
        # No collector active: the span is not recorded anywhere, but
        # callers can still read the duration off the yielded object.
        assert current_trace() is None
        with span("orphan") as sp:
            pass
        assert sp.duration is not None
        assert sp.duration >= 0.0

    def test_attrs_ride_along_and_are_mutable(self):
        with tracing() as trace:
            with span("stage", size=5) as sp:
                sp.attrs["cached"] = True
        root = trace.roots[0]
        assert root.attrs == {"size": 5, "cached": True}


class TestCompleteness:
    def test_clean_run_closes_every_span(self):
        with tracing() as trace:
            with span("a"):
                with span("b"):
                    pass
        assert trace.open_spans == 0
        assert trace.complete

    def test_open_span_counts_as_leak(self):
        with tracing() as trace:
            with span("a"):
                assert trace.open_spans == 1
                assert not trace.complete
        assert trace.complete


class TestExceptions:
    def test_error_is_recorded_and_reraised(self):
        with tracing() as trace:
            with pytest.raises(RuntimeError, match="boom"):
                with span("doomed"):
                    raise RuntimeError("boom")
        sp = trace.find("doomed")
        assert sp.status == "error"
        assert sp.error == "RuntimeError: boom"
        assert sp.duration is not None  # closed despite the exception
        assert trace.complete

    def test_error_in_child_leaves_parent_ok(self):
        with tracing() as trace:
            with pytest.raises(ValueError):
                with span("parent"):
                    with span("child"):
                        raise ValueError("inner")
        assert trace.find("child").status == "error"
        # The exception also escaped the parent, so it is marked too.
        assert trace.find("parent").status == "error"
        assert trace.open_spans == 0


class TestTimings:
    def test_total_seconds_sums_same_named_spans(self):
        with tracing() as trace:
            for _ in range(3):
                with span("rep"):
                    pass
        total = trace.total_seconds("rep")
        assert total == pytest.approx(
            sum(sp.duration for sp in trace.iter_spans()), rel=1e-9
        )

    def test_self_seconds_excludes_children(self):
        with tracing() as trace:
            with span("outer"):
                with span("inner"):
                    pass
        outer = trace.find("outer")
        assert outer.self_seconds() == pytest.approx(
            outer.duration - outer.children[0].duration, rel=1e-9
        )


    def test_span_coverage_counts_root_spans_against_wall_clock(self):
        import time

        with tracing() as trace:
            with span("covered"):
                time.sleep(0.05)
            time.sleep(0.05)
        assert trace.wall_seconds >= 0.1
        assert trace.span_coverage == pytest.approx(
            trace.roots[0].duration / trace.wall_seconds
        )
        assert 0.2 < trace.span_coverage < 0.8
        assert trace.to_json()["span_coverage"] == trace.span_coverage

    def test_wall_clock_accumulates_over_activations(self):
        import time

        trace = Trace()
        assert trace.span_coverage == 0.0
        with tracing(trace):
            time.sleep(0.02)
        first = trace.wall_seconds
        with tracing(trace):
            with span("later"):
                pass
        assert first >= 0.02
        assert trace.wall_seconds >= first + trace.roots[0].duration


class TestSerialization:
    def make_trace(self):
        with tracing() as trace:
            with span("flow", kind="unit"):
                with span("stage", size=3) as sp:
                    sp.attrs["cached"] = False
                with pytest.raises(KeyError):
                    with span("bad"):
                        raise KeyError("x")
        return trace

    def test_round_trip_preserves_tree(self):
        trace = self.make_trace()
        rebuilt = [Span.from_dict(d) for d in export_spans(trace)]
        assert [r.name for r in rebuilt] == [r.name for r in trace.roots]
        orig = list(trace.roots[0].iter_spans())
        back = list(rebuilt[0].iter_spans())
        assert [s.name for s in back] == [s.name for s in orig]
        assert [s.attrs for s in back] == [s.attrs for s in orig]
        assert [s.status for s in back] == [s.status for s in orig]
        assert [s.error for s in back] == [s.error for s in orig]
        assert [s.duration for s in back] == \
            pytest.approx([s.duration for s in orig])

    def test_to_json_reports_leaks(self):
        with tracing() as trace:
            with span("open-me"):
                payload = trace.to_json()
                assert payload["open_spans"] == 1
        assert trace.to_json()["open_spans"] == 0

    def test_graft_under_open_span(self):
        worker = Trace()
        with tracing(worker):
            with span("sweep.chunk", chunk=0):
                pass
        shipped = export_spans(worker)
        with tracing() as parent:
            with span("sweep.solve"):
                graft_spans(shipped)
        root = parent.roots[0]
        assert [c.name for c in root.children] == ["sweep.chunk"]
        assert parent.complete

    def test_graft_without_collector_is_a_no_op(self):
        graft_spans([Span(name="stray", duration=0.0).to_dict()])
        assert current_trace() is None

    def test_format_smoke(self):
        trace = self.make_trace()
        text = trace.format()
        assert "flow" in text and "stage" in text
        assert "KeyError" in text
