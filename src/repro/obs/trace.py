"""Nestable span tracing: *where* a run spends its time.

The Table-1 argument is quantitative -- which sparsification or
acceleration strategy wins is decided by runtime and matrix density --
but whole-run timers cannot say whether the seconds went into PEEC
assembly, the sparsifier, the solve, or the measurement sweep.  Spans
fix that: every instrumented stage wraps itself in

    with span("peec.assembly", segments=n):
        ...

and records its wall-clock duration, attributes, and any exception that
escaped.  Spans nest: the innermost open span adopts new spans as
children, so a run produces a tree whose per-stage totals reconstruct a
Table-1-style timing breakdown (``repro trace`` / ``--trace-json``).

Mechanics:

* The open-span stack lives in a :mod:`contextvars` context variable,
  which is per-thread (each thread starts from an empty context) and
  survives ``asyncio``-style context switches -- the "thread-local +
  contextvar" stack.
* ``span()`` **always** measures (callers may read ``sp.duration`` off
  the yielded object, which is how the flows report build/solve time);
  the tree is only *collected* when a :class:`Trace` is activated with
  :func:`tracing`, so un-traced runs pay one object and two
  ``perf_counter`` calls per span -- well under the 3% overhead budget
  at stage granularity.
* Process-pool workers start with no active trace; the worker body
  collects its spans under a private :class:`Trace` and ships the
  serialized tree back with its results, metrics and run report
  (:func:`repro.resilience.supervisor.supervised_map`), and the parent
  grafts it under its own open span with :func:`graft_spans`.
* Exceptions mark the span ``status="error"`` with the exception text
  and re-raise; the span still closes, so a failed run yields a
  complete (leak-free) tree pointing at the stage that died.

This module is a leaf: it imports nothing from :mod:`repro`, so every
layer (extraction, sparsify, circuit, resilience, perf, CLI) can use it
without cycles.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs import profile as _profile

#: Separator used in span paths ("flow.peec/peec.assembly/...").
PATH_SEP = "/"


@dataclass
class Span:
    """One timed stage of a run.

    Attributes:
        name: Dotted stage name (``"peec.assembly"``, ``"loop.sweep"``).
        attrs: Small JSON-able attribute map (sizes, counts, flags).
        start: ``perf_counter`` timestamp at entry (process-relative).
        duration: Wall-clock seconds; None while the span is open.
        status: ``"ok"`` or ``"error"``.
        error: ``"ExcType: message"`` when an exception escaped the span.
        children: Nested spans, in entry order.
    """

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    duration: float | None = None
    status: str = "ok"
    error: str = ""
    children: list["Span"] = field(default_factory=list)

    @property
    def open(self) -> bool:
        """True while the span has not finished."""
        return self.duration is None

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for sp in self.iter_spans():
            if sp.name == name:
                return sp
        return None

    def self_seconds(self) -> float:
        """Duration minus the (finished) children's durations."""
        own = self.duration or 0.0
        return own - sum(c.duration or 0.0 for c in self.children)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation of the subtree."""
        out: dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration,
            "status": self.status,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            attrs=dict(data.get("attrs", {})),
            duration=data.get("duration_s"),
            status=str(data.get("status", "ok")),
            error=str(data.get("error", "")),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )

    def format(self, indent: int = 0) -> str:
        """Human-readable subtree, one line per span."""
        dur = "..." if self.duration is None else f"{self.duration * 1e3:.2f} ms"
        attrs = "".join(f" {k}={v}" for k, v in self.attrs.items())
        mark = "" if self.status == "ok" else f"  !! {self.error}"
        lines = [f"{'  ' * indent}{self.name}  {dur}{attrs}{mark}"]
        lines += [c.format(indent + 1) for c in self.children]
        return "\n".join(lines)


class Trace:
    """Collector for one run's span forest.

    Attributes:
        roots: Top-level spans, in entry order.
        wall_seconds: Wall clock spent inside :func:`tracing` blocks
            that activated this collector.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.wall_seconds = 0.0
        self._open = 0

    @property
    def open_spans(self) -> int:
        """Spans entered but not yet exited (0 after a clean run)."""
        return self._open

    @property
    def complete(self) -> bool:
        """True when every collected span has closed."""
        return self._open == 0 and all(
            not sp.open for root in self.roots for sp in root.iter_spans()
        )

    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.iter_spans()

    def find(self, name: str) -> Span | None:
        """First span named ``name`` anywhere in the forest."""
        for root in self.roots:
            hit = root.find(name)
            if hit is not None:
                return hit
        return None

    def span_names(self) -> list[str]:
        """Every collected span name, depth-first (with duplicates)."""
        return [sp.name for sp in self.iter_spans()]

    def total_seconds(self, name: str) -> float:
        """Summed duration of every span named ``name``."""
        return sum(
            sp.duration or 0.0 for sp in self.iter_spans() if sp.name == name
        )

    @property
    def span_coverage(self) -> float:
        """Share of :attr:`wall_seconds` the root spans account for.

        Near 1 when every stage of the traced run sits under some span;
        a stage that runs outside all spans shows up as the shortfall.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        covered = sum(root.duration or 0.0 for root in self.roots)
        return covered / self.wall_seconds

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [root.to_dict() for root in self.roots],
            "open_spans": self._open,
            "wall_seconds": self.wall_seconds,
            "span_coverage": self.span_coverage,
        }

    def format(self) -> str:
        if not self.roots:
            return "(no spans collected)"
        return "\n".join(root.format() for root in self.roots)


_TRACE: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)
_STACK: contextvars.ContextVar[tuple[Span, ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


def current_trace() -> Trace | None:
    """The active collector of this context, if any."""
    return _TRACE.get()


def current_span() -> Span | None:
    """The innermost open span of this context, if any."""
    stack = _STACK.get()
    return stack[-1] if stack else None


def current_span_path() -> str:
    """``"outer/inner"`` path of the open spans ('' outside any span)."""
    return PATH_SEP.join(sp.name for sp in _STACK.get())


@contextmanager
def tracing(trace: Trace | None = None) -> Iterator[Trace]:
    """Activate a collector for the block; yields it.

    Nested activations stack (the innermost wins); the span stack is NOT
    reset, so an outer span adopting inner-trace roots is prevented by
    giving the inner trace its own stack frame only when none is open.
    The block's wall clock is added to ``trace.wall_seconds``.
    """
    trace = trace if trace is not None else Trace()
    token = _TRACE.set(trace)
    start = time.perf_counter()
    try:
        yield trace
    finally:
        trace.wall_seconds += time.perf_counter() - start
        _TRACE.reset(token)


@contextmanager
def detached_stack() -> Iterator[None]:
    """Run the block with an empty open-span stack.

    A ``fork()``-started pool worker inherits the parent's contextvars,
    including whatever span was open at fork time; without detaching,
    the worker's spans would silently attach to that dead copy of the
    parent span instead of the worker's own :class:`Trace` roots.
    """
    token = _STACK.set(())
    try:
        yield
    finally:
        _STACK.reset(token)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span]:
    """Time a stage; yields the live :class:`Span`.

    Attaches to the innermost open span as a child, else to the active
    :class:`Trace` as a root.  Exceptions are recorded (status/error)
    and re-raised; the span always closes.
    """
    sp = Span(name=name, attrs=attrs)
    stack = _STACK.get()
    trace = _TRACE.get()
    if stack:
        stack[-1].children.append(sp)
    elif trace is not None:
        trace.roots.append(sp)
    token = _STACK.set(stack + (sp,))
    if trace is not None:
        trace._open += 1
    profiler = _profile.start(name) if not stack else None
    sp.start = time.perf_counter()
    try:
        yield sp
    except BaseException as exc:
        sp.status = "error"
        sp.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        sp.duration = time.perf_counter() - sp.start
        _STACK.reset(token)
        if trace is not None:
            trace._open -= 1
        if profiler is not None:
            _profile.finish(profiler, name)


def graft_spans(serialized: list[dict[str, Any]]) -> None:
    """Attach serialized span trees (from a pool worker) at this point.

    The trees go under the innermost open span, else under the active
    trace as roots; with neither active they are dropped -- exactly like
    span recording itself.
    """
    if not serialized:
        return
    spans = [Span.from_dict(d) for d in serialized]
    stack = _STACK.get()
    trace = _TRACE.get()
    if stack:
        stack[-1].children.extend(spans)
    elif trace is not None:
        trace.roots.extend(spans)


def export_spans(trace: Trace) -> list[dict[str, Any]]:
    """Serialize a collector's forest (the worker -> parent wire format)."""
    return [root.to_dict() for root in trace.roots]


__all__ = [
    "PATH_SEP",
    "Span",
    "Trace",
    "current_trace",
    "current_span",
    "current_span_path",
    "tracing",
    "detached_stack",
    "span",
    "graft_spans",
    "export_spans",
]
