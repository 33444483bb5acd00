"""Per-layer ledger of one traced repetition.

The traced pass runs under :func:`repro.obs.trace.tracing` and adds the
benchmark's own spans around the public calls that the program does not
span itself yet (MNA assembly, the factor/solve/Krylov calls of
``circuit.linalg``, the geometry builders).  Every wrapper is installed
by :func:`instrumented` and restored when it exits, so the untraced
repetitions that give the end-to-end metrics run the unmodified program.

:func:`layer_metrics` then folds the span forest -- including the trees
that pool workers ship back and the parent grafts -- and the deltas of
the process-wide obs counters into the named per-layer metrics that
``BENCHMARK.json`` lists.  Each metric is ``{"value", "unit", "n"}``
where ``n`` is the number of samples (spans or counter events) it sums.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from repro import flows
from repro.circuit import linalg, mna
from repro.obs import metrics as obs_metrics
from repro.obs.trace import Span, Trace, span, tracing
from repro.scenarios import runner


class _ModuleProxy:
    """Stand-in for a module: wrapped attributes, everything else delegated.

    ``circuit.linalg`` calls ``sla.lu_factor`` / ``spla.splu`` through its
    own module globals; swapping those globals for a proxy times exactly
    the calls ``circuit.linalg`` makes, not the ones other layers (PRIMA,
    the K-matrix sparsifier) make through the same scipy modules.
    """

    def __init__(self, module, overrides: dict[str, Callable]) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _operand_bytes(matrix) -> int:
    """Bytes of a factored operand, computed from its shape or nnz."""
    if sp.issparse(matrix):
        m = matrix.tocsc() if matrix.format not in ("csc", "csr") else matrix
        return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
    shape = getattr(matrix, "shape", ())
    if len(shape) != 2:
        return 0
    itemsize = getattr(getattr(matrix, "dtype", None), "itemsize", 8)
    return int(shape[0] * shape[1] * itemsize)


def _spanned(fn: Callable, name: str,
             attrs: Callable[..., dict] | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name, **(attrs(*args, **kwargs) if attrs else {})):
            return fn(*args, **kwargs)

    return wrapper


def _targets() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, span name, attrs-of-call)`` for every wrapper."""
    return [
        (mna.MNASystem, "build_matrices", "circuit.mna.build",
         lambda system, *a, **k: {"size": int(system.size)}),
        (linalg.SweepAssembler, "at_omega", "circuit.mna.assemble", None),
        (linalg.Factorization, "__init__", "circuit.linalg.factor",
         lambda self, matrix, *a, **k: {"bytes": _operand_bytes(matrix)}),
        (linalg.Factorization, "solve", "circuit.linalg.solve", None),
        (linalg.ResilientFactorization, "solve",
         "circuit.linalg.resilient_solve",
         lambda self, *a, **k: {"rung": self.rung}),
        (flows, "build_clock_testcase", "geometry.build", None),
        (runner, "build_variant", "geometry.build", None),
    ]


#: Module globals of ``circuit.linalg`` replaced by timing proxies.
_PROXIED = {
    "sla": (scipy.linalg, {"lu_factor": "circuit.linalg.lu_factor",
                           "lu_solve": "circuit.linalg.lu_solve"}),
    "spla": (scipy.sparse.linalg, {"splu": "circuit.linalg.splu",
                                   "gmres": "circuit.linalg.gmres"}),
}


def wrapped_originals() -> list[tuple[Any, str, Any]]:
    """``(owner, attribute, original object)`` for every wrapped name."""
    out = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in _targets()]
    out += [(linalg, glob, module) for glob, (module, _) in _PROXIED.items()]
    return out


@contextmanager
def instrumented() -> Iterator["Probe"]:
    """Collect a trace with the benchmark's wrappers installed.

    Yields a :class:`Probe`; on exit every wrapped attribute is put back
    to the exact original object, even when the block raised.
    """
    saved = wrapped_originals()
    try:
        for owner, attr, name, attrs in _targets():
            setattr(owner, attr, _spanned(vars(owner)[attr], name, attrs))
        for glob, (module, names) in _PROXIED.items():
            overrides = {
                fn: _spanned(getattr(module, fn), span_name)
                for fn, span_name in names.items()
            }
            setattr(linalg, glob, _ModuleProxy(module, overrides))
        probe = Probe()
        with tracing(probe.trace):
            yield probe
        probe.counters_after = obs_metrics.REGISTRY.export()["counters"]
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


class Probe:
    """The traced pass: its span forest and the counters around it."""

    def __init__(self) -> None:
        self.trace = Trace()
        self.counters_before = obs_metrics.REGISTRY.export()["counters"]
        self.counters_after: dict[str, float] = {}

    def counter(self, name: str) -> float:
        return (self.counters_after.get(name, 0.0)
                - self.counters_before.get(name, 0.0))


# -- folding the trace into metrics ------------------------------------------


def _outermost(trace: Trace, match: Callable[[str], bool]) -> list[Span]:
    """Matching spans with no matching ancestor (no double counting)."""
    found: list[Span] = []

    def walk(sp_: Span, inside: bool) -> None:
        hit = match(sp_.name)
        if hit and not inside:
            found.append(sp_)
        for child in sp_.children:
            walk(child, inside or hit)

    for root in trace.roots:
        walk(root, False)
    return found


def _named(trace: Trace, name: str) -> list[Span]:
    return _outermost(trace, lambda n: n == name)


def _total(spans: list[Span]) -> float:
    return sum(s.duration or 0.0 for s in spans)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _loop_points(trace: Trace) -> list[float]:
    """Per-frequency-point time of every loop sweep: the point's
    ``G + j omega C`` assembly plus its escalation-chain solve."""
    points: list[float] = []
    for sweep in _named(trace, "loop.sweep"):
        assembles = [s for s in sweep.children
                     if s.name == "circuit.mna.assemble"]
        solves = [s for s in sweep.children
                  if s.name == "circuit.linalg.resilient_solve"]
        for a, s in zip(assembles, solves):
            points.append((a.duration or 0.0) + (s.duration or 0.0))
    return points


def layer_metrics(probe: Probe, wall_s: float, rep_s: float,
                  untraced_rep_s: float) -> dict[str, dict[str, Any]]:
    """The per-layer metrics of one traced pass.

    Args:
        probe: The finished :func:`instrumented` pass.
        wall_s: Wall time of the whole traced pass (input build + rep).
        rep_s: Wall time of the traced repetition alone.
        untraced_rep_s: Median untraced repetition time, the base of
            the tracing overhead.
    """
    trace = probe.trace
    out: dict[str, dict[str, Any]] = {}

    def put(name: str, value: float, unit: str, n: int) -> None:
        out[name] = {"value": float(value), "unit": unit, "n": int(n)}

    def put_spans(name: str, spans: list[Span]) -> None:
        put(name, _total(spans), "s", len(spans))

    def put_count(name: str, counter: str) -> None:
        value = probe.counter(counter)
        put(name, value, "count", int(value))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    put_spans("geometry.build_s", _named(trace, "geometry.build"))

    partial = _named(trace, "extraction.partial_L")
    put_spans("extraction.partial_L_s", partial)
    put("extraction.partial_L_calls", len(partial), "count", len(partial))
    put_spans("extraction.hier_build_s",
              _named(trace, "extraction.hierarchical"))
    put_count("extraction.aca_fallbacks", "hierarchical.aca_fallbacks")
    put_count("extraction.to_dense_calls", "hierarchical.to_dense_calls")
    hits = (probe.counter("extraction.cache.memory_hits")
            + probe.counter("extraction.cache.disk_hits"))
    lookups = hits + probe.counter("extraction.cache.misses")
    put("extraction.cache_hit_ratio", ratio(hits, lookups), "ratio",
        int(lookups))

    assembly = _named(trace, "peec.assembly")
    put("peec.assembly_self_s", sum(s.self_seconds() for s in assembly),
        "s", len(assembly))
    put_spans("mor.prima_s", _named(trace, "mor.prima"))
    put_spans("sparsify.apply_s",
              _outermost(trace, lambda n: n.startswith("sparsify.")))
    kept = probe.counter("sparsify.mutuals_kept")
    total = kept + probe.counter("sparsify.mutuals_dropped")
    put("sparsify.kept_ratio", ratio(kept, total), "ratio", int(total))

    put_spans("loop.build_s", _named(trace, "loop.build"))
    put_spans("loop.sweep_s", _named(trace, "loop.sweep"))
    points = _loop_points(trace)
    put("loop.point_s_p50", _percentile(points, 50), "s", len(points))
    put("loop.point_s_p90", _percentile(points, 90), "s", len(points))

    builds = _named(trace, "circuit.mna.build")
    put_spans("circuit.mna.build_s", builds)
    put("circuit.mna.size_max",
        max((s.attrs.get("size", 0) for s in builds), default=0),
        "count", len(builds))
    put_spans("circuit.mna.assemble_s", _named(trace, "circuit.mna.assemble"))

    factors = _named(trace, "circuit.linalg.factor")
    put_spans("circuit.linalg.factor_s", factors)
    put("circuit.linalg.factor_calls", len(factors), "count", len(factors))
    put("circuit.linalg.factor_bytes",
        sum(s.attrs.get("bytes", 0) for s in factors), "B", len(factors))
    put_spans("circuit.linalg.lu_factor_s",
              _named(trace, "circuit.linalg.lu_factor"))
    solves = _named(trace, "circuit.linalg.solve")
    put_spans("circuit.linalg.solve_s", solves)
    put("circuit.linalg.solve_calls", len(solves), "count", len(solves))
    put_spans("circuit.linalg.lu_solve_s",
              _named(trace, "circuit.linalg.lu_solve"))
    put_spans("circuit.transient_s", _named(trace, "circuit.transient"))
    put_count("circuit.transient.steps", "transient.steps")
    put_spans("circuit.dc_s", _named(trace, "circuit.dc"))

    krylov = [s for s in _named(trace, "circuit.linalg.resilient_solve")
              if s.attrs.get("rung") == "krylov"]
    gmres = _named(trace, "circuit.linalg.gmres")
    put_spans("circuit.linalg.krylov_s", krylov)
    put_spans("circuit.linalg.splu_s", _named(trace, "circuit.linalg.splu"))
    put_spans("circuit.linalg.gmres_s", gmres)
    put("circuit.linalg.krylov_setup_s", _total(krylov) - _total(gmres),
        "s", len(krylov))
    put_count("circuit.linalg.gmres_iterations", "solver.krylov_iterations")
    put_count("circuit.linalg.krylov_fallbacks", "solver.krylov_fallbacks")
    put_count("circuit.linalg.escalated_solves", "solver.escalated_solves")

    scenarios = _named(trace, "sweep.scenario")
    times = [s.duration or 0.0 for s in scenarios]
    put("scenarios.scenario_s_p50", _percentile(times, 50), "s", len(times))
    put("scenarios.scenario_s_p90", _percentile(times, 90), "s", len(times))
    batches = _named(trace, "sweep.scenarios")
    width = max((s.attrs.get("workers", 1)
                 for s in _named(trace, "supervisor.run")), default=1)
    put("perf.pool_overhead_s", _total(batches) - sum(times) / width, "s",
        len(batches))
    put_count("resilience.pool_restarts", "supervisor.restarts")
    put_count("resilience.timeouts", "supervisor.timeouts")
    put_count("resilience.worker_losses", "supervisor.worker_losses")
    fallback = (probe.counter("sweep.fallback_serial")
                + probe.counter("pool.fallback_serial"))
    put("perf.fallback_serial", fallback, "count", int(fallback))

    put("obs.span_coverage", ratio(_total(trace.roots), wall_s), "ratio",
        len(trace.roots))
    put("obs.trace_overhead_frac", ratio(rep_s, untraced_rep_s) - 1.0,
        "ratio", 1)
    return out
