"""The ``repro bench`` harness: a perf trajectory you can diff.

Times the four hot paths of the reproduction on the Table-1 clock-net
configuration -- dense partial-L **assembly** (cold, and again through
the extraction cache), **sparsification**, the Section-5 **loop R(f)/
L(f) sweep** (serial and parallel, with an identical-arrays check), and
the Table-1 **transient** -- and writes the measurements as
``BENCH_<date>.json``.  Future PRs compare themselves against a
checked-in baseline with :func:`compare_benchmarks`; CI's smoke job
fails on a >2x regression of any timed section.

Timings are wall-clock (:func:`time.perf_counter`) and single-shot: the
harness is a trajectory recorder, not a microbenchmark -- the JSON is
meant to be eyeballed across commits and gated loosely (2x), not
micro-compared.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Bump when the JSON layout changes incompatibly.
BENCH_SCHEMA = 1

#: Sections whose ``seconds`` are compared against the baseline.
TIMED_SECTIONS = (
    "assembly_cold",
    "assembly_cached",
    "hierarchical",
    "sparsify",
    "loop_sweep_serial",
    "loop_sweep_parallel",
    "solve_iterative",
    "transient",
)


@dataclass
class BenchConfig:
    """Scale knobs of one benchmark run.

    ``smoke`` shrinks everything so CI finishes in seconds; the full
    configuration is the Table-1 default scale.
    """

    smoke: bool = False
    workers: int = 4
    die: float = 400e-6
    num_branches: int = 3
    branch_length: float = 120e-6
    stripe_pitch: float = 60e-6
    num_freqs: int = 12
    max_segment_length: float = 120e-6
    # Hierarchical-vs-exact comparison grid: ``hier_lines`` parallel
    # stripes split into ``hier_pieces`` collinear segments each (a
    # Table-1-style power-grid slice).  The full scale (500 x 16 =
    # 8000 segments) is where the O(n^2) exact assembly clearly loses
    # to the O(n log n) engine on both time and memory; leaf 64 (above
    # the extraction default of 32) amortizes the per-sampled-row
    # numpy overhead of ACA at that block count.
    hier_lines: int = 500
    hier_pieces: int = 16
    hier_leaf_size: int = 64

    @classmethod
    def for_mode(cls, smoke: bool, workers: int | None = None) -> "BenchConfig":
        from repro.resilience.supervisor import worker_count

        resolved = workers if workers is not None else (
            2 if smoke else min(4, worker_count())
        )
        if smoke:
            return cls(
                smoke=True, workers=resolved,
                die=200e-6, num_branches=2, branch_length=60e-6,
                stripe_pitch=50e-6, num_freqs=6,
                hier_lines=15, hier_pieces=16, hier_leaf_size=16,
            )
        return cls(smoke=False, workers=resolved)

    def to_json(self) -> dict[str, Any]:
        return {
            "smoke": self.smoke,
            "workers": self.workers,
            "die_um": self.die * 1e6,
            "num_branches": self.num_branches,
            "branch_length_um": self.branch_length * 1e6,
            "stripe_pitch_um": self.stripe_pitch * 1e6,
            "num_freqs": self.num_freqs,
            "max_segment_length_um": self.max_segment_length * 1e6,
            "hier_segments": self.hier_lines * self.hier_pieces,
            "hier_leaf_size": self.hier_leaf_size,
        }


@dataclass
class BenchReport:
    """Collected sections + metadata, serializable to BENCH JSON."""

    config: BenchConfig
    sections: dict[str, dict[str, Any]] = field(default_factory=dict)

    def add(self, name: str, seconds: float, **extra: Any) -> None:
        self.sections[name] = {"seconds": round(seconds, 6), **extra}

    @property
    def speedup(self) -> float | None:
        """Serial / parallel wall-clock ratio of the loop sweep."""
        serial = self.sections.get("loop_sweep_serial")
        par = self.sections.get("loop_sweep_parallel")
        if not serial or not par or par["seconds"] <= 0.0:
            return None
        return serial["seconds"] / par["seconds"]

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "date": time.strftime("%Y-%m-%d"),
            "platform": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
            },
            "config": self.config.to_json(),
            "sections": self.sections,
        }
        if self.speedup is not None:
            out["loop_sweep_speedup"] = round(self.speedup, 3)
        return out


def default_output_path(base_dir: str | Path = ".") -> Path:
    """``BENCH_<YYYYMMDD>.json`` in ``base_dir``."""
    return Path(base_dir) / f"BENCH_{time.strftime('%Y%m%d')}.json"


def run_benchmarks(
    config: BenchConfig, echo=print
) -> BenchReport:
    """Run every benchmark section and return the collected report.

    The loop-sweep section extracts the same impedance twice -- serial,
    then with ``config.workers`` -- and records whether the arrays are
    identical (``arrays_identical``); a mismatch is reported, not raised,
    so the JSON still lands for post-mortem.
    """
    from repro.resilience.faults import inject_faults

    # Ambient chaos injection (REPRO_FAULTS) would randomize both the
    # timings and the serial-vs-parallel identity check; the bench
    # measures performance, not resilience, so suppress it throughout.
    with inject_faults():
        return _run_sections(config, echo, BenchReport(config=config))


def _run_sections(
    config: BenchConfig, echo, report: BenchReport
) -> BenchReport:
    import math

    from repro.flows import _gnd_tap_near, build_clock_testcase, run_loop_flow
    from repro.loop.extractor import LoopPort, extract_loop_impedance
    from repro.perf import cache
    from repro.sparsify import ShellSparsifier
    from repro.extraction.partial_matrix import extract_for_layout

    echo(f"bench: building Table-1 clock-net case "
         f"({config.die * 1e6:.0f} um die, {config.num_branches} branches)")
    case = build_clock_testcase(
        die=config.die,
        num_branches=config.num_branches,
        branch_length=config.branch_length,
        stripe_pitch=config.stripe_pitch,
    )
    layout = case.layout

    # -- assembly: cold, then through the extraction cache -------------
    cache.clear_cache()
    t0 = time.perf_counter()
    extraction, _ = extract_for_layout(layout)
    cold = time.perf_counter() - t0
    report.add(
        "assembly_cold", cold,
        size=extraction.size, mutuals=extraction.num_mutuals,
    )
    t0 = time.perf_counter()
    cached, _ = extract_for_layout(layout)
    warm = time.perf_counter() - t0
    report.add(
        "assembly_cached", warm,
        identical=bool(np.array_equal(extraction.matrix, cached.matrix)),
        **cache.cache_stats(),
    )
    echo(f"bench: assembly {cold:.3f}s cold / {warm:.3f}s cached "
         f"(n = {extraction.size})")

    # -- hierarchical vs exact assembly ---------------------------------
    # A Table-1-style power-grid slice at a scale the clock case never
    # reaches: exact dense assembly is O(n^2) in both time and memory,
    # the H-matrix/ACA engine compresses the far field.  Both paths run
    # cold (cache cleared); the error/SPD fields let compare_benchmarks
    # gate correctness, not just wall-clock.
    from repro.extraction.hierarchical import build_hierarchical_operator
    from repro.extraction.partial_matrix import extract_partial_inductance
    from repro.sparsify.stability import is_positive_definite

    hier_segments = _hier_benchmark_segments(config)
    n_hier = len(hier_segments)
    cache.clear_cache()
    t0 = time.perf_counter()
    exact_hier = extract_partial_inductance(hier_segments)
    t_exact = time.perf_counter() - t0
    t0 = time.perf_counter()
    operator = build_hierarchical_operator(
        hier_segments, leaf_size=config.hier_leaf_size
    )
    t_hier = time.perf_counter() - t0
    dense = operator.to_dense()
    scale = float(np.max(np.abs(exact_hier.matrix)))
    max_rel_error = float(
        np.max(np.abs(dense - exact_hier.matrix)) / scale
    )
    spd_ok = bool(is_positive_definite(dense))
    op_stats = operator.stats()
    report.add(
        "hierarchical", t_hier,
        n=n_hier,
        exact_seconds=round(t_exact, 6),
        speedup=round(t_exact / t_hier, 3) if t_hier > 0 else None,
        dense_bytes=int(exact_hier.matrix.nbytes),
        operator_bytes=int(op_stats["memory_bytes"]),
        memory_ratio=round(
            exact_hier.matrix.nbytes / op_stats["memory_bytes"], 3
        ),
        max_rel_error=max_rel_error,
        spd_ok=spd_ok,
        far_blocks=op_stats["num_far_blocks"],
        max_rank=op_stats["max_rank"],
        aca_fallbacks=op_stats["aca_fallbacks"],
        leaf_size=config.hier_leaf_size,
    )
    echo(f"bench: hierarchical {t_hier:.3f}s vs exact {t_exact:.3f}s "
         f"at n = {n_hier} "
         f"({t_exact / t_hier:.2f}x, mem "
         f"{exact_hier.matrix.nbytes / op_stats['memory_bytes']:.2f}x, "
         f"err {max_rel_error:.2e}, spd_ok={spd_ok})")
    del dense, exact_hier, operator

    # -- sparsification -------------------------------------------------
    t0 = time.perf_counter()
    blocks = ShellSparsifier().apply(extraction)
    report.add(
        "sparsify", time.perf_counter() - t0,
        strategy="shell", kept_mutuals=blocks.num_mutuals,
    )

    # -- loop R(f)/L(f) sweep: serial vs parallel -----------------------
    driver = case.ports.driver
    far_sink = max(
        case.ports.sinks,
        key=lambda s: math.hypot(s.x - driver.x, s.y - driver.y),
    )
    port = LoopPort(
        signal=driver,
        reference=_gnd_tap_near(layout, driver.x, driver.y),
        short_signal=far_sink,
        short_reference=_gnd_tap_near(layout, far_sink.x, far_sink.y),
    )
    freqs = np.logspace(7, 10.5, config.num_freqs)

    # Untimed warm-up: the loop extractor assembles a filament-level
    # partial-L matrix whose first computation would otherwise land in
    # the serial timing only (the parallel run would ride the cache),
    # inflating the reported speedup.  The filament grid is sized for
    # the sweep's top frequency, so warm with that point specifically.
    extract_loop_impedance(
        layout, port, freqs[-1:],
        max_segment_length=config.max_segment_length, workers=1,
    )

    t0 = time.perf_counter()
    serial = extract_loop_impedance(
        layout, port, freqs,
        max_segment_length=config.max_segment_length, workers=1,
    )
    t_serial = time.perf_counter() - t0
    report.add(
        "loop_sweep_serial", t_serial,
        num_freqs=config.num_freqs, num_filaments=serial.num_filaments,
    )

    t0 = time.perf_counter()
    parallel = extract_loop_impedance(
        layout, port, freqs,
        max_segment_length=config.max_segment_length,
        workers=config.workers,
    )
    t_parallel = time.perf_counter() - t0
    identical = bool(np.array_equal(serial.impedance, parallel.impedance))
    report.add(
        "loop_sweep_parallel", t_parallel,
        workers=config.workers, arrays_identical=identical,
    )
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    echo(f"bench: loop sweep {t_serial:.3f}s serial / {t_parallel:.3f}s "
         f"with {config.workers} workers ({speedup:.2f}x, "
         f"identical={identical})")

    # -- matrix-free iterative solve vs dense direct --------------------
    # The same loop sweep through ``assembly="hierarchical"``: the
    # partial-L block is stamped as a compressed operator and every
    # frequency point solves through the Krylov rung.  Gated on accuracy
    # against the dense-direct sweep above AND on staying matrix-free
    # (zero ``to_dense`` materializations, zero dense fallbacks).
    from repro.obs import metrics as obs_metrics

    to_dense_before = obs_metrics.counter("hierarchical.to_dense_calls").value
    solves_before = obs_metrics.counter("solver.krylov_solves").value
    iters_before = obs_metrics.counter("solver.krylov_iterations").value
    fallbacks_before = obs_metrics.counter("solver.krylov_fallbacks").value
    t0 = time.perf_counter()
    iterative = extract_loop_impedance(
        layout, port, freqs,
        max_segment_length=config.max_segment_length, workers=1,
        assembly="hierarchical",
    )
    t_iterative = time.perf_counter() - t0
    to_dense_calls = int(
        obs_metrics.counter("hierarchical.to_dense_calls").value
        - to_dense_before
    )
    krylov_solves = int(
        obs_metrics.counter("solver.krylov_solves").value - solves_before
    )
    krylov_iters = int(
        obs_metrics.counter("solver.krylov_iterations").value - iters_before
    )
    krylov_fallbacks = int(
        obs_metrics.counter("solver.krylov_fallbacks").value
        - fallbacks_before
    )
    denom = np.maximum(np.abs(serial.impedance), 1e-300)
    rel_errors = np.abs(iterative.impedance - serial.impedance) / denom
    iter_rel_error = float(np.max(rel_errors))
    operator_bytes = int(obs_metrics.gauge("mna.operator_bytes").value)
    report.add(
        "solve_iterative", t_iterative,
        num_freqs=config.num_freqs,
        num_filaments=iterative.num_filaments,
        dense_seconds=round(t_serial, 6),
        max_rel_error=iter_rel_error,
        to_dense_calls=to_dense_calls,
        krylov_solves=krylov_solves,
        krylov_iterations=krylov_iters,
        krylov_fallbacks=krylov_fallbacks,
        operator_bytes=operator_bytes,
    )
    echo(f"bench: iterative sweep {t_iterative:.3f}s vs dense "
         f"{t_serial:.3f}s (err {iter_rel_error:.2e}, "
         f"{krylov_iters} gmres iters, to_dense={to_dense_calls}, "
         f"operator {operator_bytes / 1024:.0f} KiB)")

    # -- transient on the loop model ------------------------------------
    t0 = time.perf_counter()
    flow = run_loop_flow(case)
    report.add(
        "transient", time.perf_counter() - t0,
        model="loop_rlc",
        build_seconds=round(flow.build_seconds, 6),
        solve_seconds=round(flow.solve_seconds, 6),
        worst_delay_ps=round(flow.worst_delay * 1e12, 3),
    )
    echo(f"bench: loop-flow transient {flow.solve_seconds:.3f}s solve")
    return report


def _hier_benchmark_segments(config: BenchConfig):
    """Parallel-stripe grid for the hierarchical-vs-exact comparison.

    ``hier_lines`` stripes at 4 um pitch, each split into
    ``hier_pieces`` collinear pieces -- the split keeps near-field bar
    evaluation (abutting pieces, adjacent stripes) on the hot path while
    giving the cluster tree a genuine 2-D far field to compress.
    """
    from repro.geometry.segment import Direction, Segment

    segments = []
    for i in range(config.hier_lines):
        line = Segment(
            net=f"bench{i}", layer="m1", direction=Direction.X,
            origin=(0.0, i * 4e-6, 0.0), length=config.die,
            width=1e-6, thickness=0.5e-6, name=f"bench{i}",
        )
        segments.extend(line.split(config.hier_pieces))
    return segments


def write_report(report: BenchReport, path: str | Path) -> Path:
    """Write the BENCH JSON (pretty-printed, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
    return path


def compare_benchmarks(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 2.0,
    min_seconds: float = 0.05,
) -> list[str]:
    """Regressions of ``current`` vs ``baseline``, as human-readable strings.

    A section regresses when its wall-clock exceeds ``max_regression``
    times the baseline's.  Sections faster than ``min_seconds`` in the
    baseline are skipped (timer noise dominates them), as are sections
    either file lacks.  An empty list means "no regression".
    """
    problems: list[str] = []
    cur_sections = current.get("sections", {})
    base_sections = baseline.get("sections", {})
    for name in TIMED_SECTIONS:
        cur = cur_sections.get(name)
        base = base_sections.get(name)
        if cur is None or base is None:
            continue
        base_s = float(base.get("seconds", 0.0))
        cur_s = float(cur.get("seconds", 0.0))
        if base_s < min_seconds:
            continue
        if cur_s > max_regression * base_s:
            problems.append(
                f"{name}: {cur_s:.3f}s vs baseline {base_s:.3f}s "
                f"({cur_s / base_s:.2f}x > {max_regression:.1f}x allowed)"
            )
    par = cur_sections.get("loop_sweep_parallel")
    if par is not None and par.get("arrays_identical") is False:
        problems.append(
            "loop_sweep_parallel: parallel impedance differs from serial"
        )
    # The hierarchical section carries correctness, not just wall-clock:
    # ACA must stay within tolerance of exact assembly and the
    # materialization must stay passive.
    hier = cur_sections.get("hierarchical")
    if hier is not None:
        err = hier.get("max_rel_error")
        if err is not None and float(err) > 1e-3:
            problems.append(
                f"hierarchical: max relative error {float(err):.3e} vs "
                "exact exceeds 1e-3"
            )
        if hier.get("spd_ok") is False:
            problems.append(
                "hierarchical: materialized matrix failed the SPD/"
                "passivity check"
            )
    # The iterative section is a correctness gate too: the matrix-free
    # sweep must agree with dense direct and must not have silently
    # densified the operator.
    solve_iter = cur_sections.get("solve_iterative")
    if solve_iter is not None:
        err = solve_iter.get("max_rel_error")
        if err is not None and float(err) > 1e-6:
            problems.append(
                f"solve_iterative: max relative impedance error "
                f"{float(err):.3e} vs dense direct exceeds 1e-6"
            )
        if int(solve_iter.get("to_dense_calls", 0)) != 0:
            problems.append(
                f"solve_iterative: {solve_iter['to_dense_calls']} "
                "to_dense materializations during the matrix-free sweep "
                "(expected 0)"
            )
        if int(solve_iter.get("krylov_fallbacks", 0)) != 0:
            problems.append(
                f"solve_iterative: {solve_iter['krylov_fallbacks']} "
                "krylov solves fell back to dense direct (expected 0)"
            )
    return problems


__all__ = [
    "BENCH_SCHEMA",
    "TIMED_SECTIONS",
    "BenchConfig",
    "BenchReport",
    "default_output_path",
    "run_benchmarks",
    "write_report",
    "compare_benchmarks",
]
